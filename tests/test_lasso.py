import numpy as np
import pytest

from votelasso import _kernels, lasso
from votelasso.lasso import (
    COEF_TOL,
    KKT_TOL,
    MAX_SWEEPS,
    LassoFit,
    fit_lasso,
    fit_lasso_gram,
    kkt_violation,
    restricted_gram_inverse,
    restricted_ols,
)

from oracles import (
    fista_lasso,
    lasso_objective,
    normal_equations_ols,
    soft_threshold,
)


def _orthonormal_design(rng, n, d):
    Q, _ = np.linalg.qr(rng.standard_normal((n, d)))
    return np.sqrt(n) * Q[:, :d]


class TestFitLasso:
    def test_all_zero_above_lambda_max(self, rng):
        X = rng.standard_normal((40, 10))
        y = rng.standard_normal(40)
        lam_max = np.abs(X.T @ y / 40).max()
        fit = fit_lasso(X, y, lam_max * 1.01)
        assert np.count_nonzero(fit.coefficients) == 0
        assert fit.converged

    def test_orthonormal_closed_form(self, rng):
        n, d = 60, 12
        X = _orthonormal_design(rng, n, d)
        y = rng.standard_normal(n)
        lam = 0.15
        z = X.T @ y / n
        expected = soft_threshold(z, lam)
        fit = fit_lasso(X, y, lam)
        assert np.abs(fit.coefficients - expected).max() <= 1e-8

    def test_matches_proximal_gradient_oracle(self, rng):
        n, d = 50, 20
        X = rng.standard_normal((n, d))
        theta = np.zeros(d)
        theta[:3] = [1.0, -0.5, 0.8]
        y = X @ theta + 0.3 * rng.standard_normal(n)
        for lam in (0.05, 0.2, 0.6):
            fit = fit_lasso(X, y, lam)
            w_oracle = fista_lasso(X, y, lam)
            obj_cd = lasso_objective(X, y, lam, fit.coefficients)
            obj_or = lasso_objective(X, y, lam, w_oracle)
            assert obj_cd <= obj_or + 1e-6 * max(1.0, abs(obj_or))
            assert fit.max_kkt_violation <= 1e-7

    def test_coefficients_match_oracle_from_wrong_support(self, rng):
        n, d = 80, 40
        X = rng.standard_normal((n, d)) + 0.8 * rng.standard_normal((n, 1))  # equicorrelated
        theta = np.zeros(d)
        theta[[2, 9, 17, 30]] = [1.0, -0.8, 0.6, 1.2]
        y = X @ theta + 0.4 * rng.standard_normal(n)
        lam = 0.08
        expected = fista_lasso(X, y, lam, tol=0.0)
        # Both kernels, each started from the same wrong support.
        wrong = np.zeros(d)
        wrong[[0, 5, 25]] = 1.0
        w_res, w_gram = wrong.copy(), wrong.copy()
        _, _, conv_res = _kernels.cd_residual(X, y, lam, w_res, MAX_SWEEPS, COEF_TOL, KKT_TOL)
        _, _, kkt, conv = _kernels.cd_gram(X.T @ X / n, X.T @ y / n, lam, w_gram, -1, MAX_SWEEPS, COEF_TOL, KKT_TOL)
        assert conv_res and conv and kkt <= 1e-7
        assert kkt_violation(X, y, lam, w_res) <= 1e-7
        assert np.abs(w_res - expected).max() <= 1e-7
        assert np.abs(w_gram - expected).max() <= 1e-7

    def test_nan_rejected(self, rng):
        X = rng.standard_normal((10, 3))
        y = rng.standard_normal(10)
        X[0, 0] = np.nan
        with pytest.raises(ValueError):
            fit_lasso(X, y, 0.1)

    def test_nonpositive_lambda_rejected(self, rng):
        X = rng.standard_normal((10, 3))
        with pytest.raises(ValueError):
            fit_lasso(X, rng.standard_normal(10), 0.0)

    @pytest.mark.parametrize("lam", [0.0, -0.1, np.nan, np.inf])
    def test_lambda_not_finite_and_positive_rejected(self, rng, lam):
        # Both solvers, single and stacked: a negative lambda used to
        # "converge" and a NaN one to run every sweep.
        X = rng.standard_normal((20, 4))
        y = rng.standard_normal(20)
        G, c = X.T @ X / 20, X.T @ y / 20
        for solve in (
            lambda: fit_lasso(X, y, lam, max_sweeps=50),
            lambda: fit_lasso_gram(G, c, lam, max_sweeps=50),
            lambda: fit_lasso_gram(G, np.stack([c, c]), lam, max_sweeps=50),
        ):
            with pytest.raises(ValueError, match="lam must be finite and positive"):
                solve()

    def test_nonconvergence_reported_not_raised(self, rng):
        X = rng.standard_normal((30, 15))
        y = rng.standard_normal(30)
        fit = fit_lasso(X, y, 0.01, max_sweeps=1)
        assert isinstance(fit, LassoFit)
        assert not fit.converged

    def test_column_permutation_equivariance(self, rng):
        n, d = 40, 8
        X = rng.standard_normal((n, d))
        y = rng.standard_normal(n)
        perm = rng.permutation(d)
        fit = fit_lasso(X, y, 0.12)
        fit_p = fit_lasso(X[:, perm], y, 0.12)
        assert np.abs(fit_p.coefficients - fit.coefficients[perm]).max() <= 1e-8

    def test_objective_monotone_in_lambda(self, rng):
        X = rng.standard_normal((50, 15))
        y = rng.standard_normal(50)
        objs = []
        for lam in (0.5, 0.3, 0.15, 0.05):
            fit = fit_lasso(X, y, lam)
            objs.append(lasso_objective(X, y, lam, fit.coefficients))
        # Each optimum evaluated at its own lambda: smaller lambda, smaller optimum.
        assert all(a >= b - 1e-12 for a, b in zip(objs, objs[1:]))

    def test_gram_path_matches_residual_path(self, rng):
        n, d = 60, 25
        X = rng.standard_normal((n, d))
        y = rng.standard_normal(n)
        fit = fit_lasso(X, y, 0.15)
        w, _, _, kkt, conv = fit_lasso_gram(X.T @ X / n, X.T @ y / n, 0.15)
        assert conv and kkt <= 1e-7
        assert np.abs(w - fit.coefficients).max() <= 1e-7

    def test_stacked_gram_fit_matches_single_fits(self, rng):
        # A (B, d) stack of c rows with per-row skip returns each row's
        # solution, the sweeps summed, the largest KKT residual and whether
        # every row converged.
        n, d = 60, 25
        X = rng.standard_normal((n, d))
        X[:, 1:] += 0.5 * X[:, :-1]
        G = X.T @ X / n
        C = np.vstack([X.T @ rng.standard_normal(n) / n, G[3], G[17]])
        skip = np.array([-1, 3, 17])
        W, U, sweeps, kkt, conv = fit_lasso_gram(G, C, 0.1, skip=skip)
        assert W.shape == U.shape == (3, d)
        singles = [fit_lasso_gram(G, C[r], 0.1, skip=int(skip[r])) for r in range(3)]
        assert sweeps == sum(fit[2] for fit in singles)
        assert conv and kkt == pytest.approx(max(fit[3] for fit in singles), abs=1e-12)
        for r, (w, u, _, _, _) in enumerate(singles):
            assert np.count_nonzero(w) >= 2
            assert np.abs(W[r] - w).max() <= 1e-12 and np.abs(U[r] - u).max() <= 1e-12
        _, _, _, kkt, conv = fit_lasso_gram(G, C, 0.1, skip=skip, max_sweeps=1)
        assert not conv and kkt > 1e-7


class TestZeroFitExit:
    """fit_lasso_gram answers a problem where its zero start is optimal
    before the solver runs; its 5-tuple must be the solver's, bit for bit."""

    @staticmethod
    def _problem(rng):
        n, d = 40, 12
        X = rng.standard_normal((n, d))
        G = X.T @ X / n
        c = X.T @ rng.standard_normal(n) / n
        return G, c, float(np.abs(c).max())

    @staticmethod
    def _solver(G, c, lam, skip=-1):
        w = np.zeros(c.shape)
        u, sweeps, kkt, conv = _kernels.cd_gram(G, c, lam, w, skip, MAX_SWEEPS, COEF_TOL, KKT_TOL)
        return w, u, sweeps, kkt, conv

    @staticmethod
    def _assert_same(got, want):
        theta, u, sweeps, kkt, conv = got
        assert theta.tobytes() == want[0].tobytes() and u.tobytes() == want[1].tobytes()
        assert (sweeps, conv) == (want[2], want[4])
        assert np.array_equal(kkt, want[3], equal_nan=True)

    @pytest.fixture
    def solver_calls(self, monkeypatch):
        calls = []
        solve = _kernels.cd_gram

        def counting(*args):
            calls.append(args)
            return solve(*args)

        monkeypatch.setattr(_kernels, "cd_gram", counting)
        return calls

    @pytest.mark.parametrize("case", ["below", "at", "skip"])
    def test_exit_equals_solver(self, rng, solver_calls, case):
        G, c, top = self._problem(rng)
        lam, kwargs = 1.5 * top, {}
        if case == "at":
            lam = top  # |c_j| == lam soft-thresholds to 0
        elif case == "skip":
            j = int(np.abs(c).argmax())
            lam = float(np.abs(np.delete(c, j)).max())
            c[j] = 3.0 * lam  # a violator, but the skipped coordinate
            kwargs = {"skip": j}
        got = fit_lasso_gram(G, c, lam, **kwargs)
        assert not solver_calls
        want = self._solver(G, c, lam, **kwargs)
        self._assert_same(got, want)
        assert got[2:] == (1, 0.0, True) and not got[0].any() and not got[1].any()

    @pytest.mark.parametrize("case", ["nan", "violator"])
    def test_other_fits_reach_the_solver(self, rng, solver_calls, case):
        G, c, top = self._problem(rng)
        lam = 1.5 * top
        if case == "nan":
            c[3] = np.nan  # max |c| is NaN, which is not <= lam
        else:
            lam = 0.5 * top
        got = fit_lasso_gram(G, c, lam)
        assert len(solver_calls) == 1
        solver_calls.clear()
        self._assert_same(got, self._solver(G, c, lam))
        if case == "nan":
            assert np.isnan(got[3]) and not got[4]

    def test_solver_from_a_nonzero_start_runs_to_zero(self, rng):
        # The exit is taken from a zero start only: the kernel started off
        # zero where zero is optimal runs its passes and ends at zero.
        G, c, top = self._problem(rng)
        w = np.where(np.arange(c.size) == 2, 0.4, 0.0)
        u, sweeps, kkt, conv = _kernels.cd_gram(G, c, 1.5 * top, w, -1, MAX_SWEEPS, COEF_TOL, KKT_TOL)
        assert conv and kkt == 0.0 and sweeps > 1
        assert not w.any() and not u.any()


def _same_fit(a, b):
    return (
        np.array_equal(a.coefficients, b.coefficients)
        and a.iterations == b.iterations
        and a.max_kkt_violation == b.max_kkt_violation
        and a.converged == b.converged
    )


class TestPrecomputedInputs:
    """``fit_lasso(gram_diag=, c=)``: the column sums of squares over n and
    X'y/n, passed in by a caller that holds them."""

    @pytest.mark.parametrize("lam", [5.0, 0.3, 0.05])
    def test_equal_to_self_computed_fit_bit_for_bit(self, rng, lam):
        n, d = 40, 30
        X = rng.standard_normal((n, d))
        X[:, 7] = 0.0  # a zero column is held at zero either way
        y = X[:, :3] @ np.array([1.0, -0.8, 0.5]) + 0.3 * rng.standard_normal(n)
        own = fit_lasso(X, y, lam)
        given = fit_lasso(X, y, lam, gram_diag=_kernels.gram_diagonal(X), c=X.T @ y / n)
        assert _same_fit(own, given)
        assert (np.count_nonzero(own.coefficients) == 0) == (lam == 5.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry_anywhere_rejected(self, rng, bad):
        n, d = 6, 4
        X0 = rng.standard_normal((n, d))
        y0 = rng.standard_normal(n)
        for i in range(n):
            for j in range(d):
                X = X0.copy()
                X[i, j] = bad
                with pytest.raises(ValueError, match="NaN or inf"):
                    fit_lasso(X, y0, 0.1)
                # A diagonal formed from the same X carries the fault too.
                with pytest.raises(ValueError, match="NaN or inf"):
                    fit_lasso(X, y0, 0.1, gram_diag=_kernels.gram_diagonal(X), c=X0.T @ y0 / n)
            y = y0.copy()
            y[i] = bad
            with pytest.raises(ValueError, match="NaN or inf"):
                fit_lasso(X0, y, 0.1)

    def test_entry_whose_square_overflows_rejected(self, rng):
        # X is checked through its column sums of squares: an entry of
        # magnitude about 1.3e154 or more overflows its square to inf.
        X = rng.standard_normal((10, 3))
        y = rng.standard_normal(10)
        X[4, 1] = -1.4e154
        with pytest.raises(ValueError, match="NaN or inf"):
            fit_lasso(X, y, 0.1)
        X[4, 1] = 1e100  # large but squarable: checked, then solved
        assert isinstance(fit_lasso(X, y, 0.1, max_sweeps=10), LassoFit)

    def test_wrong_lengths_rejected(self, rng):
        X = rng.standard_normal((10, 3))
        y = rng.standard_normal(10)
        with pytest.raises(ValueError, match="gram_diag"):
            fit_lasso(X, y, 0.1, gram_diag=np.ones(4))
        with pytest.raises(ValueError, match="c has wrong length"):
            fit_lasso(X, y, 0.1, c=np.ones(2))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_c_rejected(self, rng, bad):
        # A NaN in c used to end unconverged after MAX_SWEEPS with residual
        # 0.0, and an inf to give NaN coefficients.
        n, d = 20, 5
        X = rng.standard_normal((n, d))
        y = rng.standard_normal(n)
        for j in range(d):
            c = X.T @ y / n
            c[j] = bad
            with pytest.raises(ValueError, match="NaN or inf in lasso inputs"):
                fit_lasso(X, y, 0.1, c=c)


class TestZeroFitCertificate:
    """A zero solution given c = X'y/n is certified from c; every other fit
    recomputes its residual from X, y and the solution."""

    @pytest.fixture
    def kkt_calls(self, monkeypatch):
        calls = []

        def counting(*args):
            calls.append(args)
            return kkt_violation(*args)

        monkeypatch.setattr(lasso, "kkt_violation", counting)
        return calls

    @staticmethod
    def _problem(rng):
        n, d = 40, 25
        X = rng.standard_normal((n, d))
        y = X[:, :2] @ np.array([1.0, -0.7]) + 0.3 * rng.standard_normal(n)
        c = X.T @ y / n
        return X, y, c, float(np.abs(c).max())

    @pytest.mark.parametrize("case", ["above", "at", "no_sweeps"])
    def test_zero_solution_given_c_is_certified_from_c(self, rng, kkt_calls, case):
        X, y, c, top = self._problem(rng)
        lam = {"above": 1.5 * top, "at": top, "no_sweeps": 0.5 * top}[case]
        # With no sweep the fit stays at zero with violators left.
        kwargs = {"max_sweeps": 0} if case == "no_sweeps" else {}
        fit = fit_lasso(X, y, lam, c=c, **kwargs)
        assert not kkt_calls and not fit.coefficients.any()
        assert fit.max_kkt_violation == _kernels.kkt_residual(c, np.zeros(c.size), lam)
        assert fit.converged == (case != "no_sweeps")
        # The from-scratch certificate of the same zero solution agrees.
        assert fit.max_kkt_violation == pytest.approx(kkt_violation(X, y, lam, fit.coefficients), abs=1e-15)
        if case == "no_sweeps":
            assert fit.max_kkt_violation == pytest.approx(0.5 * top)

    @pytest.mark.parametrize("case", ["nonzero", "without_c"])
    def test_other_fits_recompute_the_certificate_once(self, rng, kkt_calls, case):
        X, y, c, top = self._problem(rng)
        lam = 0.3 * top if case == "nonzero" else 1.5 * top
        kwargs = {"nonzero": {"c": c}, "without_c": {}}[case]
        fit = fit_lasso(X, y, lam, **kwargs)
        assert len(kkt_calls) == 1
        assert fit.coefficients.any() == (case == "nonzero")
        assert fit.max_kkt_violation == kkt_violation(X, y, lam, fit.coefficients)
        assert fit.converged
        # The same value as a fit given c where c is read.
        assert _same_fit(fit, fit_lasso(X, y, lam, c=c))


class TestKktViolation:
    def test_equals_the_full_residual_certificate(self, rng):
        # The residual from theta's nonzero columns only agrees with
        # y - X theta over all columns to roundoff.
        n, d = 50, 30
        X = rng.standard_normal((n, d))
        y = rng.standard_normal(n)
        theta = np.zeros(d)
        theta[[3, 11, 20]] = [0.4, -0.2, 0.1]
        full = _kernels.kkt_residual(X.T @ (y - X @ theta) / n, theta, 0.05)
        assert kkt_violation(X, y, 0.05, theta) == pytest.approx(full, rel=1e-12, abs=1e-15)


    def test_exact_orthonormal_solution(self, rng):
        n, d = 50, 10
        X = _orthonormal_design(rng, n, d)
        y = rng.standard_normal(n)
        lam = 0.1
        theta = soft_threshold(X.T @ y / n, lam)
        # X'X/n deviates from I only by roundoff here.
        assert kkt_violation(X, y, lam, theta) <= 1e-10

    def test_zero_vector_with_large_lambda(self, rng):
        X = rng.standard_normal((30, 6))
        y = rng.standard_normal(30)
        lam = np.abs(X.T @ y / 30).max() + 0.1
        assert kkt_violation(X, y, lam, np.zeros(6)) == 0.0

    def test_perturbation_detected(self, rng):
        n, d = 50, 8
        X = rng.standard_normal((n, d))
        y = X @ np.array([2.0, 0, 0, 0, 0, 0, 0, 0]) + 0.1 * rng.standard_normal(n)
        lam = 0.1
        fit = fit_lasso(X, y, lam)
        j = int(np.argmax(np.abs(fit.coefficients)))
        theta = fit.coefficients.copy()
        theta[j] += 0.1
        gjj = (X[:, j] @ X[:, j]) / n
        assert kkt_violation(X, y, lam, theta) >= 0.05 * gjj


class TestRestrictedOls:
    def test_identity_design(self):
        y = np.array([1.0, -2.0, 3.0])
        assert np.allclose(restricted_ols(np.eye(3), y), y)

    def test_single_column_exact_fit(self, rng):
        x = rng.standard_normal(20)
        beta = restricted_ols(x[:, None], 2.0 * x)
        assert beta[0] == pytest.approx(2.0)

    def test_matches_normal_equations(self, rng):
        X = rng.standard_normal((30, 5))
        y = rng.standard_normal(30)
        beta = restricted_ols(X, y)
        assert np.abs(beta - normal_equations_ols(X, y)).max() <= 1e-8

    def test_residual_orthogonality(self, rng):
        X = rng.standard_normal((40, 6))
        y = rng.standard_normal(40)
        beta = restricted_ols(X, y)
        lhs = np.abs(X.T @ (y - X @ beta)).max()
        assert lhs <= 1e-8 * np.abs(X.T @ y).max() + 1e-12

    def test_more_columns_than_rows_rejected(self, rng):
        with pytest.raises(ValueError, match="not full rank"):
            restricted_ols(rng.standard_normal((3, 5)), rng.standard_normal(3))

    def test_rank_deficient_rejected(self, rng):
        x = rng.standard_normal(10)
        X = np.column_stack([x, x])
        with pytest.raises(ValueError, match="not full rank"):
            restricted_ols(X, rng.standard_normal(10))


def _conditioned_design(rng, n, k, cond):
    """An (n, k) design with singular values spread log-evenly over [1/cond, 1]."""
    U, _ = np.linalg.qr(rng.standard_normal((n, k)))
    V, _ = np.linalg.qr(rng.standard_normal((k, k)))
    return (U * np.logspace(0, -np.log10(cond), k)) @ V.T


class TestRestrictedGramInverse:
    @pytest.mark.parametrize("cond", [1.0, 10.0, 1e2, 1e3])
    def test_ols_agrees_with_lstsq(self, rng, cond):
        for n, k in ((8, 1), (30, 5), (100, 12)):
            for _ in range(20):
                X = _conditioned_design(rng, n, k, cond)
                y = X @ rng.standard_normal(k) + 0.3 * rng.standard_normal(n)
                ref = np.linalg.lstsq(X, y, rcond=None)[0]
                beta = restricted_ols(X, y)
                assert np.linalg.norm(beta - ref) <= 1e-10 * np.linalg.norm(ref)

    def test_is_the_inverse_gram(self, rng):
        X = rng.standard_normal((40, 6))
        inv = restricted_gram_inverse(X)
        assert inv.shape == (6, 6)
        assert np.allclose(inv, inv.T, rtol=0.0, atol=1e-15)
        assert np.abs(inv @ (X.T @ X) - np.eye(6)).max() <= 1e-12

    def test_given_factor_is_used(self, rng):
        X = rng.standard_normal((30, 4))
        y = rng.standard_normal(30)
        inv = restricted_gram_inverse(X)
        assert np.array_equal(restricted_ols(X, y, inv), restricted_ols(X, y))
        assert np.array_equal(restricted_ols(X, y, 2.0 * inv), 2.0 * restricted_ols(X, y))

    @pytest.mark.parametrize("n, k", [(5, 1), (20, 5), (100, 5), (50, 12)])
    def test_stacked_rows_equal_single_factors_bitwise(self, rng, n, k):
        Xs = rng.standard_normal((7, n, k))
        stacked = restricted_gram_inverse(Xs)
        assert stacked.shape == (7, k, k)
        for m in range(7):
            assert stacked[m].tobytes() == restricted_gram_inverse(Xs[m]).tobytes()
        # A machine-prefix slice of a C-contiguous (M, n, d) design, as the harness gathers it.
        design = rng.standard_normal((7, n + 3, k + 6))
        support = np.sort(rng.choice(k + 6, size=k, replace=False))
        stacked = restricted_gram_inverse(design[:5, :n][:, :, support])
        for m in range(5):
            single = restricted_gram_inverse(design[m][:n][:, support])
            assert stacked[m].tobytes() == single.tobytes()

    def test_rank_rule_matches_lstsq(self, rng):
        with pytest.raises(ValueError, match="fewer rows than columns"):
            restricted_gram_inverse(rng.standard_normal((4, 3, 5)))
        x = rng.standard_normal(10)
        duplicated = np.column_stack([x, rng.standard_normal(10), x])
        assert np.linalg.lstsq(duplicated, np.ones(10), rcond=None)[2] == 2
        with pytest.raises(ValueError, match="not full rank"):
            restricted_gram_inverse(duplicated)
        # lstsq (rcond=None) counts singular values above eps * max(n, k) * s_max.
        n, k = 20, 4
        Q, _ = np.linalg.qr(rng.standard_normal((n, k)))
        cutoff = np.finfo(np.float64).eps * max(n, k)
        X = Q * np.array([1.0, 1.0, 1.0, 1.5 * cutoff])
        assert np.linalg.lstsq(X, np.ones(n), rcond=None)[2] == k
        assert np.isfinite(restricted_ols(X, np.ones(n))).all()
        X = Q * np.array([1.0, 1.0, 1.0, 0.5 * cutoff])
        assert np.linalg.lstsq(X, np.ones(n), rcond=None)[2] == k - 1
        with pytest.raises(ValueError, match="not full rank"):
            restricted_ols(X, np.ones(n))

    def test_no_columns_give_an_empty_solution(self, rng):
        assert restricted_gram_inverse(rng.standard_normal((3, 5, 0))).shape == (3, 0, 0)
        assert restricted_ols(np.zeros((5, 0)), np.ones(5)).shape == (0,)

    def test_one_singular_matrix_fails_the_stack(self, rng):
        Xs = rng.standard_normal((4, 10, 3))
        Xs[2, :, 1] = Xs[2, :, 0]
        with pytest.raises(ValueError, match="not full rank"):
            restricted_gram_inverse(Xs)
        restricted_gram_inverse(np.delete(Xs, 2, axis=0))
