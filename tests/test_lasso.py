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
    restricted_xty,
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
        w_res, W_gram = wrong.copy(), wrong[None].copy()
        g = np.empty(d)
        _, _, conv_res = _kernels.cd_residual(
            X, y, lam, w_res, MAX_SWEEPS, COEF_TOL, KKT_TOL, _kernels.gram_diagonal(X), X.T @ y / n, g,
            _kernels.GramColumns(d),
        )
        _, _, kkt, conv = _kernels.cd_gram_stack(
            X.T @ X / n, (X.T @ y / n)[None], lam, W_gram, np.array([-1]), MAX_SWEEPS, COEF_TOL, KKT_TOL
        )
        w_gram = W_gram[0]
        assert conv_res and conv[0] and kkt[0] <= 1e-7
        assert kkt_violation(X, y, lam, w_res) <= 1e-7
        assert np.abs(g - X.T @ (y - X[:, w_res != 0] @ w_res[w_res != 0]) / n).max() <= 1e-12
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
        # Both solvers: a negative lambda used to "converge" and a NaN one
        # to run every sweep.
        X = rng.standard_normal((20, 4))
        y = rng.standard_normal(20)
        G, c = X.T @ X / 20, X.T @ y / 20
        for solve in (
            lambda: fit_lasso(X, y, lam, max_sweeps=50),
            lambda: fit_lasso_gram(G, np.stack([c, c]), lam, np.array([-1, 2]), max_sweeps=50),
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
        W, _, _, kkt, conv = fit_lasso_gram(X.T @ X / n, (X.T @ y / n)[None], 0.15, np.array([-1]))
        assert conv and kkt <= 1e-7
        assert np.abs(W[0] - fit.coefficients).max() <= 1e-7

    def test_stacked_gram_fit_matches_single_fits(self, rng):
        # A (B, d) stack of c rows with per-row skip returns each row's
        # solution, the sweeps summed, the largest KKT residual and whether
        # every row converged: each row as a stack of one would.
        n, d = 60, 25
        X = rng.standard_normal((n, d))
        X[:, 1:] += 0.5 * X[:, :-1]
        G = X.T @ X / n
        C = np.vstack([X.T @ rng.standard_normal(n) / n, G[3], G[17]])
        skip = np.array([-1, 3, 17])
        W, U, sweeps, kkt, conv = fit_lasso_gram(G, C, 0.1, skip=skip)
        assert W.shape == U.shape == (3, d)
        singles = [fit_lasso_gram(G, C[r : r + 1], 0.1, skip=skip[r : r + 1]) for r in range(3)]
        assert sweeps == sum(fit[2] for fit in singles)
        assert conv and kkt == pytest.approx(max(fit[3] for fit in singles), abs=1e-12)
        for r, (w, u, _, _, _) in enumerate(singles):
            assert np.count_nonzero(w) >= 2
            assert np.abs(W[r] - w[0]).max() <= 1e-12 and np.abs(U[r] - u[0]).max() <= 1e-12
        _, _, _, kkt, conv = fit_lasso_gram(G, C, 0.1, skip=skip, max_sweeps=1)
        assert not conv and kkt > 1e-7


class TestZeroFitExit:
    """``cd_residual`` answers a problem where its zero start is optimal
    before the solver runs; its result must be the solver's, bit for bit."""

    @staticmethod
    def _problem(rng):
        n, d = 40, 12
        X = rng.standard_normal((n, d))
        y = rng.standard_normal(n)
        c = X.T @ y / n
        return X, y, c, float(np.abs(c).max())

    @staticmethod
    def _fit(X, y, lam, c, w=None):
        """(theta, gradient, sweeps, kkt, converged) of ``cd_residual``."""
        d = X.shape[1]
        w = np.zeros(d) if w is None else w
        g = np.full(d, np.nan)
        out = _kernels.cd_residual(
            X, y, lam, w, MAX_SWEEPS, COEF_TOL, KKT_TOL, _kernels.gram_diagonal(X), c, g, _kernels.GramColumns(d)
        )
        return (w, g, *out)

    def _solver(self, monkeypatch, X, y, lam, c):
        """The same fit with the exit disabled: the full solver loop."""
        with monkeypatch.context() as mp:
            mp.setattr(_kernels, "zero_start_solves", lambda c, lam: False)
            return self._fit(X, y, lam, c)

    @staticmethod
    def _assert_same(got, want):
        theta, g, sweeps, kkt, conv = got
        assert theta.tobytes() == want[0].tobytes() and g.tobytes() == want[1].tobytes()
        assert (sweeps, conv) == (want[2], want[4])
        assert np.array_equal(kkt, want[3], equal_nan=True)

    @pytest.fixture
    def solver_calls(self, monkeypatch):
        calls = []
        solve = _kernels._active_set_cd

        def counting(*args):
            calls.append(args)
            return solve(*args)

        monkeypatch.setattr(_kernels, "_active_set_cd", counting)
        return calls

    @pytest.mark.parametrize("case", ["below", "at"])
    def test_exit_equals_solver(self, rng, monkeypatch, solver_calls, case):
        X, y, c, top = self._problem(rng)
        lam = top if case == "at" else 1.5 * top  # |c_j| == lam soft-thresholds to 0
        got = self._fit(X, y, lam, c)
        assert not solver_calls
        want = self._solver(monkeypatch, X, y, lam, c)
        assert len(solver_calls) == 1
        self._assert_same(got, want)
        assert got[2:] == (1, 0.0, True) and not got[0].any() and got[1].tobytes() == c.tobytes()

    @pytest.mark.parametrize("case", ["nan", "violator", "barely"])
    def test_other_fits_reach_the_solver(self, rng, monkeypatch, solver_calls, case):
        X, y, c, top = self._problem(rng)
        lam = 1.5 * top
        if case == "nan":
            c[3] = np.nan  # max |c| is NaN, which is not <= lam
        elif case == "violator":
            lam = 0.5 * top
        else:
            lam = float(np.nextafter(top, 0.0))  # one coordinate just past lam
        got = self._fit(X, y, lam, c)
        assert len(solver_calls) == 1
        solver_calls.clear()
        self._assert_same(got, self._solver(monkeypatch, X, y, lam, c))
        if case == "nan":
            assert np.isnan(got[3]) and not got[4]

    def test_solver_from_a_nonzero_start_runs_to_zero(self, rng):
        # The exit is taken from a zero start only: the kernel started off
        # zero where zero is optimal runs its passes and ends at zero.
        X, y, c, top = self._problem(rng)
        w = np.where(np.arange(c.size) == 2, 0.4, 0.0)
        _, g, sweeps, kkt, conv = self._fit(X, y, 1.5 * top, c, w)
        assert conv and kkt == 0.0 and sweeps > 1
        assert not w.any() and np.abs(g - c).max() <= 1e-15


def _overflowing_column(n, bad):
    """A finite column whose products with a response of 1e308 overflow and
    sum to ``bad``: all +2 for inf, all -2 for -inf, alternating for NaN."""
    if np.isnan(bad):
        return np.where(np.arange(n) % 2, -2.0, 2.0)
    return np.full(n, np.copysign(2.0, bad))


def _same_fit(a, b):
    return (
        np.array_equal(a.coefficients, b.coefficients)
        and a.iterations == b.iterations
        and a.max_kkt_violation == b.max_kkt_violation
        and a.converged == b.converged
        and np.array_equal(a.gradient, b.gradient)
    )


class TestPrecomputedInputs:
    """``fit_lasso(gram_diag=)``: the column sums of squares over n, passed
    in by a caller that holds them, and the checks of the inputs and of the
    X'y/n the fit forms from them."""

    @pytest.mark.parametrize("lam", [5.0, 0.3, 0.05])
    def test_equal_to_self_computed_fit_bit_for_bit(self, rng, lam):
        n, d = 40, 30
        X = rng.standard_normal((n, d))
        X[:, 7] = 0.0  # a zero column is held at zero either way
        y = X[:, :3] @ np.array([1.0, -0.8, 0.5]) + 0.3 * rng.standard_normal(n)
        own = fit_lasso(X, y, lam)
        given = fit_lasso(X, y, lam, gram_diag=_kernels.gram_diagonal(X))
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
                    fit_lasso(X, y0, 0.1, gram_diag=_kernels.gram_diagonal(X))
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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_c_rejected(self, rng, bad):
        # Finite X and y whose X'y/n overflows in column j: a fit on it used
        # to run all MAX_SWEEPS sweeps and return an inf coefficient.
        n, d = 20, 5
        X = rng.standard_normal((n, d))
        y = np.full(n, 1e308)
        for j in range(d):
            X_j = X.copy()
            X_j[:, j] = _overflowing_column(n, bad)
            with np.errstate(over="ignore", invalid="ignore"):
                assert not np.isfinite(X_j.T @ y / n).all()
                with pytest.raises(ValueError, match="NaN or inf in lasso inputs"):
                    fit_lasso(X_j, y, 0.1)


class TestZeroFitCertificate:
    """Every fit is certified from the solver's last gradient, which it
    returns: c = X'y/n itself for a zero solution. No fit calls
    ``kkt_violation``, and every certificate equals the from-scratch one."""

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
        fit = fit_lasso(X, y, lam, **kwargs)
        assert not kkt_calls and not fit.coefficients.any()
        assert np.array_equal(fit.gradient, c)
        assert fit.max_kkt_violation == _kernels.kkt_residual(c, np.zeros(c.size), lam)
        assert fit.converged == (case != "no_sweeps")
        # The from-scratch certificate of the same zero solution agrees.
        assert fit.max_kkt_violation == pytest.approx(kkt_violation(X, y, lam, fit.coefficients), abs=1e-15)
        if case == "no_sweeps":
            assert fit.max_kkt_violation == pytest.approx(0.5 * top)

    @pytest.mark.parametrize("case", ["nonzero", "without_c"])
    def test_other_fits_certify_from_the_solvers_gradient(self, rng, kkt_calls, case):
        X, y, c, top = self._problem(rng)
        lam = 0.3 * top if case == "nonzero" else 1.5 * top
        fit = fit_lasso(X, y, lam)
        assert not kkt_calls
        assert fit.coefficients.any() == (case == "nonzero")
        # The gradient is X'r/n at the solution, and the certificate is its
        # residual: both equal their from-scratch values, bit for bit at a
        # zero solution and to roundoff where the gradient is c - G theta.
        theta = fit.coefficients
        nz = theta.nonzero()[0]
        want = X.T @ (y - X[:, nz] @ theta[nz]) / X.shape[0]
        if case == "nonzero":
            assert np.abs(fit.gradient - want).max() <= 1e-12
            assert fit.max_kkt_violation == pytest.approx(kkt_violation(X, y, lam, theta), rel=0.0, abs=1e-12)
        else:
            assert np.array_equal(fit.gradient, want)
            assert fit.max_kkt_violation == kkt_violation(X, y, lam, theta)
        assert fit.converged


class TestStackedFit:
    """``fit_lasso`` on a stack of designs (M, n, d): each row equals the
    machine's own fit bit for bit, the inputs are checked once over the
    stack, and the kernel is still called once per machine."""

    @staticmethod
    def _stack(rng, M, n=40, d=30):
        X = rng.standard_normal((M, n, d))
        X[:, :, 7] = 0.0  # a zero column is held at zero
        beta = np.array([1.0, -0.8, 0.5])
        # Odd machines see a signal a thousand times weaker.
        scale = np.where(np.arange(M) % 2, 1e-3, 1.0)[:, None]
        y = scale * (X[:, :, :3] @ beta + 0.3 * rng.standard_normal((M, n)))
        return X, y

    @pytest.mark.parametrize(
        "M, lam, live",
        [(4, 10.0, "none"), (4, 2e-4, "all"), (4, 0.1, "mixed"), (1, 0.1, "all"), (1, 10.0, "none")],
    )
    @pytest.mark.parametrize("given", [False, True], ids=["formed", "given"])
    def test_rows_equal_single_fits_bit_for_bit(self, rng, M, lam, live, given):
        X, y = self._stack(rng, M)
        kwargs = dict(gram_diag=_kernels.gram_diagonal(X)) if given else {}
        fit = fit_lasso(X, y, lam, **kwargs)
        assert fit.coefficients.shape == fit.gradient.shape == (M, X.shape[2])
        for name, dtype in (("iterations", np.int64), ("max_kkt_violation", np.float64), ("converged", bool)):
            assert getattr(fit, name).shape == (M,) and getattr(fit, name).dtype == dtype
        nonzero = fit.coefficients.any(axis=1)
        assert {"none": not nonzero.any(), "all": nonzero.all(), "mixed": 0 < nonzero.sum() < M}[live]
        assert fit.converged.all() and fit.lam == lam
        for m in range(M):
            one = fit_lasso(X[m], y[m], lam, **{k: v[m] for k, v in kwargs.items()})
            assert (type(one.iterations), type(one.max_kkt_violation), type(one.converged)) == (int, float, bool)
            assert one.coefficients.tobytes() == fit.coefficients[m].tobytes(), m
            assert one.gradient.tobytes() == fit.gradient[m].tobytes(), m
            assert (one.iterations, one.max_kkt_violation, one.converged) == (
                fit.iterations[m],
                fit.max_kkt_violation[m],
                fit.converged[m],
            )

    def test_formed_xty_has_the_bits_of_the_transposed_product(self, rng):
        # A zero fit's gradient is the X'y/n the fit formed.
        X, y = self._stack(rng, 3)
        fit = fit_lasso(X, y, 10.0)
        assert not fit.coefficients.any()
        for m in range(3):
            assert fit.gradient[m].tobytes() == (X[m].T @ y[m] / X.shape[1]).tobytes()

    @pytest.mark.parametrize("lam", [10.0, 0.05])
    def test_returns_the_undivided_xty(self, rng, lam):
        # Zero fits and nonzero ones alike return the X'y they formed, each
        # row with the bits of its machine's own X'y; a design's fit returns
        # its row.
        X, y = self._stack(rng, 3)
        fit = fit_lasso(X, y, lam)
        assert fit.coefficients.any() == (lam < 1.0)
        assert fit.xty.shape == (3, X.shape[2])
        for m in range(3):
            assert fit.xty[m].tobytes() == (X[m].T @ y[m]).tobytes() == (y[m] @ X[m]).tobytes()
            assert fit_lasso(X[m], y[m], lam).xty.tobytes() == fit.xty[m].tobytes()

    @pytest.mark.parametrize("where", ["X", "y", "c"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry_in_one_machine_rejected(self, rng, where, bad):
        # "c": machine 2's X and y are finite, but its X'y/n overflows.
        X, y = self._stack(rng, 3)
        if where == "c":
            X[2, :, 4] = _overflowing_column(X.shape[1], bad)
            y[2] = 1e308
        else:
            {"X": X[2, 5], "y": y[2]}[where][4] = bad
        given = dict(gram_diag=_kernels.gram_diagonal(X)) if where == "X" else {}
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
            ValueError, match="^NaN or inf in lasso inputs$"
        ):
            fit_lasso(X, y, 0.1, **given)
        if where == "X":
            with pytest.raises(ValueError, match="^NaN or inf in lasso inputs$"):
                fit_lasso(X, y, 0.1)

    def test_wrong_shapes_rejected(self, rng):
        X, y = self._stack(rng, 3)
        M, n, d = X.shape
        cases = [
            (dict(y=y[:2]), "^X and y have inconsistent shapes$"),
            (dict(y=y[0]), "^X and y have inconsistent shapes$"),
            (dict(y=y[:, :-1]), "^X and y have inconsistent shapes$"),
            (dict(gram_diag=np.ones(d)), "^gram_diag has wrong length$"),
            (dict(gram_diag=np.ones((M, d + 1))), "^gram_diag has wrong length$"),
            (dict(columns=[_kernels.GramColumns(d)] * (M - 1)), "^columns must hold one store per design$"),
            (dict(X=X[None]), "^X must be"),
            (dict(X=X[0, 0]), "^X must be"),
        ]
        for change, message in cases:
            args = {"X": X, "y": y, **change}
            with pytest.raises(ValueError, match=message):
                fit_lasso(args.pop("X"), args.pop("y"), 0.1, **args)
        with pytest.raises(ValueError, match="^lam must be finite and positive$"):
            fit_lasso(X, y, float("nan"))

    def test_given_stores_serve_later_fits(self, rng):
        # Each machine's fits read and fill its own store; a second fit on
        # the filled stores forms no column and gives the same fit, bit for bit: it reads the
        # same columns.
        X, y = self._stack(rng, 3)
        stores = [_kernels.GramColumns(X.shape[2]) for _ in range(3)]
        first = fit_lasso(X, y, 0.1, columns=stores)
        live = first.coefficients.any(axis=1)
        assert live.any() and not live.all()
        for store, row in zip(stores, first.coefficients):
            assert (store.slot[row != 0] >= 0).all() and (store.kept > 0) == row.any()
        rows = [store.rows for store in stores]
        again = fit_lasso(X, y, 0.1, columns=stores)
        assert all(store.rows is kept for store, kept in zip(stores, rows))
        for name in ("coefficients", "iterations", "max_kkt_violation", "converged", "gradient"):
            assert np.array_equal(getattr(again, name), getattr(first, name)), name

    def test_one_positional_kernel_call_per_machine(self, rng, monkeypatch):
        X, y = self._stack(rng, 4)
        calls = []
        solve = _kernels.cd_residual

        def positional(*args):  # a keyword argument would raise TypeError
            calls.append(args)
            return solve(*args)

        monkeypatch.setattr(_kernels, "cd_residual", positional)
        fit = fit_lasso(X, y, 0.1)
        assert len(calls) == 4 and 0 < fit.coefficients.any(axis=1).sum() < 4
        for m, args in enumerate(calls):
            assert len(args) == 11 and isinstance(args[10], _kernels.GramColumns)
            assert np.array_equal(args[0], X[m]) and np.array_equal(args[1], y[m])
            assert np.shares_memory(args[3], fit.coefficients[m]) and np.shares_memory(args[9], fit.gradient[m])


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


def _least_squares(X_S, y):
    """Least squares on a column subset as round two forms it: the inverse
    Gram times X_S'y."""
    return restricted_gram_inverse(X_S) @ restricted_xty(X_S, y)


class TestRestrictedOls:
    def test_identity_design(self):
        y = np.array([1.0, -2.0, 3.0])
        assert np.allclose(_least_squares(np.eye(3), y), y)

    def test_single_column_exact_fit(self, rng):
        x = rng.standard_normal(20)
        beta = _least_squares(x[:, None], 2.0 * x)
        assert beta[0] == pytest.approx(2.0)

    def test_matches_normal_equations(self, rng):
        X = rng.standard_normal((30, 5))
        y = rng.standard_normal(30)
        beta = _least_squares(X, y)
        assert np.abs(beta - normal_equations_ols(X, y)).max() <= 1e-8

    def test_residual_orthogonality(self, rng):
        X = rng.standard_normal((40, 6))
        y = rng.standard_normal(40)
        beta = _least_squares(X, y)
        lhs = np.abs(X.T @ (y - X @ beta)).max()
        assert lhs <= 1e-8 * np.abs(X.T @ y).max() + 1e-12

    def test_more_columns_than_rows_rejected(self, rng):
        with pytest.raises(ValueError, match="not full rank"):
            _least_squares(rng.standard_normal((3, 5)), rng.standard_normal(3))

    def test_rank_deficient_rejected(self, rng):
        x = rng.standard_normal(10)
        X = np.column_stack([x, x])
        with pytest.raises(ValueError, match="not full rank"):
            _least_squares(X, rng.standard_normal(10))


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
                beta = _least_squares(X, y)
                assert np.linalg.norm(beta - ref) <= 1e-10 * np.linalg.norm(ref)

    def test_is_the_inverse_gram(self, rng):
        X = rng.standard_normal((40, 6))
        inv = restricted_gram_inverse(X)
        assert inv.shape == (6, 6)
        assert np.allclose(inv, inv.T, rtol=0.0, atol=1e-15)
        assert np.abs(inv @ (X.T @ X) - np.eye(6)).max() <= 1e-12

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
        assert np.isfinite(_least_squares(X, np.ones(n))).all()
        X = Q * np.array([1.0, 1.0, 1.0, 0.5 * cutoff])
        assert np.linalg.lstsq(X, np.ones(n), rcond=None)[2] == k - 1
        with pytest.raises(ValueError, match="not full rank"):
            _least_squares(X, np.ones(n))

    def test_no_columns_give_an_empty_solution(self, rng):
        assert restricted_gram_inverse(rng.standard_normal((3, 5, 0))).shape == (3, 0, 0)
        assert restricted_xty(np.zeros((5, 0)), np.ones(5)).shape == (0,)
        assert _least_squares(np.zeros((5, 0)), np.ones(5)).shape == (0,)

    def test_one_singular_matrix_fails_the_stack(self, rng):
        Xs = rng.standard_normal((4, 10, 3))
        Xs[2, :, 1] = Xs[2, :, 0]
        with pytest.raises(ValueError, match="not full rank"):
            restricted_gram_inverse(Xs)
        restricted_gram_inverse(np.delete(Xs, 2, axis=0))
