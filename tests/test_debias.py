import math
import tracemalloc

import numpy as np
import pytest

import votelasso.debias as debias_module
from votelasso.datagen import ProblemSpec, sample_shards
from votelasso.debias import (
    SparseRows,
    block_diagonal,
    empirical_covariance,
    debias,
    estimate_precision,
    sandwich_diag,
    standardize,
)
from votelasso.lasso import KKT_TOL, fit_lasso, fit_lasso_gram, kkt_violation

from oracles import (
    _where_kkt_residual,
    dense_precision,
    dense_rows,
    fista_lasso,
    naive_covariance,
    naive_debias,
    sparse_rows,
)


def _orthonormal_design(rng, n, d):
    Q, _ = np.linalg.qr(rng.standard_normal((n, d)))
    return np.sqrt(n) * Q[:, :d]


def _nodewise_coefficients(est):
    """Row i: the nodewise lasso of column i on the others (d - 1 entries),
    read back as -tau_sq_i times the off-diagonal entries of row i."""
    omega = dense_rows(est.omega_hat)
    d = omega.shape[0]
    off = omega[~np.eye(d, dtype=bool)].reshape(d, d - 1)
    return -est.tau_sq[:, None] * off


def _round_one(X, y, lam, est, sigma):
    """One machine's round one from its own precision estimate:
    (theta_tilde, theta_hat, xi_hat), debiased with the fit's own gradient."""
    fit = fit_lasso(X, y, lam)
    theta_tilde = fit.coefficients
    theta_hat = debias(theta_tilde[None], fit.gradient[None], est.omega_hat)[0]
    c_diag = sandwich_diag(est.omega_hat, X)
    return theta_tilde, theta_hat, standardize(theta_hat, c_diag, sigma, X.shape[0])


def _debias_one(X, y, theta, omega):
    """``debias`` of one machine at any ``theta``, given its X'(y - X theta)/n."""
    return debias(theta[None], (X.T @ (y - X @ theta) / X.shape[0])[None], omega)[0]


class TestEmpiricalCovariance:
    def test_identity_two_samples(self):
        assert np.allclose(empirical_covariance(np.eye(2)), np.eye(2) / 2)

    def test_single_row_rank_one(self, rng):
        x = rng.standard_normal(4)
        S = empirical_covariance(x[None, :])
        assert np.allclose(S, np.outer(x, x))
        assert np.linalg.matrix_rank(S) == 1

    def test_matches_naive_oracle(self, rng):
        X = rng.standard_normal((7, 5))
        assert np.abs(empirical_covariance(X) - naive_covariance(X)).max() <= 1e-12

    def test_symmetric_psd(self, rng):
        X = rng.standard_normal((15, 6))
        S = empirical_covariance(X)
        assert np.allclose(S, S.T)
        assert np.linalg.eigvalsh(S)[0] >= -1e-12


class TestEstimatePrecision:
    def test_orthonormal_columns_give_diagonal(self, rng):
        n, d = 64, 6
        X = _orthonormal_design(rng, n, d)  # X'X/n = I to roundoff
        lam = 0.5  # above every cross moment, so all nodewise fits are zero
        est = estimate_precision(X, lam)
        assert np.count_nonzero(_nodewise_coefficients(est)) == 0
        # tau_i^2 = ||x_i||^2 / n
        assert np.allclose(est.tau_sq, 1.0, atol=1e-10)
        assert np.allclose(dense_rows(est.omega_hat), np.eye(d), atol=1e-9)

    def test_row_normalization_identity_under_n_scale(self, rng):
        # With the 1/n residual scale, (Omega_hat Sigma_hat)_ii = 1 exactly
        # by the nodewise KKT conditions.
        X = rng.standard_normal((50, 8))
        G = empirical_covariance(X)
        est = estimate_precision(X, 0.2)
        assert np.abs(np.diag(dense_rows(est.omega_hat) @ G) - 1.0).max() <= 1e-8

    def test_nodewise_fits_satisfy_kkt(self, rng):
        X = rng.standard_normal((40, 5))
        lam = 0.15
        gamma = _nodewise_coefficients(estimate_precision(X, lam))
        for i in range(5):
            others = [j for j in range(5) if j != i]
            viol = kkt_violation(X[:, others], X[:, i], lam, gamma[i])
            assert viol <= 1e-7

    def test_gamma_matches_direct_lasso(self, rng):
        X = rng.standard_normal((60, 8))
        lam = 0.1
        gamma = _nodewise_coefficients(estimate_precision(X, lam))
        for i in (0, 3, 7):
            others = [j for j in range(8) if j != i]
            direct = fit_lasso(X[:, others], X[:, i], lam)
            assert np.abs(gamma[i] - direct.coefficients).max() <= 1e-6

    def test_rows_match_fista_nodewise_fits(self):
        spec = ProblemSpec(d=60, K=2, M=1, n=100, r=0.8, base_seed=4)
        X = sample_shards(spec)[0]
        lam = 2.0 * math.sqrt(math.log(60) / 100)
        gamma = _nodewise_coefficients(estimate_precision(X, lam))
        assert np.count_nonzero(gamma) > 60  # the nodewise fits are not trivial
        for i in range(60):
            expected = fista_lasso(np.delete(X, i, axis=1), X[:, i], lam, iters=3000, tol=0.0)
            assert np.abs(gamma[i] - expected).max() <= 1e-7

    # Each id ends in the residual scale of tau_i^2, the 1/n one.
    @pytest.mark.parametrize("seed", range(24), ids=lambda seed: f"{seed}-n")
    def test_rows_match_per_column_reference(self, seed):
        # The lockstep solve and the per-column path stop at the same
        # tolerances from different starts, so they agree to about COEF_TOL,
        # not bit for bit. The reference runs to coef_tol 1e-13, so the
        # entries must hold the lockstep solve's own error.
        spec = ProblemSpec(d=120, K=2, M=1, n=80, r=0.8, base_seed=seed)
        X = sample_shards(spec)[0]
        lam = math.sqrt(math.log(120) / 80)
        est = estimate_precision(X, lam)
        got = dense_rows(est.omega_hat)
        omega, tau_sq = dense_precision(X, lam, coef_tol=1e-13)
        assert np.count_nonzero(omega) > 2 * 120  # rows beyond the diagonal
        assert np.array_equal(got != 0, omega != 0)
        assert np.abs(got - omega).max() <= 1e-9 * np.abs(omega).max()
        assert np.abs(est.tau_sq / tau_sq - 1.0).max() <= 1e-9
        # The same supports as the per-column path at the solver's tolerance.
        assert np.array_equal(got != 0, dense_precision(X, lam)[0] != 0)

    def test_chunks_need_not_divide_d(self, monkeypatch):
        spec = ProblemSpec(d=30, K=2, M=1, n=40, r=0.8, base_seed=5)
        X = sample_shards(spec)[0]
        whole = estimate_precision(X, 0.2).omega_hat
        calls = []
        fit = debias_module.fit_lasso_gram

        def recording(G, C, lam, **kwargs):
            calls.append(kwargs["skip"].tolist())
            return fit(G, C, lam, **kwargs)

        monkeypatch.setattr(debias_module, "NODEWISE_CHUNK_ENTRIES", 7 * 30)
        monkeypatch.setattr(debias_module, "fit_lasso_gram", recording)
        chunked = estimate_precision(X, 0.2).omega_hat
        assert [len(rows) for rows in calls] == [7, 7, 7, 7, 2]
        assert sum(calls, []) == list(range(30))
        assert (whole != 0).sum() > 2 * 30
        assert np.array_equal(chunked.indptr, whole.indptr)
        assert np.array_equal(chunked.indices, whole.indices)
        assert np.abs(chunked.data - whole.data).max() <= 1e-12 * np.abs(whole.data).max()

    def test_lambda_above_every_cross_moment_gives_diagonal_rows(self, rng):
        X = rng.standard_normal((50, 9))
        X[:, 1:] += 0.4 * X[:, :-1]
        G = empirical_covariance(X)
        lam = 1.01 * np.abs(G - np.diag(np.diag(G))).max()
        est = estimate_precision(X, lam)
        rows = est.omega_hat
        assert np.array_equal(rows.indptr, np.arange(10))
        assert np.array_equal(rows.indices, np.arange(9))
        assert np.array_equal(est.tau_sq, np.diag(G))
        assert np.array_equal(rows.data, 1.0 / np.diag(G))
        # One sweep over an empty working set per row, and zero is optimal.
        assert est.nodewise_sweeps == 9 and est.nodewise_kkt == 0.0

    def test_forms_no_second_dense_matrix(self):
        # The lockstep solve works in chunks of rows: besides its Gram matrix
        # it never holds a d x d array (200 MB at paper scale), so everything
        # else it allocates at once takes less than one Gram matrix.
        d, n = 1500, 100
        X = sample_shards(ProblemSpec(d=d, K=2, M=1, n=n, r=0.8, base_seed=1))[0]
        G = empirical_covariance(X)
        tracemalloc.start()
        try:
            est = estimate_precision(X, 2.0 * math.sqrt(math.log(d) / n))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (est.omega_hat != 0).sum() > 1.5 * d  # rows beyond the diagonal
        assert peak - G.nbytes < G.nbytes

    def test_records_the_nodewise_certificate(self):
        spec = ProblemSpec(d=60, K=2, M=1, n=50, r=0.8, base_seed=8)
        est = estimate_precision(sample_shards(spec)[0], 0.15)
        assert 0.0 < est.nodewise_kkt <= KKT_TOL
        assert est.nodewise_sweeps > 2 * 60  # most rows take several sweeps

    def test_unconverged_nodewise_fit_raises(self, monkeypatch):
        spec = ProblemSpec(d=40, K=2, M=1, n=50, r=0.8, base_seed=3)
        X = sample_shards(spec)[0]
        lam = 0.1
        G = empirical_covariance(X)
        W, U, _, _, _ = fit_lasso_gram(G, G.copy(), lam, skip=np.arange(40), max_sweeps=1)
        res = [_where_kkt_residual(G[i] - U[i], W[i], lam, i) for i in range(40)]
        first = next(i for i in range(40) if res[i] > KKT_TOL)

        def one_sweep(G, C, lam, **kwargs):
            return fit_lasso_gram(G, C, lam, max_sweeps=1, **kwargs)

        monkeypatch.setattr(debias_module, "fit_lasso_gram", one_sweep)
        with pytest.raises(ValueError, match=rf"did not converge at column {first} \("):
            estimate_precision(X, lam)

    def test_rows_store_sorted_nonzeros_only(self):
        spec = ProblemSpec(d=90, K=2, M=1, n=60, r=0.8, base_seed=2)
        X = sample_shards(spec)[0]
        rows = estimate_precision(X, 0.15).omega_hat
        assert rows.indptr[0] == 0 and rows.indptr[-1] == rows.data.size == rows.indices.size
        assert (rows.data != 0).all()
        assert (rows != 0).sum() == np.count_nonzero(dense_rows(rows))
        assert rows.nbytes == rows.indptr.nbytes + rows.indices.nbytes + rows.data.nbytes
        for i in range(90):
            cols = rows.indices[rows.indptr[i] : rows.indptr[i + 1]].astype(np.int64)
            assert (np.diff(cols) > 0).all()
            assert i in cols  # the diagonal 1 / tau_i^2 is always stored

    def test_empty_row_rejected(self):
        # A row without entries would break the row-wise products.
        with pytest.raises(ValueError, match="at least one entry"):
            SparseRows(indptr=np.array([0, 1, 1]), indices=np.array([0]), data=np.array([1.0]))

    def test_duplicate_columns_degenerate(self, rng):
        # An exact copy column drives the nodewise residual to zero; with a
        # vanishing penalty tau^2 collapses below machine epsilon.
        x = rng.standard_normal(30)
        X = np.column_stack([x, x, rng.standard_normal(30)])
        with pytest.raises(ValueError, match="degenerate nodewise residual"):
            estimate_precision(X, 1e-300)

    def test_copied_column_in_a_later_chunk_is_named(self, rng, monkeypatch):
        X = rng.standard_normal((40, 12))
        X[:, 10] = X[:, 9]
        monkeypatch.setattr(debias_module, "NODEWISE_CHUNK_ENTRIES", 4 * 12)
        with pytest.raises(ValueError, match="degenerate nodewise residual at column 9$"):
            estimate_precision(X, 1e-300)

    def test_rejects_bad_args(self, rng):
        X = rng.standard_normal((10, 3))
        with pytest.raises(ValueError):
            estimate_precision(X, 0.0)
        for lam in (math.nan, math.inf):
            with pytest.raises(ValueError, match="lambda_omega must be finite and positive"):
                estimate_precision(X, lam)
        with pytest.raises(ValueError):
            estimate_precision(rng.standard_normal((10, 1)), 0.1)


class TestDebias:
    def test_zero_residual_is_identity(self, rng):
        X = rng.standard_normal((20, 4))
        theta = rng.standard_normal(4)
        y = X @ theta
        out = _debias_one(X, y, theta, sparse_rows(rng.standard_normal((4, 4))))
        assert np.allclose(out, theta)

    def test_exact_inverse_recovers_ols(self, rng):
        # With Omega = (X'X/n)^-1 the correction lands on OLS for any start.
        n, d = 50, 6
        X = rng.standard_normal((n, d))
        y = rng.standard_normal(n)
        omega = sparse_rows(np.linalg.inv(empirical_covariance(X)))
        ols = np.linalg.lstsq(X, y, rcond=None)[0]
        for theta0 in (np.zeros(d), rng.standard_normal(d)):
            assert np.abs(_debias_one(X, y, theta0, omega) - ols).max() <= 1e-8

    def test_matches_naive_oracle(self, rng):
        X = rng.standard_normal((9, 4))
        y = rng.standard_normal(9)
        theta = rng.standard_normal(4)
        omega = rng.standard_normal((4, 4))
        out = _debias_one(X, y, theta, sparse_rows(omega))
        assert np.abs(out - naive_debias(X, y, theta, omega)).max() <= 1e-12

    def test_stacked_rows_equal_single_machine_calls(self, rng):
        # Every row must equal its machine's own call bit for bit.
        M, d = 5, 12
        theta = rng.standard_normal((M, d))
        grad = rng.standard_normal((M, d))
        omegas = [sparse_rows(rng.standard_normal((d, d)) * (rng.random((d, d)) < 0.3)
                              + np.eye(d)) for _ in range(M)]
        out = debias(theta, grad, block_diagonal(omegas))
        for m in range(M):
            alone = debias(theta[m][None], grad[m][None], omegas[m])[0]
            assert out[m].tobytes() == alone.tobytes()

    def test_matches_dense_matvec_on_nodewise_rows(self):
        spec = ProblemSpec(d=100, K=2, M=1, n=70, r=0.8, base_seed=9)
        X = sample_shards(spec)[0]
        rng = np.random.default_rng(3)
        y = rng.standard_normal(70)
        est = estimate_precision(X, 0.2)
        omega = dense_rows(est.omega_hat)
        for theta in (np.zeros(100), rng.standard_normal(100)):
            dense = theta + omega @ (X.T @ (y - X @ theta)) / 70
            assert np.abs(_debias_one(X, y, theta, est.omega_hat) - dense).max() <= 1e-12


class TestBlockDiagonal:
    def test_matvec_equals_each_blocks_own(self, rng):
        # Rows of 1 to 40 entries, so long rows take NumPy's pairwise sum.
        d, omegas = 40, []
        for _ in range(4):
            dense = rng.standard_normal((d, d)) * (rng.random((d, d)) < rng.random((d, 1)))
            omegas.append(sparse_rows(dense + np.diag(rng.uniform(1, 2, d))))
        block = block_diagonal(omegas)
        v = rng.standard_normal((4, d))
        out = block.matvec(v.ravel()).reshape(4, d)
        for m in range(4):
            assert out[m].tobytes() == omegas[m].matvec(v[m]).tobytes()
        expected = np.zeros((4 * d, 4 * d))
        for m, omega in enumerate(omegas):
            expected[m * d : (m + 1) * d, m * d : (m + 1) * d] = dense_rows(omega)
        assert np.array_equal(dense_rows(block), expected)

    def test_narrow_index_types_are_widened(self):
        # estimate_precision stores uint8 indices at d <= 256; the block's
        # column offsets reach M d.
        spec = ProblemSpec(d=200, K=2, M=3, n=60, r=0.8, base_seed=4)
        omegas = [estimate_precision(X, 0.3).omega_hat for X in sample_shards(spec)]
        assert omegas[0].indices.dtype == np.uint8
        block = block_diagonal(omegas)
        assert block.indices.max() >= 2 * 200 and block.indptr[-1] == sum(o.data.size for o in omegas)


class TestStandardize:
    def test_identity_sandwich(self, rng):
        X = _orthonormal_design(rng, 100, 4)  # X'X/n = I to roundoff
        c = sandwich_diag(sparse_rows(np.eye(4)), X)
        assert np.allclose(c, 1.0)
        xi = standardize(np.full(4, 0.3), c, sigma=1.0, n=100)
        assert np.allclose(xi, 3.0)

    def test_plugged_values(self):
        # sqrt(100) * 1 / (2 * sqrt(4)) = 2.5
        xi = standardize(np.array([1.0]), np.array([4.0]), sigma=2.0, n=100)
        assert xi[0] == pytest.approx(2.5)

    def test_zero_estimate(self, rng):
        X = rng.standard_normal((30, 3))
        c = sandwich_diag(sparse_rows(np.eye(3)), X)
        assert np.array_equal(standardize(np.zeros(3), c, 1.0, 30), np.zeros(3))

    def test_scaling_identity(self, rng):
        # xi_k * sigma * sqrt(c_kk) == sqrt(n) * theta_k
        theta = rng.standard_normal(5)
        c_diag = rng.uniform(0.5, 2.0, 5)
        xi = standardize(theta, c_diag, sigma=1.3, n=77)
        assert np.allclose(xi * 1.3 * np.sqrt(c_diag), math.sqrt(77) * theta, rtol=1e-10)

    def test_nonpositive_diagonal_rejected(self):
        with pytest.raises(ValueError, match="invalid sandwich variance"):
            standardize(np.ones(2), np.array([1.0, 0.0]), 1.0, 10)

    @pytest.mark.parametrize("sigma", [float("nan"), float("inf"), 0.0, -1.0])
    def test_noise_level_outside_zero_to_inf_rejected(self, sigma):
        # A NaN sigma made every xi NaN and an infinite one every xi 0.
        with pytest.raises(ValueError, match="sigma must be positive and finite"):
            standardize(np.ones(2), np.array([1.0, 2.0]), sigma, 10)

    @pytest.mark.parametrize("bad", [float("inf"), float("nan"), -1.0])
    def test_non_finite_diagonal_rejected(self, bad):
        # An infinite c_kk made xi_k 0, so coordinate k was never voted for.
        c_diag = np.ones((3, 4))
        c_diag[2, 1] = bad
        with pytest.raises(ValueError, match="invalid sandwich variance"):
            standardize(np.ones((3, 4)), c_diag, 1.0, 10)

    def test_sandwich_positive_for_valid_inputs(self, rng):
        X = rng.standard_normal((40, 6))
        est = estimate_precision(X, 0.2)
        assert sandwich_diag(est.omega_hat, X).min() > 0

    @pytest.mark.parametrize("d, n, seed", [(60, 40, 1), (150, 100, 4), (200, 250, 7)])
    def test_sandwich_matches_dense_product(self, d, n, seed):
        spec = ProblemSpec(d=d, K=2, M=1, n=n, r=0.8, base_seed=seed)
        X = sample_shards(spec)[0]
        est = estimate_precision(X, 2.0 * math.sqrt(math.log(d) / n))
        omega = dense_rows(est.omega_hat)
        G = empirical_covariance(X)
        dense = np.einsum("ij,ij->i", omega @ G, omega)
        assert np.abs(sandwich_diag(est.omega_hat, X) / dense - 1.0).max() <= 1e-12


class TestLocalFit:
    """One machine's round one: lasso, debiasing and standardization."""

    def _shard(self, rng, n=80, d=10, sigma=1e-6, theta=None):
        spec = ProblemSpec(d=d, K=2, M=1, n=n, r=0.5, base_seed=3)
        X = sample_shards(spec)[0]
        if theta is None:
            theta = np.zeros(d)
            theta[[2, 7]] = [1.5, -2.0]
        y = X @ theta + sigma * rng.standard_normal(n)
        return X, y, theta

    def test_noiseless_signs_recovered(self, rng):
        X, y, theta = self._shard(rng)
        est = estimate_precision(X, 0.2)
        _, _, xi = _round_one(X, y, 0.05, est, sigma=1e-6)
        support = np.flatnonzero(theta)
        assert np.array_equal(np.sign(xi[support]), np.sign(theta[support]))

    def test_null_coordinates_standard_gaussian_rate(self):
        # theta* = 0: the fraction of |xi| above 1.96 should sit near 5%.
        n, d, reps = 200, 50, 120
        spec = ProblemSpec(d=d, K=1, M=1, n=n, r=0.5, base_seed=11)
        X = sample_shards(spec)[0]
        lam_omega = 2.0 * math.sqrt(math.log(d) / n)
        lam = math.sqrt(2.0 * math.log(d) / n)
        est = estimate_precision(X, lam_omega)
        rng = np.random.default_rng(5)
        hits = 0
        for _ in range(reps):
            _, _, xi = _round_one(X, rng.standard_normal(n), lam, est, sigma=1.0)
            hits += int(np.count_nonzero(np.abs(xi) > 1.96))
        frac = hits / (reps * d)
        assert 0.03 <= frac <= 0.07
