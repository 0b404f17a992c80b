import math

import numpy as np
import pytest

from votelasso.datagen import DataShard, ProblemSpec, sample_shards
from votelasso.debias import (
    empirical_covariance,
    debias,
    estimate_precision,
    local_fit,
    sandwich_diag,
    standardize,
)
from votelasso.lasso import fit_lasso, kkt_violation

from oracles import fista_lasso, naive_covariance, naive_debias


def _orthonormal_design(rng, n, d):
    Q, _ = np.linalg.qr(rng.standard_normal((n, d)))
    return np.sqrt(n) * Q[:, :d]


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
        est_2n = estimate_precision(X, lam, residual_scale="2n")
        assert np.count_nonzero(est_2n.gamma) == 0
        # tau_i^2 = ||x_i||^2 / (2n) with the printed 1/(2n) factor
        assert np.allclose(est_2n.tau_sq, 0.5, atol=1e-10)
        assert np.allclose(est_2n.omega_hat, 2.0 * np.eye(d), atol=1e-9)
        est_n = estimate_precision(X, lam, residual_scale="n")
        assert np.allclose(est_n.omega_hat, np.eye(d), atol=1e-9)

    def test_row_normalization_identity_under_n_scale(self, rng):
        # With the 1/n residual scale, (Omega_hat Sigma_hat)_ii = 1 exactly
        # by the nodewise KKT conditions.
        X = rng.standard_normal((50, 8))
        G = empirical_covariance(X)
        est = estimate_precision(X, 0.2, residual_scale="n")
        assert np.abs(np.diag(est.omega_hat @ G) - 1.0).max() <= 1e-8

    def test_nodewise_fits_satisfy_kkt(self, rng):
        X = rng.standard_normal((40, 5))
        lam = 0.15
        est = estimate_precision(X, lam)
        for i in range(5):
            others = [j for j in range(5) if j != i]
            viol = kkt_violation(X[:, others], X[:, i], lam, est.gamma[i])
            assert viol <= 1e-7

    def test_gamma_matches_direct_lasso(self, rng):
        X = rng.standard_normal((60, 8))
        lam = 0.1
        est = estimate_precision(X, lam)
        for i in (0, 3, 7):
            others = [j for j in range(8) if j != i]
            direct = fit_lasso(X[:, others], X[:, i], lam)
            assert np.abs(est.gamma[i] - direct.coefficients).max() <= 1e-6

    def test_rows_match_fista_nodewise_fits(self):
        spec = ProblemSpec(d=60, K=2, M=1, n=100, r=0.8, base_seed=4)
        X = sample_shards(spec)[0].X
        lam = 2.0 * math.sqrt(math.log(60) / 100)
        est = estimate_precision(X, lam)
        assert np.count_nonzero(est.gamma) > 60  # the nodewise fits are not trivial
        for i in range(60):
            expected = fista_lasso(np.delete(X, i, axis=1), X[:, i], lam, iters=3000, tol=0.0)
            assert np.abs(est.gamma[i] - expected).max() <= 1e-7

    def test_duplicate_columns_degenerate(self, rng):
        # An exact copy column drives the nodewise residual to zero; with a
        # vanishing penalty tau^2 collapses below machine epsilon.
        x = rng.standard_normal(30)
        X = np.column_stack([x, x, rng.standard_normal(30)])
        with pytest.raises(ValueError, match="degenerate nodewise residual"):
            estimate_precision(X, 1e-300)

    def test_rejects_bad_args(self, rng):
        X = rng.standard_normal((10, 3))
        with pytest.raises(ValueError):
            estimate_precision(X, 0.0)
        with pytest.raises(ValueError):
            estimate_precision(X, 0.1, residual_scale="3n")
        with pytest.raises(ValueError):
            estimate_precision(rng.standard_normal((10, 1)), 0.1)


class TestDebias:
    def test_zero_residual_is_identity(self, rng):
        X = rng.standard_normal((20, 4))
        theta = rng.standard_normal(4)
        y = X @ theta
        out = debias(X, y, theta, rng.standard_normal((4, 4)))
        assert np.allclose(out, theta)

    def test_exact_inverse_recovers_ols(self, rng):
        # With Omega = (X'X/n)^-1 the correction lands on OLS for any start.
        n, d = 50, 6
        X = rng.standard_normal((n, d))
        y = rng.standard_normal(n)
        omega = np.linalg.inv(empirical_covariance(X))
        ols = np.linalg.lstsq(X, y, rcond=None)[0]
        for theta0 in (np.zeros(d), rng.standard_normal(d)):
            assert np.abs(debias(X, y, theta0, omega) - ols).max() <= 1e-8

    def test_matches_naive_oracle(self, rng):
        X = rng.standard_normal((9, 4))
        y = rng.standard_normal(9)
        theta = rng.standard_normal(4)
        omega = rng.standard_normal((4, 4))
        assert np.abs(debias(X, y, theta, omega) - naive_debias(X, y, theta, omega)).max() <= 1e-12


class TestStandardize:
    def test_identity_sandwich(self):
        theta = np.full(4, 0.3)
        xi, c = standardize(theta, np.eye(4), np.eye(4), sigma=1.0, n=100)
        assert np.allclose(xi, 3.0)
        assert np.allclose(c, 1.0)

    def test_plugged_values(self):
        # sqrt(100) * 1 / (2 * sqrt(4)) = 2.5
        xi, _ = standardize(np.array([1.0]), None, None, sigma=2.0, n=100, c_diag=np.array([4.0]))
        assert xi[0] == pytest.approx(2.5)

    def test_zero_estimate(self, rng):
        X = rng.standard_normal((30, 3))
        G = empirical_covariance(X)
        xi, _ = standardize(np.zeros(3), np.eye(3), G, 1.0, 30)
        assert np.array_equal(xi, np.zeros(3))

    def test_scaling_identity(self, rng):
        # xi_k * sigma * sqrt(c_kk) == sqrt(n) * theta_k
        theta = rng.standard_normal(5)
        c_diag = rng.uniform(0.5, 2.0, 5)
        xi, c = standardize(theta, None, None, sigma=1.3, n=77, c_diag=c_diag)
        assert np.allclose(xi * 1.3 * np.sqrt(c), math.sqrt(77) * theta, rtol=1e-10)

    def test_nonpositive_diagonal_rejected(self):
        with pytest.raises(ValueError, match="invalid sandwich variance"):
            standardize(np.ones(2), None, None, 1.0, 10, c_diag=np.array([1.0, 0.0]))

    def test_sandwich_positive_for_valid_inputs(self, rng):
        X = rng.standard_normal((40, 6))
        G = empirical_covariance(X)
        est = estimate_precision(X, 0.2)
        assert sandwich_diag(est.omega_hat, G).min() > 0


class TestLocalFit:
    def _shard(self, rng, n=80, d=10, sigma=1e-6, theta=None):
        spec = ProblemSpec(d=d, K=2, M=1, n=n, r=0.5, base_seed=3)
        shard = sample_shards(spec)[0]
        if theta is None:
            theta = np.zeros(d)
            theta[[2, 7]] = [1.5, -2.0]
        y = shard.X @ theta + sigma * rng.standard_normal(n)
        return DataShard(machine_id=0, X=shard.X, y=y), theta

    def test_noiseless_signs_recovered(self, rng):
        shard, theta = self._shard(rng)
        fit = local_fit(shard, lam=0.05, lambda_omega=0.2, sigma=1e-6)
        support = np.flatnonzero(theta)
        assert np.array_equal(np.sign(fit.xi_hat[support]), np.sign(theta[support]))

    def test_precomputed_precision_is_transparent(self, rng):
        shard, _ = self._shard(rng, sigma=0.5)
        est = estimate_precision(shard.X, 0.2)
        inline = local_fit(shard, 0.1, 0.2, sigma=0.5)
        cached = local_fit(shard, 0.1, 0.2, sigma=0.5, precision=est)
        assert np.array_equal(inline.xi_hat, cached.xi_hat)
        assert np.array_equal(inline.theta_hat, cached.theta_hat)

    def test_null_coordinates_standard_gaussian_rate(self):
        # theta* = 0: the fraction of |xi| above 1.96 should sit near 5%.
        n, d, reps = 200, 50, 120
        spec = ProblemSpec(d=d, K=1, M=1, n=n, r=0.5, base_seed=11)
        shard = sample_shards(spec)[0]
        lam_omega = 2.0 * math.sqrt(math.log(d) / n)
        lam = math.sqrt(2.0 * math.log(d) / n)
        est = estimate_precision(shard.X, lam_omega)
        G = empirical_covariance(shard.X)
        c_diag = sandwich_diag(est.omega_hat, G)
        rng = np.random.default_rng(5)
        hits = 0
        for _ in range(reps):
            y = rng.standard_normal(n)
            s = DataShard(machine_id=0, X=shard.X, y=y)
            fit = local_fit(s, lam, lam_omega, sigma=1.0, precision=est, covariance=G, c_diag=c_diag)
            hits += int(np.count_nonzero(np.abs(fit.xi_hat) > 1.96))
        frac = hits / (reps * d)
        assert 0.03 <= frac <= 0.07

    def test_requires_response(self, rng):
        spec = ProblemSpec(d=5, K=1, M=1, n=10, r=0.5, base_seed=1)
        shard = sample_shards(spec)[0]
        with pytest.raises(ValueError, match="no response"):
            local_fit(shard, 0.1, 0.1, sigma=1.0)
