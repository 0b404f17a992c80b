"""Per-machine statistical engine: nodewise precision estimation, the
debiased lasso, and its standardized (unit-variance) form.

The precision matrix is built column by column: regress each design column
on all the others with an l1 penalty, normalize by the penalized residual
scale tau_i^2, and assemble rows of Omega_hat. All d nodewise problems share
one Gram matrix, so the whole estimate costs one X'X plus d active-set
coordinate-descent solves. Each solve touches only the few columns of its
working set, because the nodewise rows are very sparse.

For the residual scale two conventions are supported:

* ``"n"`` (default): tau_i^2 = ||x_i - X_{-i} g_i||^2 / n + lam * ||g_i||_1.
  At the l1 optimum this equals x_i'(x_i - X_{-i} g_i)/n, which makes
  (Omega_hat Sigma_hat)_ii = 1 exactly and is what the debiasing step
  requires to cancel the lasso bias.
* ``"2n"``: the same with a (2n)^-1 factor on the residual term. Kept as a
  configuration switch; it rescales Omega_hat rows (towards 2x in the
  orthonormal limit) and is not suitable for confidence intervals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .datagen import DataShard
from .lasso import KKT_TOL, MAX_SWEEPS, fit_lasso, fit_lasso_gram

RESIDUAL_SCALES = ("n", "2n")


@dataclass
class PrecisionEstimate:
    """Nodewise-regression precision matrix estimate.

    ``gamma`` holds the d nodewise coefficient rows (row i has d-1 entries,
    the regression of column i on all others); row i of ``omega_hat`` is
    (1, -gamma_i) / tau_sq_i placed on the appropriate columns.
    """

    omega_hat: np.ndarray
    tau_sq: np.ndarray
    gamma: np.ndarray
    lambda_omega: float
    residual_scale: str = "n"


@dataclass
class LocalFit:
    """Everything one machine computes from its shard in round one."""

    machine_id: int
    theta_tilde: np.ndarray
    theta_hat: np.ndarray
    sigma_hat_sq_diag: np.ndarray
    xi_hat: np.ndarray
    lasso_converged: bool = True
    lasso_sweeps: int = 0
    lasso_kkt: float = 0.0


def empirical_covariance(X: np.ndarray) -> np.ndarray:
    """X'X / n."""
    X = np.asarray(X, dtype=np.float64)
    n = X.shape[0]
    return X.T @ X / n


def estimate_precision(
    X: np.ndarray,
    lambda_omega: float,
    residual_scale: str = "n",
    gram: np.ndarray | None = None,
) -> PrecisionEstimate:
    """Fit the d nodewise lassos and assemble Omega_hat.

    Raises if any penalized residual scale tau_i^2 is not strictly positive
    (collinear columns or lambda_omega too small).
    """
    X = np.asarray(X, dtype=np.float64)
    if lambda_omega <= 0:
        raise ValueError("lambda_omega must be positive")
    if residual_scale not in RESIDUAL_SCALES:
        raise ValueError(f"residual_scale must be one of {RESIDUAL_SCALES}")
    d = X.shape[1]
    if d < 2:
        raise ValueError("need at least two columns")
    G = empirical_covariance(X) if gram is None else gram
    tau_sq = np.empty(d)
    gamma = np.empty((d, d - 1))
    omega = np.zeros((d, d))
    keep = np.ones(d, dtype=bool)
    w = np.zeros(d)
    for i in range(d):
        c = np.ascontiguousarray(G[i])
        # Warm start from the previous column's solution.
        w, u, _, _, _ = fit_lasso_gram(G, c, lambda_omega, warm_start=w, skip=i)
        rss_n = G[i, i] - 2.0 * (c @ w) + w @ u
        l1 = np.abs(w).sum()
        if residual_scale == "2n":
            tau2 = 0.5 * rss_n + lambda_omega * l1
        else:
            tau2 = rss_n + lambda_omega * l1
        if not tau2 > np.finfo(np.float64).eps:
            raise ValueError(f"degenerate nodewise residual at column {i}")
        tau_sq[i] = tau2
        keep[i] = False
        gamma[i] = w[keep]
        keep[i] = True
        omega[i] = -w / tau2
        omega[i, i] = 1.0 / tau2
    return PrecisionEstimate(
        omega_hat=omega,
        tau_sq=tau_sq,
        gamma=gamma,
        lambda_omega=float(lambda_omega),
        residual_scale=residual_scale,
    )


def sandwich_diag(omega: np.ndarray, sigma_hat: np.ndarray) -> np.ndarray:
    """Diagonal of Omega_hat Sigma_hat Omega_hat'."""
    return np.einsum("ij,ij->i", omega @ sigma_hat, omega)


def debias(X: np.ndarray, y: np.ndarray, theta_tilde: np.ndarray, omega: np.ndarray) -> np.ndarray:
    """One-step correction: theta_tilde + Omega_hat X'(y - X theta_tilde)/n."""
    X = np.asarray(X, dtype=np.float64)
    n = X.shape[0]
    resid = y - X @ theta_tilde
    return theta_tilde + omega @ (X.T @ resid) / n


def standardize(
    theta_hat: np.ndarray,
    omega: np.ndarray,
    sigma_hat: np.ndarray,
    sigma: float,
    n: int,
    c_diag: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Scale each debiased coordinate to unit noise variance:
    xi_k = sqrt(n) theta_hat_k / (sigma * sqrt((Omega Sigma Omega')_kk)).

    Returns (xi_hat, c_diag). Pass a precomputed ``c_diag`` to skip the
    sandwich product (it is fixed whenever the design is fixed).
    """
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    if c_diag is None:
        c_diag = sandwich_diag(omega, sigma_hat)
    c_diag = np.asarray(c_diag, dtype=np.float64)
    if not (c_diag > 0).all():
        raise ValueError("invalid sandwich variance: nonpositive diagonal")
    xi = math.sqrt(n) * theta_hat / (sigma * np.sqrt(c_diag))
    return xi, c_diag


def local_fit(
    shard: DataShard,
    lam: float,
    lambda_omega: float,
    sigma: float,
    precision: PrecisionEstimate | None = None,
    covariance: np.ndarray | None = None,
    c_diag: np.ndarray | None = None,
    residual_scale: str = "n",
    max_sweeps: int = MAX_SWEEPS,
) -> LocalFit:
    """Run one machine's full round-one computation on its shard.

    ``precision`` (and optionally ``covariance`` / ``c_diag``) may be
    supplied to reuse decorrelation matrices fitted earlier, e.g. on a
    larger sample from the same design; the output is then identical to
    passing the same matrices inline.
    """
    if shard.y is None:
        raise ValueError("shard has no response vector")
    X, y = shard.X, shard.y
    n = X.shape[0]
    G = empirical_covariance(X) if covariance is None else covariance
    if precision is None:
        precision = estimate_precision(X, lambda_omega, residual_scale=residual_scale, gram=G)
    fit = fit_lasso(X, y, lam, max_sweeps=max_sweeps)
    theta_hat = debias(X, y, fit.coefficients, precision.omega_hat)
    xi, c_diag = standardize(theta_hat, precision.omega_hat, G, sigma, n, c_diag=c_diag)
    return LocalFit(
        machine_id=shard.machine_id,
        theta_tilde=fit.coefficients,
        theta_hat=theta_hat,
        sigma_hat_sq_diag=c_diag,
        xi_hat=xi,
        lasso_converged=fit.converged,
        lasso_sweeps=fit.iterations,
        lasso_kkt=fit.max_kkt_violation,
    )
