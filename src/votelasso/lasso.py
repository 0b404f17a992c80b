"""Lasso solver and least-squares helpers used by every machine.

The solver is active-set coordinate descent (``_kernels``): each outer
pass checks the KKT conditions of every coordinate with one vectorized
gradient, then runs cyclic coordinate descent over the nonzero coordinates
plus the violators only. ``fit_lasso`` forms the working-set block of
X'X/n from the design columns it needs; ``fit_lasso_gram`` reads it from
a cached Gram matrix. Convergence requires both a small coefficient change
and a small KKT residual over all coordinates, so a converged fit carries
an optimality certificate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels

KKT_TOL = 1e-7
COEF_TOL = 1e-9
MAX_SWEEPS = 100_000


@dataclass
class LassoFit:
    """Solution of (1/2n)||y - X theta||^2 + lam * ||theta||_1."""

    coefficients: np.ndarray
    lam: float
    iterations: int
    max_kkt_violation: float
    converged: bool


def fit_lasso(
    X: np.ndarray,
    y: np.ndarray,
    lam: float,
    warm_start: np.ndarray | None = None,
    max_sweeps: int = MAX_SWEEPS,
    kkt_tol: float = KKT_TOL,
) -> LassoFit:
    """Solve the lasso by active-set coordinate descent.

    Returns a LassoFit whose ``max_kkt_violation`` is recomputed from
    scratch at the solution; ``converged`` is True only when that residual
    is within ``kkt_tol``. Non-convergence within ``max_sweeps`` is reported,
    not raised.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if lam <= 0:
        raise ValueError("lam must be positive")
    if not (np.isfinite(X).all() and np.isfinite(y).all()):
        raise ValueError("NaN or inf in lasso inputs")
    n, d = X.shape
    if y.shape != (n,):
        raise ValueError("X and y have inconsistent shapes")
    w = np.zeros(d) if warm_start is None else np.array(warm_start, dtype=np.float64)
    if w.shape != (d,):
        raise ValueError("warm_start has wrong length")
    sweeps, _, converged = _kernels.cd_residual(
        X, y, float(lam), w, int(max_sweeps), COEF_TOL, kkt_tol
    )
    viol = kkt_violation(X, y, lam, w)
    return LassoFit(
        coefficients=w,
        lam=float(lam),
        iterations=int(sweeps),
        max_kkt_violation=float(viol),
        converged=bool(converged and viol <= kkt_tol),
    )


def lasso_objective(X: np.ndarray, y: np.ndarray, lam: float, theta: np.ndarray) -> float:
    """(1/2n)||y - X theta||^2 + lam * ||theta||_1."""
    n = X.shape[0]
    r = y - X @ theta
    return float((r @ r) / (2 * n) + lam * np.abs(theta).sum())


def kkt_violation(X: np.ndarray, y: np.ndarray, lam: float, theta: np.ndarray) -> float:
    """Max KKT residual of the lasso objective at ``theta``.

    For active coordinates this is |x_j'(y - X theta)/n - lam*sign(theta_j)|;
    for inactive ones, max(|x_j'(y - X theta)/n| - lam, 0).
    """
    X = np.asarray(X, dtype=np.float64)
    theta = np.asarray(theta, dtype=np.float64)
    n = X.shape[0]
    return _kernels.kkt_residual(X.T @ (y - X @ theta) / n, theta, lam)


def fit_lasso_gram(
    G: np.ndarray,
    c: np.ndarray,
    lam: float,
    warm_start: np.ndarray | None = None,
    skip: int = -1,
    max_sweeps: int = MAX_SWEEPS,
    kkt_tol: float = KKT_TOL,
) -> tuple[np.ndarray, np.ndarray, int, float, bool]:
    """Gram-form variant sharing the CD solver: G = X'X/n, c = X'y/n.

    Used where many fits share one design (nodewise regressions, fixed-design
    replications). ``skip`` holds one coordinate at zero. Returns
    (theta, u, sweeps, kkt, converged) with u = G @ theta.
    """
    d = G.shape[0]
    w = np.zeros(d) if warm_start is None else np.array(warm_start, dtype=np.float64)
    u, sweeps, kkt, converged = _kernels.cd_gram(
        G, c, float(lam), w, int(skip), int(max_sweeps), COEF_TOL, kkt_tol
    )
    return w, u, int(sweeps), float(kkt), bool(converged)


def restricted_ols(X_S: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Least squares on a column subset, solved by orthogonal factorization.

    Requires n >= k and full column rank; raises otherwise. The returned
    residual is orthogonal to the columns of X_S up to roundoff.
    """
    X_S = np.asarray(X_S, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n, k = X_S.shape
    if n < k:
        raise ValueError("restricted design not full rank: fewer rows than columns")
    beta, _, rank, _ = np.linalg.lstsq(X_S, y, rcond=None)
    if rank < k:
        raise ValueError("restricted design not full rank")
    return beta
