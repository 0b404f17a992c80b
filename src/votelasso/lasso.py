"""Lasso solver and least-squares helpers used by every machine.

The solver is active-set coordinate descent (``_kernels``): each outer
pass checks the KKT conditions of every coordinate with one vectorized
gradient, then runs cyclic coordinate descent over the nonzero coordinates
plus the violators only. ``fit_lasso`` forms the working-set block of
X'X/n from the design columns it needs; ``fit_lasso_gram`` reads it from
a cached Gram matrix, and solves a stack of problems that share one Gram
matrix (a machine's nodewise regressions) in lockstep. Convergence requires
both a small coefficient change and a small KKT residual over all
coordinates, so a converged fit carries an optimality certificate.

Restricted least squares, the round-two fit on a broadcast support, is
``restricted_gram_inverse(X_S) @ (y @ X_S)``. The inverse Gram comes from
one thin SVD and accepts a stack of designs, so a caller that solves many
responses on the same columns (every replication of a fixed design)
factors them once.
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
    skip: int | np.ndarray = -1,
    max_sweeps: int = MAX_SWEEPS,
    kkt_tol: float = KKT_TOL,
) -> tuple[np.ndarray, np.ndarray, int, float, bool]:
    """Gram-form variant sharing the CD solver: G = X'X/n, c = X'y/n.

    Used where many fits share one design (nodewise regressions, fixed-design
    replications). ``skip`` holds one coordinate at zero. Returns
    (theta, u, sweeps, kkt, converged) with u = G @ theta.

    A stack ``c`` of shape (B, d), with ``skip`` of shape (B,) (-1 where a
    row skips nothing), solves the B problems in lockstep
    (``_kernels.cd_gram_stack``) and returns theta and u as (B, d) arrays,
    the sweeps summed over the rows, the largest KKT residual of any row,
    each recomputed from a fresh gradient c - u, and whether every row
    converged with its residual within ``kkt_tol``.
    """
    c = np.asarray(c, dtype=np.float64)
    w = np.zeros(c.shape) if warm_start is None else np.array(warm_start, dtype=np.float64)
    if w.shape != c.shape:
        raise ValueError("warm_start has wrong shape")
    if c.ndim == 1:
        u, sweeps, kkt, converged = _kernels.cd_gram(
            G, c, float(lam), w, int(skip), int(max_sweeps), COEF_TOL, kkt_tol
        )
        return w, u, int(sweeps), float(kkt), bool(converged)
    skip = np.broadcast_to(np.asarray(skip, dtype=np.intp), c.shape[:1])
    u, sweeps, _, converged = _kernels.cd_gram_stack(
        G, c, float(lam), w, skip, int(max_sweeps), COEF_TOL, kkt_tol
    )
    rows = _kernels.kkt_residual_rows(c, *_kernels.nonzero_slots(w), lam, skip, u=u)
    kkt = float(rows.max(initial=0.0))
    return w, u, int(sweeps.sum()), kkt, bool(converged.all() and kkt <= kkt_tol)


def restricted_gram_inverse(X_S: np.ndarray) -> np.ndarray:
    """(X_S'X_S)^-1 of a column subset, or of each matrix of a stack.

    ``X_S`` is (n, k) or stacked (..., n, k); the result is (k, k) or
    (..., k, k), built from the thin SVD X_S = U diag(s) V' as
    V diag(1/s^2) V'. The rank rule is the default cutoff of NumPy's
    least-squares solver: a matrix is full rank when its smallest singular
    value exceeds eps * max(n, k) times its largest. Raises ValueError
    unless every matrix is.
    """
    X_S = np.asarray(X_S, dtype=np.float64)
    n, k = X_S.shape[-2:]
    if n < k:
        raise ValueError("restricted design not full rank: fewer rows than columns")
    if k == 0:
        return np.zeros(X_S.shape[:-2] + (0, 0))
    _, s, vt = np.linalg.svd(X_S, full_matrices=False)
    if not (s[..., -1] > np.finfo(np.float64).eps * max(n, k) * s[..., 0]).all():
        raise ValueError("restricted design not full rank")
    return (vt.swapaxes(-1, -2) / (s * s)[..., None, :]) @ vt


def restricted_ols(X_S: np.ndarray, y: np.ndarray, gram_inv: np.ndarray | None = None) -> np.ndarray:
    """Least squares on a column subset: (X_S'X_S)^-1 X_S'y.

    ``gram_inv`` is X_S's ``restricted_gram_inverse``, computed here when
    not given; a caller that solves many responses on one design passes it
    to pay for the factorization once. Requires n >= k and full column rank
    (ValueError otherwise).
    """
    X_S = np.asarray(X_S, dtype=np.float64)
    if gram_inv is None:
        gram_inv = restricted_gram_inverse(X_S)
    return gram_inv @ (np.asarray(y, dtype=np.float64) @ X_S)
