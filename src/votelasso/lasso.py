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
``fit_lasso`` recomputes it from X, y and the solution with one X'r
product, except for a zero solution given X'y/n: there the gradient is the
given X'y/n, and its residual is the certificate, as ``fit_lasso_gram``
certifies from the G and X'y/n it is given.

Restricted least squares, the round-two fit on a broadcast support, is
``restricted_gram_inverse(X_S) @ restricted_xty(X_S, y)``. The inverse
Gram comes from one thin SVD, so a caller that solves many responses on the
same columns (every replication of a fixed design) factors them once. All
three accept a stack of designs and responses, and each matrix of a stack
gets the same bits as it would alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels

KKT_TOL = 1e-7
COEF_TOL = 1e-9
MAX_SWEEPS = 100_000


def _check_lam(lam: float) -> None:
    if not 0 < lam < math.inf:
        raise ValueError("lam must be finite and positive")


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
    max_sweeps: int = MAX_SWEEPS,
    kkt_tol: float = KKT_TOL,
    gram_diag: np.ndarray | None = None,
    c: np.ndarray | None = None,
) -> LassoFit:
    """Solve the lasso by active-set coordinate descent.

    Returns a LassoFit whose ``max_kkt_violation`` is recomputed from
    scratch at the solution (``kkt_violation``), except for a zero solution
    given ``c``: its gradient is c itself, so the residual is
    ``_kernels.kkt_residual(c, 0, lam)`` as the solver read it, and no
    product with X is formed. ``converged`` is True only when that residual
    is within ``kkt_tol``. Non-convergence within ``max_sweeps`` is
    reported, not raised.

    Two inputs that depend only on the design or that the caller has
    already formed may be passed in, as ``debias(xty=)`` takes X'y:
    ``gram_diag`` is the diagonal of X'X/n, each column's sum of squares
    over n (``_kernels.gram_diagonal``), and ``c`` is X'y/n. Without them
    the fit forms them itself, with the same result. ``c`` is the gradient
    at the zero start and certifies a zero solution. The caller vouches that
    both are those of X and y, as ``fit_lasso_gram``'s caller does for G and c.

    Every fit starts from zero. Raises ValueError for a NaN or inf in X, y
    or ``c``. X is checked in O(d) through its column sums of squares: a
    column's sum is NaN or inf when the column holds a NaN or inf, and also
    when its squares sum past the largest double, so a column with an entry
    of magnitude about 1.3e154 or more is rejected too.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    _check_lam(lam)
    n, d = X.shape
    if y.shape != (n,):
        raise ValueError("X and y have inconsistent shapes")
    diag = _kernels.gram_diagonal(X) if gram_diag is None else np.asarray(gram_diag, dtype=np.float64)
    if diag.shape != (d,):
        raise ValueError("gram_diag has wrong length")
    if not (np.isfinite(diag).all() and np.isfinite(y).all()):
        raise ValueError("NaN or inf in lasso inputs")
    w = np.zeros(d)
    if c is not None:
        c = np.asarray(c, dtype=np.float64)
        if c.shape != (d,):
            raise ValueError("c has wrong length")
        if not np.isfinite(c).all():
            raise ValueError("NaN or inf in lasso inputs")
    # Positional: the benchmark's probe of cd_residual takes no keywords.
    sweeps, kkt, converged = _kernels.cd_residual(
        X, y, float(lam), w, int(max_sweeps), COEF_TOL, kkt_tol, diag, c
    )
    # A zero solution's gradient is c, and the kernel's residual was read off it.
    viol = kkt if c is not None and not w.any() else kkt_violation(X, y, lam, w)
    return LassoFit(
        coefficients=w,
        lam=float(lam),
        iterations=int(sweeps),
        max_kkt_violation=float(viol),
        converged=bool(converged and viol <= kkt_tol),
    )


def kkt_violation(X: np.ndarray, y: np.ndarray, lam: float, theta: np.ndarray) -> float:
    """Max KKT residual of the lasso objective at ``theta``, from scratch.

    For active coordinates this is |x_j'(y - X theta)/n - lam*sign(theta_j)|;
    for inactive ones, max(|x_j'(y - X theta)/n| - lam, 0). It reads only
    X, y and theta, so it certifies a solution whatever produced it. The
    residual y - X theta is formed from theta's nonzero columns, so the
    certificate costs one product with X' over all of X.
    """
    X = np.asarray(X, dtype=np.float64)
    theta = np.asarray(theta, dtype=np.float64)
    n = X.shape[0]
    nz = theta.nonzero()[0]
    return _kernels.kkt_residual(X.T @ (y - X[:, nz] @ theta[nz]) / n, theta, lam)


def fit_lasso_gram(
    G: np.ndarray,
    c: np.ndarray,
    lam: float,
    skip: int | np.ndarray = -1,
    max_sweeps: int = MAX_SWEEPS,
    kkt_tol: float = KKT_TOL,
) -> tuple[np.ndarray, np.ndarray, int, float, bool]:
    """Gram-form variant sharing the CD solver: G = X'X/n, c = X'y/n.

    Used where many fits share one design (nodewise regressions, fixed-design
    replications). ``skip`` holds one coordinate at zero. Returns
    (theta, u, sweeps, kkt, converged) with u = G @ theta. Every fit starts
    from zero, and a single problem where zero is optimal
    (``_kernels.zero_start_solves``: max |c| <= lam off ``skip``, and
    ``max_sweeps`` >= 1) returns (zeros, zeros, 1, 0.0, True) without
    entering the solver, which would return the same after one pass.

    A stack ``c`` of shape (B, d), with ``skip`` of shape (B,) (-1 where a
    row skips nothing), solves the B problems in lockstep
    (``_kernels.cd_gram_stack``) and returns theta and u as (B, d) arrays,
    the sweeps summed over the rows, the largest KKT residual of any row,
    each recomputed from a fresh gradient c - u, and whether every row
    converged with its residual within ``kkt_tol``.
    """
    _check_lam(lam)
    c = np.asarray(c, dtype=np.float64)
    w = np.zeros(c.shape)
    if c.ndim == 1:
        if max_sweeps >= 1 and _kernels.zero_start_solves(c, lam, int(skip)):
            return w, np.zeros(c.shape), 1, 0.0, True
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


def restricted_xty(X_S: np.ndarray, y: np.ndarray) -> np.ndarray:
    """X_S'y of a column subset, or of each matrix of a stack with its
    response: ``X_S`` is (n, k) or (..., n, k), ``y`` (n,) or (..., n), the
    result (k,) or (..., k). One product y @ X_S per matrix, whose bits are
    those of ``X_S.T @ y``."""
    return (np.asarray(y, dtype=np.float64)[..., None, :] @ X_S)[..., 0, :]


def restricted_ols(X_S: np.ndarray, y: np.ndarray, gram_inv: np.ndarray | None = None) -> np.ndarray:
    """Least squares on a column subset: (X_S'X_S)^-1 X_S'y.

    ``X_S``, ``y`` and ``gram_inv`` are one machine's (n, k), (n,) and
    (k, k), or stacks (..., n, k), (..., n) and (..., k, k) with one fit per
    matrix. ``gram_inv`` is X_S's ``restricted_gram_inverse``, computed here
    when not given; a caller that solves many responses on one design passes
    it to pay for the factorization once. Requires n >= k and full column
    rank (ValueError otherwise).
    """
    X_S = np.asarray(X_S, dtype=np.float64)
    if gram_inv is None:
        gram_inv = restricted_gram_inverse(X_S)
    return (gram_inv @ restricted_xty(X_S, y)[..., None])[..., 0]
