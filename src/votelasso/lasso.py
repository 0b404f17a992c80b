"""Lasso solver and least-squares helpers used by every machine.

The solver is active-set coordinate descent (``_kernels``): each outer
pass checks the KKT conditions of every coordinate with one vectorized
gradient, then runs cyclic coordinate descent over the nonzero coordinates
plus the violators only. There is one entry per problem shape.
``fit_lasso`` fits designs, one lasso each (a machine's replication fit):
it reads the columns of X'X/n it needs from a per-design store of Gram
columns (``_kernels.GramColumns``), formed when a coordinate first enters a
working set; a caller that fits one design many times (every replication
of a grid point) passes the same store each time, so each column is formed
once. ``fit_lasso_gram`` solves a stack of problems that share one full
Gram matrix (a machine's nodewise regressions) in lockstep, each row with
one coordinate held out. Convergence requires both a
small coefficient change and a small KKT residual over all coordinates, so
a converged fit carries an optimality certificate. ``fit_lasso`` reads it
off the solver's last gradient, X'y/n - (X'X/n) theta, which is
X'(y - X theta)/n at the returned solution up to roundoff, and returns
that gradient too: it is the fit's X'r over n, which the debiasing step
needs, so no fit forms it twice.
``kkt_violation`` recomputes the same residual from X, y and a solution
alone, as an independent check. ``fit_lasso`` also takes a stack of
designs, one per machine, as the replications pass them: it checks the
whole stack's inputs and runs the zero-start test
(``_kernels.zero_start_solves``) once over the stack, and then solves each
machine's problem with its own kernel call, so every row equals the
machine's own fit bit for bit.

The fit also returns the undivided X'y it formed (``LassoFit.xty``), so a
machine's round-two X_S'y on a broadcast support S is its column S, with no
new pass over X. Restricted least squares, the round-two fit on S, is
``restricted_gram_inverse(X_S) @ xty[S]``. The Grams X_S'X_S of a stack
are one product (``restricted_gram``), which the harness also uses for the
exact-Gram round two and the oracle. The inverse Gram of every matrix
of a stack comes from one LAPACK inverse of the stacked X_S'X_S, kept where
||G||_F ||G^-1||_F certifies X_S well conditioned, and from a thin SVD of
X_S, which makes the rank decision, where it does not; a caller that solves
many responses on the same columns (every replication of a fixed design)
inverts them once. These helpers accept a stack of designs, and each matrix
of a stack gets the same bits as it would alone.
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
    """Solution of (1/2n)||y - X theta||^2 + lam * ||theta||_1.

    ``gradient`` is X'(y - X theta)/n at ``coefficients`` up to roundoff,
    the solver's last gradient, and ``max_kkt_violation`` is its KKT
    residual. ``xty`` is the undivided X'y the fit formed, with the bits of
    ``X.T @ y``; its column S is X_S'y for any column subset S. A fit of one
    design holds (d,) arrays and Python scalars; a fit of a stack of M
    designs holds (M, d) arrays and (M,) arrays, row m machine m's.
    """

    coefficients: np.ndarray
    lam: float
    iterations: int | np.ndarray
    max_kkt_violation: float | np.ndarray
    converged: bool | np.ndarray
    gradient: np.ndarray
    xty: np.ndarray


def fit_lasso(
    X: np.ndarray,
    y: np.ndarray,
    lam: float,
    max_sweeps: int = MAX_SWEEPS,
    gram_diag: np.ndarray | None = None,
    columns=None,
) -> LassoFit:
    """Solve the lasso by active-set coordinate descent, for one design or
    a stack of them.

    ``X`` is one (n, d) design with ``y`` (n,), or a stack (M, n, d) with
    ``y`` (M, n): machine m's problem is X[m], y[m], and all share ``lam``.
    A design is a stack of one, and its LassoFit is that stack's row 0 with
    Python scalars; a stack's LassoFit holds (M, d) coefficients and
    gradients and (M,) iterations, residuals and convergence flags. Each
    problem is its own ``_kernels.cd_residual`` call, with positional
    arguments; only the checks, the allocations, the zero-start test and
    the result are shared. The zero-start test
    (``_kernels.zero_start_solves``) runs once, row-wise over the stack's
    (M, d) X'y/n, and each call gets its row's answer, so a fit whose zero
    start is optimal (every fit at a large lambda) returns from its call at
    once; its gradient is its row of X'y/n, which one copy for the whole
    stack has already put there.

    ``columns`` holds each design's ``_kernels.GramColumns`` store, one
    store for a design and a sequence of M for a stack; the caller vouches
    that each holds columns of its design only. Without it every problem
    gets a new store without a budget, dropped after the fit.

    The fit forms X'y in one product over the stack whose bits are those of
    ``X.T @ y`` (``restricted_xty``), returns it as ``xty`` and starts from
    X'y/n, the gradient at zero. It returns the solver's last gradient
    X'y/n - (X'X/n) theta at the solution (X'y/n itself for a zero
    solution) as ``gradient`` and that gradient's KKT residual as
    ``max_kkt_violation``, equal up to roundoff to ``kkt_violation`` at the
    solution without forming X'r again. ``converged`` is True only when the
    last sweep moved no coefficient by ``COEF_TOL`` or more and that
    residual is within ``KKT_TOL``. Non-convergence within ``max_sweeps`` is
    reported, not raised.

    ``gram_diag``, the diagonal of X'X/n ((d,) for a design, (M, d) for a
    stack: each column's sum of squares over n, ``_kernels.gram_diagonal``),
    depends only on the design, so a caller that fits one design many times
    may pass it in; the fit forms it itself otherwise, with the same result.
    The caller vouches that it is that of X.

    Every fit starts from zero. The inputs are checked once over the whole
    stack, and a fault in any machine's raises ValueError: a NaN or inf in
    X, y or the X'y/n formed from them (a product past the largest double),
    a wrong shape, or a ``columns`` of another length than the stack. X is
    checked in O(d) per machine through its column sums of squares: a
    column's sum is NaN or inf when the column holds a NaN or inf, and also
    when its squares sum past the largest double, so a column with an entry
    of magnitude about 1.3e154 or more is rejected too.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    _check_lam(lam)
    single = X.ndim == 2
    if single:
        X, y = X[None], y[None]
        gram_diag = None if gram_diag is None else np.asarray(gram_diag)[None]
        columns = None if columns is None else [columns]
    if X.ndim != 3:
        raise ValueError("X must be (n, d) or a stack (M, n, d)")
    M, n, d = X.shape
    if y.shape != (M, n):
        raise ValueError("X and y have inconsistent shapes")
    diag = _kernels.gram_diagonal(X) if gram_diag is None else np.asarray(gram_diag, dtype=np.float64)
    if diag.shape != (M, d):
        raise ValueError("gram_diag has wrong length")
    if not (np.isfinite(diag).all() and np.isfinite(y).all()):
        raise ValueError("NaN or inf in lasso inputs")
    xty = restricted_xty(X, y)
    c = xty / n
    if not np.isfinite(c).all():  # finite X and y whose products overflow
        raise ValueError("NaN or inf in lasso inputs")
    if columns is not None and len(columns) != M:
        raise ValueError("columns must hold one store per design")
    lam, max_sweeps = float(lam), int(max_sweeps)
    # Every fit starts at zero, where its gradient is its row of c: one
    # zero-start test for the stack, read through the module so that a
    # patched test reaches every row, and one copy of c for the gradients.
    zero = np.zeros(M, dtype=bool)
    if max_sweeps >= 1:
        zero |= _kernels.zero_start_solves(c, lam)
    W, G = np.zeros((M, d)), c.copy()
    sweeps = np.empty(M, dtype=np.int64)
    kkt = np.empty(M)
    converged = np.empty(M, dtype=bool)
    for m, zero_m in enumerate(zero.tolist()):
        store = _kernels.GramColumns(d) if columns is None else columns[m]
        # Positional: the benchmark's probe of cd_residual takes no keywords.
        sweeps[m], kkt[m], converged[m] = _kernels.cd_residual(
            X[m], y[m], lam, W[m], max_sweeps, COEF_TOL, KKT_TOL, diag[m], c[m], G[m], store, zero_m
        )
    if single:
        return LassoFit(W[0], lam, int(sweeps[0]), float(kkt[0]), bool(converged[0]), G[0], xty[0])
    return LassoFit(W, lam, sweeps, kkt, converged, G, xty)


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
    C: np.ndarray,
    lam: float,
    skip: np.ndarray,
    max_sweeps: int = MAX_SWEEPS,
) -> tuple[np.ndarray, np.ndarray, int, float, bool]:
    """Solve B Gram-form problems that share G = X'X/n in lockstep
    (``_kernels.cd_gram_stack``): row r of ``C`` (B, d) is problem r's
    c = X'y/n, and coordinate ``skip[r]`` of ``skip`` (B,) is held at zero
    (-1 holds none), as in a machine's nodewise regressions. Every row
    starts from zero.

    Returns (theta, u, sweeps, kkt, converged): theta and u = theta @ G as
    (B, d) arrays, the sweeps summed over the rows, the largest KKT residual
    of any row, each recomputed from a fresh gradient C - u, and whether
    every row converged with its residual within ``KKT_TOL``.
    """
    _check_lam(lam)
    C = np.asarray(C, dtype=np.float64)
    W = np.zeros(C.shape)
    skip = np.asarray(skip, dtype=np.intp)
    u, sweeps, _, converged = _kernels.cd_gram_stack(
        G, C, float(lam), W, skip, int(max_sweeps), COEF_TOL, KKT_TOL
    )
    rows = _kernels.kkt_residual_rows(C, *_kernels.nonzero_slots(W), lam, skip, u=u)
    kkt = float(rows.max(initial=0.0))
    return W, u, int(sweeps.sum()), kkt, bool(converged.all() and kkt <= KKT_TOL)


# A computed inverse of G = X_S'X_S is certified when ||G||_F ||G^-1||_F is
# at most CERTIFIED_COND^2. The product bounds cond2(G) = cond2(X_S)^2 from
# above and never exceeds trace(G) trace(G^-1), so a certified X_S has
# cond2(X_S) <= 1e3: far below the lstsq rank cutoff 1/(eps max(n, k))
# (2e13 at n = 200), and the certified inverse's relative error, which grows
# as cond2(X_S)^2 eps, stays below about 2e-10.
CERTIFIED_COND = 1e3


def restricted_gram(X_S: np.ndarray) -> np.ndarray:
    """X_S'X_S of a column subset, or of each matrix of a stack: ``X_S`` is
    (n, k) or (..., n, k), the result (k, k) or (..., k, k). One stacked
    product, whose every matrix equals that matrix's own ``X_S.T @ X_S``
    bit for bit."""
    return X_S.swapaxes(-1, -2) @ X_S


def restricted_gram_inverse(X_S: np.ndarray) -> np.ndarray:
    """(X_S'X_S)^-1 of a column subset, or of each matrix of a stack.

    ``X_S`` is (n, k) or stacked (..., n, k); the result is (k, k) or
    (..., k, k). Each matrix's Gram G = X_S'X_S comes from one stacked
    product (``restricted_gram``) and its inverse from one
    ``np.linalg.inv`` of the stack (matrix by matrix only when the stack
    raises, NaN for a matrix that does), kept when ||G||_F ||G^-1||_F, an
    upper bound on cond2(X_S)^2, is at most
    ``CERTIFIED_COND``^2: such a matrix is full rank with a wide margin.
    The Frobenius norms count every computed eigenvalue by magnitude, so a
    singular G whose computed eigenvalues straddle zero is not certified.
    Every other matrix (the bound is larger, or it holds a NaN or inf) gets
    the thin SVD X_S = U diag(s) V' and V diag(1/s^2) V', which applies the
    rank rule: the default cutoff of NumPy's least-squares solver, full rank
    when the smallest singular value exceeds eps * max(n, k) times the
    largest. Raises ValueError unless every matrix is full rank.
    """
    X_S = np.ascontiguousarray(X_S, dtype=np.float64)
    n, k = X_S.shape[-2:]
    if n < k:
        raise ValueError("restricted design not full rank: fewer rows than columns")
    if k == 0:
        return np.zeros(X_S.shape[:-2] + (0, 0))
    stack = X_S.reshape(-1, n, k)
    with np.errstate(all="ignore"):  # a NaN, inf or overflow fails the certificate
        G = restricted_gram(stack)
        try:
            inv = np.linalg.inv(G)
        except np.linalg.LinAlgError:
            # One singular matrix raises for the whole stack: redo it matrix by matrix.
            inv = np.full_like(G, np.nan)
            for m in range(len(G)):
                try:
                    inv[m] = np.linalg.inv(G[m])
                except np.linalg.LinAlgError:
                    pass
        # (||G||_F ||G^-1||_F)^2 against CERTIFIED_COND^4.
        bound_sq = (G * G).sum(axis=(1, 2)) * (inv * inv).sum(axis=(1, 2))
        certified = bound_sq <= CERTIFIED_COND**4
    if not certified.all():
        inv[~certified] = _svd_gram_inverse(stack[~certified])
    return inv.reshape(X_S.shape[:-2] + (k, k))


def _svd_gram_inverse(X_S: np.ndarray) -> np.ndarray:
    """V diag(1/s^2) V' from the thin SVD of each matrix of an (M, n, k)
    stack, after the rank rule of ``restricted_gram_inverse``."""
    n, k = X_S.shape[-2:]
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
