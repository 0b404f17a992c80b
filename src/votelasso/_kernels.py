"""Hot numeric kernels: active-set coordinate descent for l1 problems.

Both entry points solve

    min_w  (1/2) w' G w - c' w + lam * ||w||_1

up to an additive constant. With G = X'X/n and c = X'y/n this is the
least-squares lasso objective (1/2n)||y - Xw||^2 + lam*||w||_1.

They share one active-set solver (Friedman, Hastie & Tibshirani 2010,
*J. Stat. Softw.*): each outer pass checks the KKT conditions of every
coordinate with one gradient product, then runs cyclic coordinate descent
over the nonzero coordinates plus the violators only.
"""

from __future__ import annotations

import numpy as np

# The kernels are plain NumPy. The flag stays because benchmark manifests
# (perfbench/run.py) record it for every run.
USING_NUMBA = False


def _soft_threshold(z, gamma):
    # |z| == gamma maps to 0: the subgradient contains 0 there.
    if z > gamma:
        return z - gamma
    if z < -gamma:
        return z + gamma
    return 0.0


def kkt_residual(g: np.ndarray, w: np.ndarray, lam: float, skip: int = -1) -> float:
    """Max KKT residual at ``w``, given the negative smooth gradient ``g``.

    ``g`` is c - G w in the Gram form and X'(y - X w)/n in the residual form.
    Active coordinates score |g_j - lam sign(w_j)|, inactive ones
    max(|g_j| - lam, 0). Coordinate ``skip`` (if >= 0) is left out.
    """
    v = np.where(w == 0.0, np.abs(g) - lam, np.abs(g - lam * np.sign(w)))
    if skip >= 0:
        v[skip] = 0.0
    return float(v.max(initial=0.0))


def _active_set_cd(gradient, block, diag, lam, w, skip, max_sweeps, coef_tol, kkt_tol):
    """The shared solver. ``w`` is updated in place.

    ``gradient(nz)`` returns c - G w given the indices ``nz`` of the nonzero
    coefficients; ``block(A)`` returns the dense G[A, A]; ``diag`` is the
    diagonal of G. Coordinate ``skip`` and coordinates with a nonpositive
    diagonal are held at 0 and never enter the working set. Converged means
    the last inner sweep moved no coefficient by ``coef_tol`` or more and the
    KKT residual over all coordinates is at most ``kkt_tol``. ``max_sweeps``
    caps the inner sweeps summed over all outer passes, and every pass
    spends at least one, so the loop always ends. Returns
    (sweeps, kkt, converged).
    """
    free = diag > 0.0
    if skip >= 0:
        free[skip] = False
    w[~free] = 0.0
    sweeps, inner_converged = 0, False
    while True:
        g = gradient(np.flatnonzero(w))
        kkt = kkt_residual(g, w, lam, skip)
        converged = inner_converged and kkt <= kkt_tol
        if converged or sweeps >= max_sweeps:
            return sweeps, kkt, converged
        A = np.flatnonzero(free & ((w != 0.0) | (np.abs(g) > lam)))
        B = block(A)
        gA, wA = g[A], w[A]
        inner_converged = False
        while sweeps < max_sweeps and not inner_converged:
            sweeps += 1
            max_delta = 0.0
            for k in range(A.size):
                bkk = B[k, k]
                wk = _soft_threshold(gA[k] + bkk * wA[k], lam) / bkk
                delta = wk - wA[k]
                if delta != 0.0:
                    gA -= delta * B[k]
                    wA[k] = wk
                    max_delta = max(max_delta, abs(delta))
            inner_converged = max_delta < coef_tol
        w[A] = wA


def cd_gram(G, c, lam, w, skip, max_sweeps, coef_tol, kkt_tol):
    """Active-set CD on the Gram form. ``w`` is updated in place.

    ``skip`` excludes one coordinate (held at 0), used for nodewise
    regressions that share a single Gram matrix; pass -1 to use all
    coordinates. Returns (u, sweeps, kkt, converged) with u = G @ w.
    """
    # G is symmetric, so its rows stand in for its columns.
    sweeps, kkt, converged = _active_set_cd(
        lambda nz: c - w[nz] @ G[nz],
        lambda A: G[np.ix_(A, A)],
        np.diag(G),
        lam, w, skip, max_sweeps, coef_tol, kkt_tol,
    )
    nz = np.flatnonzero(w)
    return w[nz] @ G[nz], sweeps, kkt, converged


def cd_residual(X, y, lam, w, max_sweeps, coef_tol, kkt_tol):
    """Active-set CD without a cached Gram matrix. ``w`` in place.

    The gradient is X'(y - X w)/n and the block G[A, A] is formed lazily
    from the working-set columns; ``X`` and ``y`` are not modified.
    Returns (sweeps, kkt, converged).
    """
    n = X.shape[0]

    def block(A):
        XA = X[:, A]
        return XA.T @ XA / n

    return _active_set_cd(
        lambda nz: X.T @ (y - X[:, nz] @ w[nz]) / n,
        block,
        np.einsum("ij,ij->j", X, X) / n,
        lam, w, -1, max_sweeps, coef_tol, kkt_tol,
    )
