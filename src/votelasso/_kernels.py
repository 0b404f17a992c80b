"""Hot numeric kernels: cyclic coordinate descent sweeps for l1 problems.

Both kernels solve

    min_w  (1/2) w' G w - c' w + lam * ||w||_1

up to an additive constant. With G = X'X/n and c = X'y/n this is the
least-squares lasso objective (1/2n)||y - Xw||^2 + lam*||w||_1.
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


def cd_gram(G, c, lam, w, skip, max_sweeps, coef_tol, kkt_tol):
    """Cyclic CD on the Gram form. ``w`` is updated in place.

    ``skip`` excludes one coordinate (held at 0), used for nodewise
    regressions that share a single Gram matrix; pass -1 to use all
    coordinates. Returns (u, sweeps, kkt, converged) with u = G @ w.
    """
    d = G.shape[0]
    if skip >= 0:
        w[skip] = 0.0
    u = G @ w
    sweeps = 0
    for sweep in range(max_sweeps):
        sweeps = sweep + 1
        max_delta = 0.0
        for j in range(d):
            if j == skip:
                continue
            gjj = G[j, j]
            if gjj <= 0.0:
                w[j] = 0.0
                continue
            z = c[j] - u[j] + gjj * w[j]
            wj = _soft_threshold(z, lam) / gjj
            delta = wj - w[j]
            if delta != 0.0:
                u += delta * G[j]
                w[j] = wj
                ad = abs(delta)
                if ad > max_delta:
                    max_delta = ad
        if max_delta < coef_tol:
            kkt = kkt_residual(c - u, w, lam, skip)
            if kkt <= kkt_tol:
                return u, sweeps, kkt, True
    return u, sweeps, kkt_residual(c - u, w, lam, skip), False


def cd_residual(X, y, lam, w, max_sweeps, coef_tol, kkt_tol):
    """Cyclic CD with covariance-free residual updates. ``w`` in place.

    X should be Fortran-ordered so column slices are contiguous.
    Returns (sweeps, kkt, converged).
    """
    n, d = X.shape
    col_sq = np.empty(d)
    for j in range(d):
        col_sq[j] = (X[:, j] @ X[:, j]) / n
    r = y - X @ w
    sweeps = 0
    for sweep in range(max_sweeps):
        sweeps = sweep + 1
        max_delta = 0.0
        for j in range(d):
            gjj = col_sq[j]
            if gjj <= 0.0:
                w[j] = 0.0
                continue
            rho = (X[:, j] @ r) / n + gjj * w[j]
            wj = _soft_threshold(rho, lam) / gjj
            delta = wj - w[j]
            if delta != 0.0:
                r -= delta * X[:, j]
                w[j] = wj
                ad = abs(delta)
                if ad > max_delta:
                    max_delta = ad
        if max_delta < coef_tol:
            kkt = kkt_residual(X.T @ r / n, w, lam)
            if kkt <= kkt_tol:
                return sweeps, kkt, True
    return sweeps, kkt_residual(X.T @ r / n, w, lam), False
