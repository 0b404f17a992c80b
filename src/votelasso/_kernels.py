"""Hot numeric kernels: active-set coordinate descent for l1 problems.

Both entry points solve

    min_w  (1/2) w' G w - c' w + lam * ||w||_1

up to an additive constant. With G = X'X/n and c = X'y/n this is the
least-squares lasso objective (1/2n)||y - Xw||^2 + lam*||w||_1.

They share one active-set solver (Friedman, Hastie & Tibshirani 2010,
*J. Stat. Softw.*): each outer pass checks the KKT conditions of every
coordinate with one gradient product, then runs cyclic coordinate descent
over the nonzero coordinates plus the violators only.

Most fits are tiny (a nodewise regression has two or three nonzeros and
takes about two passes), so per-call cost matters more than arithmetic.
The inner sweep reads the working-set diagonal, the coefficients and each
gradient entry as Python floats and updates the working-set gradient with
one NumPy row operation per moved coordinate, which keeps working sets of
hundreds of coordinates fast. A pass that moves no coefficient ends the
solve, because every later pass would see the same gradient: the result is
converged if the KKT residual is within tolerance and out of budget
otherwise. That covers every fit whose working set is empty (a lasso whose
solution is 0) and KKT violators that cannot move (zero diagonal). The
floating-point operations and their order are those of a plain scalar
sweep, so results do not depend on these choices.
"""

from __future__ import annotations

import numpy as np

# The kernels are plain NumPy. The flag stays because benchmark manifests
# (perfbench/run.py) record it for every run.
USING_NUMBA = False


def kkt_residual(g: np.ndarray, w: np.ndarray, lam: float, skip: int = -1) -> float:
    """Max KKT residual at ``w``, given the negative smooth gradient ``g``.

    ``g`` is c - G w in the Gram form and X'(y - X w)/n in the residual form.
    Active coordinates score |g_j - lam sign(w_j)|, inactive ones
    max(|g_j| - lam, 0). Coordinate ``skip`` (if >= 0) is left out.
    """
    v = np.abs(g) - lam
    nz = w.nonzero()[0]
    v[nz] = np.abs(g[nz] - lam * np.sign(w[nz]))
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
    spends at least one, so the loop always ends. A pass that moves no
    coefficient ends the loop: every later pass would see the same gradient
    and repeat it until ``max_sweeps``. Returns (sweeps, kkt, converged).
    """
    free = diag > 0.0
    if skip >= 0:
        free[skip] = False
    w[~free] = 0.0
    sweeps, inner_converged = 0, False
    while True:
        g = gradient(w.nonzero()[0])
        # Only the first pass starts with an unconverged inner loop and budget
        # left; it needs the KKT residual only if it moves nothing.
        kkt = None
        if inner_converged or sweeps >= max_sweeps:
            kkt = kkt_residual(g, w, lam, skip)
            converged = inner_converged and kkt <= kkt_tol
            if converged or sweeps >= max_sweeps:
                return sweeps, kkt, converged
        A = (free & ((w != 0.0) | (np.abs(g) > lam))).nonzero()[0]
        B = block(A)
        gA, wA, bA = g[A], w[A].tolist(), B.diagonal().tolist()
        moved, inner_converged = False, False
        while sweeps < max_sweeps and not inner_converged:
            sweeps += 1
            max_delta = 0.0
            for k, bkk in enumerate(bA):
                wk_old = wA[k]
                z = gA.item(k) + bkk * wk_old
                if z > lam:
                    wk = (z - lam) / bkk
                elif z < -lam:
                    wk = (z + lam) / bkk
                else:  # |z| == lam maps to 0: the subgradient contains 0 there.
                    wk = 0.0
                delta = wk - wk_old
                if delta != 0.0:
                    gA -= delta * B[k]
                    wA[k] = wk
                    moved = True
                    if abs(delta) > max_delta:
                        max_delta = abs(delta)
            inner_converged = max_delta < coef_tol
        if not moved:
            if kkt is None:
                kkt = kkt_residual(g, w, lam, skip)
            if inner_converged and kkt <= kkt_tol:
                return sweeps, kkt, True
            return max_sweeps, kkt, False
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
        lambda A: G[A[:, None], A],
        G.diagonal(),
        lam, w, skip, max_sweeps, coef_tol, kkt_tol,
    )
    nz = w.nonzero()[0]
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
