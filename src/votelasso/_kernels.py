"""Hot numeric kernels: active-set coordinate descent for l1 problems.

Every entry point solves

    min_w  (1/2) w' G w - c' w + lam * ||w||_1

up to an additive constant. With G = X'X/n and c = X'y/n this is the
least-squares lasso objective (1/2n)||y - Xw||^2 + lam*||w||_1.

There is one driver per problem shape, both active-set solvers (Friedman,
Hastie & Tibshirani 2010, *J. Stat. Softw.*): each outer pass checks the
KKT conditions of every coordinate with one gradient product, then runs
cyclic coordinate descent over the nonzero coordinates plus the violators
only. ``cd_residual`` fits one design (a machine's replication lasso). It
reads G from a ``GramColumns`` store that holds only the columns of
coordinates that have entered a working set, formed on first use (the
"covariance updates" of Friedman et al., section 2.2): a caller that keeps
the store across fits of one design forms each column once. The gradient
the solve ends on is the full product at the returned solution: its KKT
residual is the fit's certificate, and ``cd_residual`` hands it back as the
fit's X'(y - X w)/n, which the debiasing step reuses. ``cd_gram_stack``
solves many problems that share one full G (a machine's nodewise
regressions) with the same passes, in lockstep: one gradient product for
all unfinished problems, their working sets padded to a common width, and
each coordinate update applied to every problem at once. Each problem keeps
its own stopping rules, its own held-out coordinate (``skip``) and its own
KKT certificate.

Most fits are tiny (a nodewise regression has two or three nonzeros and
takes about two passes), so per-call cost matters more than arithmetic.
The single-problem inner sweep (``_active_set_cd``) reads the working-set
diagonal, the coefficients and each gradient entry as Python floats and
updates the working-set gradient with one NumPy row operation per moved
coordinate, which keeps working sets of hundreds of coordinates fast. A fit
that starts at zero, where zero already satisfies the KKT conditions (every
replication fit under a large lambda, ``zero_start_solves``), gets the
result the full loop would give before the loop starts. ``lasso.fit_lasso``
runs that test once for a whole stack of designs, row-wise over its
(M, d) X'y/n, and hands each machine's ``cd_residual`` call its row's
answer, which the call takes as given. A pass that moves no coefficient
ends the solve, because every later pass would see the same gradient: the
result is converged if the KKT residual is within tolerance and out of
budget otherwise. That covers every fit whose working set is empty (a lasso
whose solution is 0) and KKT violators that cannot move (zero diagonal).
The floating-point operations and their order are those of a plain scalar
sweep, so results do not depend on these choices.

One stop does change a result: when a pass moves no coefficient by
``coef_tol`` or more and every coordinate that can move satisfies the KKT
conditions, the remaining residual belongs to coordinates held at zero
(zero diagonal), so no budget could cure it. The solve returns out of
budget at once instead of spending the rest of ``max_sweeps`` on
roundoff-sized moves.
"""

from __future__ import annotations

import numpy as np

# The kernels are plain NumPy. The flag stays only because the benchmark's
# manifest (perfbench/run.py) reads it; it goes when the benchmark stops
# reading it.
USING_NUMBA = False


def kkt_residual(g: np.ndarray, w: np.ndarray, lam: float) -> float:
    """Max KKT residual at ``w``, given the negative smooth gradient ``g``.

    ``g`` is c - G w, which is X'(y - X w)/n when G = X'X/n and c = X'y/n.
    Active coordinates score |g_j - lam sign(w_j)|, inactive ones
    max(|g_j| - lam, 0).
    """
    v = np.abs(g) - lam
    nz = w.nonzero()[0]
    v[nz] = np.abs(g[nz] - lam * np.sign(w[nz]))
    return float(v.max(initial=0.0))


def zero_start_solves(c: np.ndarray, lam: float):
    """Whether w = 0 satisfies the KKT conditions of the problem whose
    gradient at 0 is ``c``: max |c_j| <= lam. False when that maximum is
    NaN. From a zero start the solver's first pass then finds an empty
    working set and returns (1 sweep, KKT residual 0.0, converged) for any
    ``max_sweeps`` >= 1. A (d,) ``c`` gives a NumPy bool; a stack (M, d)
    gives the (M,) answers of its rows, one reduction over the stack."""
    return np.maximum.reduce(np.abs(c), axis=-1, initial=0.0) <= lam


def _active_set_cd(gradient, block, diag, lam, w, max_sweeps, coef_tol, kkt_tol):
    """The single-problem solver. ``w`` is updated in place.

    ``gradient(nz)`` returns c - G w given the indices ``nz`` of the nonzero
    coefficients; ``block(A)`` returns the dense G[A, A]; ``diag`` is the
    diagonal of G. Coordinates with a nonpositive diagonal are held at 0
    and never enter the working set. Converged means the last inner sweep
    moved no coefficient by ``coef_tol`` or more and the KKT residual over
    all coordinates is at most ``kkt_tol``. ``max_sweeps`` caps the inner
    sweeps summed over all outer passes, and every pass spends at least
    one, so the loop always ends. A pass that moves no
    coefficient ends the loop: every later pass would see the same gradient
    and repeat it until ``max_sweeps``. So does a one-sweep pass that moved
    nothing by ``coef_tol`` or more when the KKT residual comes only from
    coordinates that are not free. Both report ``max_sweeps``, as a budget
    run out would. Returns (sweeps, kkt, converged, g): on every exit ``g``
    is the full gradient ``gradient(w.nonzero()[0])`` at the returned ``w``,
    and ``kkt`` is its KKT residual.
    """
    free = diag > 0.0
    w[~free] = 0.0
    g = gradient(w.nonzero()[0])
    sweeps, inner_converged, settled = 0, False, False
    while True:
        # Only the first pass starts with an unconverged inner loop and budget
        # left; it needs the KKT residual only if it moves nothing.
        kkt = None
        if inner_converged or sweeps >= max_sweeps:
            kkt = kkt_residual(g, w, lam)
            converged = inner_converged and kkt <= kkt_tol
            if converged or sweeps >= max_sweeps:
                return sweeps, kkt, converged, g
            # Only coordinates held at zero violate KKT, and the working set has
            # settled: every later pass would make roundoff-sized moves.
            if settled and kkt_residual(g[free], w[free], lam) <= kkt_tol:
                return max_sweeps, kkt, False, g
        A = (free & ((w != 0.0) | (np.abs(g) > lam))).nonzero()[0]
        B = block(A)
        gA, wA, bA = g[A], w[A].tolist(), B.diagonal().tolist()
        moved, inner_converged, start = False, False, sweeps
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
        settled = inner_converged and sweeps == start + 1
        if not moved:
            if kkt is None:
                kkt = kkt_residual(g, w, lam)
            if inner_converged and kkt <= kkt_tol:
                return sweeps, kkt, True, g
            return max_sweeps, kkt, False, g
        w[A] = wA
        g = gradient(w.nonzero()[0])


def gram_diagonal(X):
    """The diagonal of X'X/n: each column's sum of squares over n. ``X`` is
    (n, d), or a stack (..., n, d) giving (..., d)."""
    return np.einsum("...ij,...ij->...j", X, X) / X.shape[-2]


class ColumnBudget:
    """The bytes that the ``GramColumns`` stores sharing it may still keep."""

    __slots__ = ("left",)

    def __init__(self, nbytes: int):
        self.left = nbytes


class GramColumns:
    """Grow-only store of one design's Gram columns G[:, j] = X'x_j/n.

    Once column j is stored it is row ``slot[j]`` of the (count, d) array
    ``rows`` (G is symmetric, so it is also row j of G); ``slot[j]`` is -1
    before. ``form`` computes the columns a solver pass needs and the store
    lacks in one product, ``X.T @ X[:, missing] / n``, and appends them; a
    stored column has the bits of the product that formed it. ``settle``
    ends a fit: of the columns the fit appended it keeps, in the order they
    were formed, as many as ``budget`` still allows and drops the rest,
    which served that fit only. Without a budget every column is kept. A
    store belongs to one design (one machine at one n), and its columns
    are that design's.
    """

    __slots__ = ("slot", "rows", "kept", "budget")

    def __init__(self, d: int, budget: ColumnBudget | None = None):
        self.slot = np.full(d, -1, dtype=np.intp)
        self.rows = np.empty((0, d))
        self.kept = 0
        self.budget = budget

    def form(self, X: np.ndarray, J: np.ndarray) -> None:
        """Append the columns of the indices ``J`` that the store lacks."""
        missing = J[self.slot[J] < 0]
        if missing.size:
            start = self.rows.shape[0]
            new = X.T @ X[:, missing] / X.shape[0]
            self.rows = np.concatenate((self.rows, new.T))
            self.slot[missing] = np.arange(start, start + missing.size)

    def settle(self) -> None:
        """Keep the columns appended since the last call that the budget
        allows; drop the others."""
        count, d = self.rows.shape
        new = count - self.kept
        if not new:
            return
        keep = new
        if self.budget is not None:
            keep = min(new, max(self.budget.left, 0) // (8 * d))
            self.budget.left -= 8 * d * keep
        self.kept += keep
        if keep < new:
            self.slot[self.slot >= self.kept] = -1
            self.rows = self.rows[: self.kept].copy()


def cd_residual(X, y, lam, w, max_sweeps, coef_tol, kkt_tol, diag, c, g, columns, zero):
    """Active-set CD on one design whose Gram columns come from ``columns``.
    ``w`` is updated in place.

    ``columns`` is the design's ``GramColumns`` store. The gradient at
    coefficients with nonzeros ``nz`` is c - G[:, nz] w_nz and the block
    G[A, A] of a working set A is read off the stored columns of A; a pass
    first forms the columns of A the store lacks, in one product, and the
    fit ends with ``columns.settle()``. ``diag`` is ``gram_diagonal(X)``,
    of which only which entries are positive is read, and ``c`` is X'y/n,
    the gradient wherever every coefficient is zero. Neither is written, so
    a caller that holds them for a stack of designs passes a row of each.
    ``y`` is not read, ``c`` standing for it; it is part of the signature
    so that a wrapper can certify the fit from X, y and ``w`` alone. The
    solver's last gradient, X'(y - X w)/n at the returned ``w`` up to
    roundoff, is written into ``g`` (length d); the returned KKT residual is
    read off it.

    ``zero`` is the caller's answer to whether this fit starts at zero
    where zero is optimal: ``w`` all zero, ``max_sweeps`` >= 1 and
    ``zero_start_solves(c, lam)``. True returns (1, 0.0, True) at once, as
    the solver's first pass would, and writes nothing: the caller vouches
    that ``g`` already holds ``c``. False runs the solver. Returns
    (sweeps, kkt, converged).
    """
    if zero:
        return 1, 0.0, True

    def gradient(nz):
        if not nz.size:
            return c
        columns.form(X, nz)
        return c - w[nz] @ columns.rows[columns.slot[nz]]

    def block(A):
        columns.form(X, A)
        return columns.rows[columns.slot[A][:, None], A]

    sweeps, kkt, converged, g[:] = _active_set_cd(
        gradient, block, diag, lam, w, max_sweeps, coef_tol, kkt_tol
    )
    columns.settle()
    return sweeps, kkt, converged


def _padded(mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The columns of each row's True entries, increasing and left-aligned in
    a (B, k) index array, k the largest count. Padding slots hold column 0
    and are False in the returned (B, k) validity mask."""
    # A 2-D nonzero() is several times slower than a flat one.
    r, j = np.divmod(np.flatnonzero(mask), mask.shape[1])
    counts = np.bincount(r, minlength=mask.shape[0])
    k = int(counts.max(initial=0))
    pos = np.arange(r.size) - (np.cumsum(counts) - counts)[r]
    idx = np.zeros((mask.shape[0], k), dtype=np.intp)
    valid = np.zeros((mask.shape[0], k), dtype=bool)
    idx[r, pos] = j
    valid[r, pos] = True
    return idx, valid


def nonzero_slots(W: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The nonzeros of each row of ``W`` (B, d) as padded slots: (B, k)
    column indices and values, k the most nonzeros of any row. Padding slots
    hold value 0."""
    idx, valid = _padded(W != 0.0)
    return idx, np.where(valid, W[np.arange(W.shape[0])[:, None], idx], 0.0)


# Stacked products and residuals run over blocks of rows of about this many
# doubles: small transients reuse freed memory, while a (B, d) temporary per
# step pays for fresh pages, which costs more than the arithmetic.
_BLOCK = 16384


def _row_blocks(rows: int, width: int) -> list[slice]:
    step = max(1, _BLOCK // max(width, 1))
    return [slice(lo, lo + step) for lo in range(0, rows, step)]


def _slots_times_gram(idx: np.ndarray, w: np.ndarray, G: np.ndarray) -> np.ndarray:
    """W @ G for rows W given as padded slots (``nonzero_slots``): each row's
    product over its k gathered rows of G."""
    u = np.empty((idx.shape[0], G.shape[1]))
    for part in _row_blocks(idx.shape[0], idx.shape[1] * G.shape[1]):
        u[part] = (w[part, None, :] @ G[idx[part]])[:, 0]
    return u


def _subtract_slots_times_gram(g, idx, w, G):
    """g -= W @ G in place, the rows of W given as padded slots."""
    for part in _row_blocks(idx.shape[0], idx.shape[1] * G.shape[1]):
        g[part] -= (w[part, None, :] @ G[idx[part]])[:, 0]


def kkt_residual_rows(c, idx, w, lam, skip, u=None):
    """``kkt_residual`` of every row of a stack: (B,) residuals of the (B, d)
    gradients g = c - u (g = c without ``u``) at coefficients given as padded
    slots (``nonzero_slots``). Row r leaves out coordinate ``skip[r]`` when
    it is >= 0. Only a block of rows of g is formed at a time."""
    B, d = c.shape
    r, s = (w != 0.0).nonzero()
    j = idx[r, s]
    g_active = c[r, j] if u is None else c[r, j] - u[r, j]
    active = np.abs(g_active - lam * np.sign(w[r, s]))
    out = np.empty(B)
    for part in _row_blocks(B, d):
        v = np.abs(c[part] if u is None else c[part] - u[part])
        v -= lam
        lo, hi = np.searchsorted(r, [part.start, part.stop])
        v[r[lo:hi] - part.start, j[lo:hi]] = active[lo:hi]
        sk = skip[part]
        at = (sk >= 0).nonzero()[0]
        v[at, sk[at]] = 0.0
        out[part] = v.max(axis=1, initial=0.0)
    return out


def _rows_residual(at, g, idx, w, lam, skip):
    """``kkt_residual_rows`` of the rows ``at`` only, without copying ``g``
    when they are all of its rows."""
    if at.size == g.shape[0]:
        return kkt_residual_rows(g, idx, w, lam, skip)
    return kkt_residual_rows(g[at], idx[at], w[at], lam, skip[at])


def _lockstep_sweeps(gA, wA, blocks, lam, sweeps, max_sweeps, coef_tol):
    """Cyclic CD over padded working sets, one row per problem, all rows in
    lockstep. ``gA``, ``wA`` (B, k) and ``sweeps`` (B,) are updated in place;
    ``blocks`` is (B, k, k), with a zero off-diagonal and a unit diagonal in
    every padding slot, whose gradient and coefficient are 0 so it never
    moves. A row leaves the loop once a sweep moves none of its coefficients
    by ``coef_tol`` or more, or its sweeps reach ``max_sweeps``; every row
    enters with sweeps below it. Returns (moved, inner_converged) per row.
    The arithmetic of each row is that of ``_active_set_cd``'s inner sweep."""
    B, k = wA.shape
    moved = np.zeros(B, dtype=bool)
    inner = np.zeros(B, dtype=bool)
    live = np.arange(B)
    g, w, blk, bd = gA, wA, blocks, blocks.diagonal(axis1=1, axis2=2)
    while live.size:
        sweeps[live] += 1
        w_start = w.copy()
        for s in range(k):
            z = g[:, s] + bd[:, s] * w[:, s]
            # (z -+ lam) / b beyond lam, and 0 on |z| <= lam, where the
            # subgradient contains 0.
            wk = np.where(np.abs(z) > lam, (z - np.copysign(lam, z)) / bd[:, s], 0.0)
            g -= (wk - w[:, s])[:, None] * blk[:, s]
            w[:, s] = wk
        # Each slot moves once per sweep, so these are the sweep's deltas.
        max_delta = np.abs(w - w_start).max(axis=1, initial=0.0)
        moved[live] |= max_delta > 0.0
        inner[live] = max_delta < coef_tol
        keep = ~inner[live] & (sweeps[live] < max_sweeps)
        if not keep.all():
            gA[live], wA[live] = g, w
            live, g, w, blk, bd = live[keep], g[keep], w[keep], blk[keep], bd[keep]
    return moved, inner


def cd_gram_stack(G, C, lam, W, skip, max_sweeps, coef_tol, kkt_tol):
    """Active-set CD on B Gram-form problems that share ``G``, in lockstep.

    Row r of ``C`` (B, d) is problem r's c; ``W`` (B, d) holds the starts
    and is updated in place; ``skip`` (B,) holds each row's excluded
    coordinate, or -1. Each row follows ``_active_set_cd``'s rules, with
    its coordinate ``skip[r]`` held at 0 and left out of its KKT residual:
    coordinates with a nonpositive diagonal are held at 0 too, an outer pass
    forms its working set from a full gradient, the sweeps of its passes are
    capped by ``max_sweeps``, and it stops on the same converged, no-move
    and settled-unmovable-violator conditions.

    Each pass forms the gradient of every unfinished row at once, one
    gathered row of G per nonzero, pads the working sets to (rows, k)
    indices with (rows, k, k) blocks of G and sweeps all rows together
    (``_lockstep_sweeps``). The inner sweeps repeat ``_active_set_cd``'s
    floating-point operations; the gradient sums its terms in another order,
    so a row agrees with that solver on the dense G to roundoff, not bit for
    bit.
    Returns (U, sweeps, kkt, converged): U = W @ G at the solution and, per
    row, the sweeps, the KKT residual and the flag.
    """
    B, d = C.shape
    fixed = ~(G.diagonal() > 0.0)
    W[:, fixed] = 0.0
    has_skip = (skip >= 0).nonzero()[0]
    W[has_skip, skip[has_skip]] = 0.0
    sweeps = np.zeros(B, dtype=np.int64)
    kkt = np.zeros(B)
    converged = np.zeros(B, dtype=bool)
    inner = np.zeros(B, dtype=bool)
    settled = np.zeros(B, dtype=bool)
    # The unfinished rows and their nonzeros as padded slots.
    live = np.arange(B)
    idx, w = nonzero_slots(W)
    while True:
        if idx.shape[1]:
            g = C[live]
            _subtract_slots_times_gram(g, idx, w, G)
        else:
            g = C if live.size == B else C[live]
        sk = skip[live]
        sw, inn = sweeps[live], inner[live]
        done = inn | (sw >= max_sweeps)
        res = np.full(live.size, np.nan)
        at = done.nonzero()[0]
        res[at] = _rows_residual(at, g, idx, w, lam, sk)
        conv = inn & (res <= kkt_tol)
        stuck = done & ~conv & (sw < max_sweeps) & settled[live]
        if stuck.any():
            # Only coordinates held at zero violate KKT, and the working set
            # has settled: later passes would make roundoff-sized moves.
            at = stuck.nonzero()[0]
            free_g = g[at]
            free_g[:, fixed] = 0.0
            stuck[at] = kkt_residual_rows(free_g, idx[at], w[at], lam, sk[at]) <= kkt_tol
            sw[stuck] = max_sweeps
        done &= conv | (sw >= max_sweeps)
        at = live[done]
        kkt[at], converged[at], sweeps[at] = res[done], conv[done], sw[done]
        go = (~done).nonzero()[0]
        if not go.size:
            del g  # U below is a second (B, d) array; do not hold a third
            return _slots_times_gram(*nonzero_slots(W), G), sweeps, kkt, converged
        # Working sets: the nonzeros plus the KKT violators, free coordinates only.
        if go.size < live.size:
            g = g[go]
        rows, idx, w, sk = live[go], idx[go], w[go], sk[go]
        A = (g > lam) | (g < -lam)
        r, s = (w != 0.0).nonzero()
        A[r, idx[r, s]] = True
        A[:, fixed] = False
        at = (sk >= 0).nonzero()[0]
        A[at, sk[at]] = False
        pidx, valid = _padded(A)
        gA = np.where(valid, np.take_along_axis(g, pidx, 1), 0.0)
        wA = np.where(valid, W[rows[:, None], pidx], 0.0)
        pair = valid[:, :, None] & valid[:, None, :]
        blocks = np.where(pair, G[pidx[:, :, None], pidx[:, None, :]], 0.0)
        k = pidx.shape[1]
        blocks[:, np.arange(k), np.arange(k)] += ~valid
        start = sweeps[rows]
        sw = start.copy()
        moved, inn = _lockstep_sweeps(gA, wA, blocks, lam, sw, max_sweeps, coef_tol)
        sweeps[rows], inner[rows] = sw, inn
        settled[rows] = inn & (sw == start + 1)
        # A pass that moved nothing ends the row: its gradient is unchanged.
        still = (~moved).nonzero()[0]
        if still.size:
            res = _rows_residual(still, g, idx, w, lam, sk)
            ok = inn[still] & (res <= kkt_tol)
            at = rows[still]
            kkt[at], converged[at] = res, ok
            sweeps[at[~ok]] = max_sweeps
        r, s = valid.nonzero()
        W[rows[r], pidx[r, s]] = wA[r, s]
        # The next gradient needs only the nonzeros of the rows that moved.
        keep, valid = _padded(wA[moved] != 0.0)
        live = rows[moved]
        idx = np.take_along_axis(pidx[moved], keep, 1)
        w = np.where(valid, np.take_along_axis(wA[moved], keep, 1), 0.0)
