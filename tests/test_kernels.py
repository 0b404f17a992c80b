"""Active-set coordinate-descent solver: edge cases, working sets, budgets
and the shared KKT certificate."""

import time

import numpy as np
import pytest

from votelasso import _kernels
from votelasso.lasso import MAX_SWEEPS, fit_lasso_gram

from oracles import fista_lasso, scalar_cd_columns, scalar_cd_gram, scalar_cd_residual


def _dense_cd(G, c, lam, w, skip, max_sweeps, coef_tol, kkt_tol):
    """``_kernels._active_set_cd`` on a dense Gram matrix, with the
    arguments and return of ``oracles.scalar_cd_gram``: (u, sweeps, kkt,
    converged) with u = G @ w, ``w`` updated in place. Coordinate ``skip``
    (if >= 0) is held at zero through a zero diagonal entry, and its
    gradient entry is zeroed so that it adds nothing to the KKT residual."""
    diag = G.diagonal().copy()
    if skip >= 0:
        diag[skip] = 0.0

    def gradient(nz):
        g = c - w[nz] @ G[nz]  # G is symmetric: its rows are its columns
        if skip >= 0:
            g[skip] = 0.0
        return g

    sweeps, kkt, converged, _ = _kernels._active_set_cd(
        gradient, lambda A: G[A[:, None], A], diag, lam, w, max_sweeps, coef_tol, kkt_tol
    )
    nz = w.nonzero()[0]
    return w[nz] @ G[nz], sweeps, kkt, converged


def _cd_residual(X, y, lam, w, max_sweeps, coef_tol, kkt_tol, columns=None):
    """``_kernels.cd_residual`` given the Gram diagonal and X'y/n it reads,
    and an empty column store unless ``columns`` is given: its (sweeps,
    kkt, converged) and then the gradient it wrote."""
    n, d = X.shape
    g = np.full(d, np.nan)
    if columns is None:
        columns = _kernels.GramColumns(d)
    out = _kernels.cd_residual(
        X, y, lam, w, max_sweeps, coef_tol, kkt_tol, _kernels.gram_diagonal(X), X.T @ y / n, g, columns
    )
    return (*out, g)


@pytest.fixture
def problem(rng):
    n, d = 40, 15
    X = rng.standard_normal((n, d))
    theta = np.zeros(d)
    theta[[1, 7]] = [1.0, -0.6]
    y = X @ theta + 0.3 * rng.standard_normal(n)
    return X, y


def test_skip_coordinate_stays_zero(problem):
    X, y = problem
    n = X.shape[0]
    G = X.T @ X / n
    skip = np.array([0, 7, 14])
    W = np.full((3, G.shape[0]), 0.3)
    _kernels.cd_gram_stack(G, G[skip], 0.05, W, skip, 1000, 1e-9, 1e-7)
    assert not W[np.arange(3), skip].any() and W.any(axis=1).all()


def test_zero_column_forced_to_zero(rng):
    X = rng.standard_normal((20, 4))
    X[:, 2] = 0.0
    y = rng.standard_normal(20)
    w = np.ones(4)
    _cd_residual(np.asfortranarray(X), y.copy(), 0.1, w, 1000, 1e-9, 1e-7)
    assert w[2] == 0.0


@pytest.fixture
def working_sets(monkeypatch):
    """Every working set the solver forms, in order, as sets of indices."""
    seen = []
    solve = _kernels._active_set_cd

    def spy(gradient, block, *rest):
        def recording(A):
            seen.append(set(A.tolist()))
            return block(A)

        return solve(gradient, recording, *rest)

    monkeypatch.setattr(_kernels, "_active_set_cd", spy)
    return seen


def _ar1_problem(seed, n=60, d=30, rho=0.6):
    """Correlated design where part of the final support is not violating at the start."""
    rng = np.random.default_rng(seed)
    Z = rng.standard_normal((n, d))
    X = np.empty_like(Z)
    X[:, 0] = Z[:, 0]
    for j in range(1, d):
        X[:, j] = rho * X[:, j - 1] + np.sqrt(1 - rho**2) * Z[:, j]
    theta = np.zeros(d)
    theta[[3, 4, 10, 11, 20]] = [1.5, -1.2, 1.0, -0.9, 0.7]
    return X, X @ theta + 0.5 * rng.standard_normal(n)


def _both_forms(X, y, lam, w0, max_sweeps=10_000):
    """(w, sweeps, kkt, converged) from the solver on the dense Gram matrix
    (``_dense_cd``), then from ``cd_residual``.

    Each form is solved only when the generator reaches it, so a caller can
    inspect the working sets of one form before the next runs.
    """
    n = X.shape[0]
    wg, wr = w0.copy(), w0.copy()
    _, sweeps, kkt, conv = _dense_cd(X.T @ X / n, X.T @ y / n, lam, wg, -1, max_sweeps, 1e-9, 1e-7)
    yield wg, sweeps, kkt, conv
    yield (wr, *_cd_residual(X, y, lam, wr, max_sweeps, 1e-9, 1e-7)[:3])


@pytest.mark.parametrize("warm", [False, True], ids=["cold", "wrong_support"])
def test_violators_enter_in_later_passes(working_sets, warm):
    X, y = _ar1_problem(1)
    lam = 0.1
    expected = fista_lasso(X, y, lam, tol=0.0)
    w0 = np.zeros(X.shape[1])
    if warm:
        w0[[0, 15, 25]] = 0.5  # none of these is in the true support
    for w, _, kkt, conv in _both_forms(X, y, lam, w0):
        assert conv and kkt <= 1e-7
        assert np.abs(w - expected).max() <= 1e-7
        # Part of the final support only enters after the first pass.
        assert len(working_sets) >= 2
        assert set(np.flatnonzero(w).tolist()) - working_sets[0]
        working_sets.clear()


def test_max_sweeps_caps_all_outer_passes():
    X, y = _ar1_problem(1)
    needed = min(sweeps for _, sweeps, _, _ in _both_forms(X, y, 0.1, np.zeros(30)))
    assert needed > 4
    for budget in (1, 2, needed // 2, needed - 1):
        for _, sweeps, _, conv in _both_forms(X, y, 0.1, np.zeros(30), budget):
            assert sweeps == budget and not conv


def test_skip_and_zero_diagonal_never_enter(working_sets, monkeypatch, rng):
    n, d, skip, dead = 40, 8, 2, 5
    X = rng.standard_normal((n, d))
    X[:, dead] = 0.0
    # Coordinate ``skip`` carries signal, so it would violate KKT if it could enter.
    y = X[:, :4] @ np.array([1.0, -1.0, 2.0, 0.5]) + 0.1 * rng.standard_normal(n)
    w = np.full(d, 0.3)
    _, _, conv, _ = _cd_residual(X, y, 0.05, w, 1000, 1e-9, 1e-7)
    assert conv and w[dead] == 0.0
    assert working_sets and all(dead not in A for A in working_sets)
    # The stack pads every row's nonzeros and working set over the d
    # coordinates through _padded (its other masks are over slots): none may
    # hold a row's skipped or a dead coordinate.
    masks = []
    padded = _kernels._padded

    def recording(mask):
        if mask.shape[1] == d:
            masks.append(mask.copy())
        return padded(mask)

    monkeypatch.setattr(_kernels, "_padded", recording)
    G, c = X.T @ X / n, X.T @ y / n
    skips = np.array([skip, -1])
    W = np.full((2, d), 0.3)
    _, _, kkt, conv = _kernels.cd_gram_stack(G, np.vstack([c, c]), 0.05, W, skips, 1000, 1e-9, 1e-7)
    assert conv.all() and (kkt <= 1e-7).all()
    assert W[0, skip] == 0.0 and W[1, skip] != 0.0 and not W[:, dead].any()
    assert len(masks) > 2 and all(not m[:, dead].any() for m in masks)
    # While both rows run, row 0 of a mask is the row that skips.
    assert all(not m[0, skip] for m in masks if m.shape[0] == 2)


@pytest.fixture
def gradient_calls(monkeypatch):
    """The number of gradient evaluations the solver makes, in a one-item list."""
    calls = [0]
    solve = _kernels._active_set_cd

    def spy(gradient, *rest):
        def counting(nz):
            calls[0] += 1
            return gradient(nz)

        return solve(counting, *rest)

    monkeypatch.setattr(_kernels, "_active_set_cd", spy)
    return calls


@pytest.mark.parametrize(
    "diag, c, expected",
    [
        ([1.0, 0.0, 2.0], [0.5, 1.0, -0.4], [0.4, 0.0, -0.15]),
        ([1.0, 0.0], [0.05, 1.0], [0.0, 0.0]),  # the working set stays empty
    ],
    ids=["with_working_set", "empty_working_set"],
)
def test_zero_diagonal_violator_stops_within_budget(gradient_calls, diag, c, expected):
    # Coordinate 1 violates KKT (|c_1| > lam) but cannot move: G_11 = 0.
    w = np.zeros(len(diag))
    _, sweeps, kkt, conv = _dense_cd(np.diag(diag), np.array(c), 0.1, w, -1, MAX_SWEEPS, 1e-9, 1e-7)
    assert not conv and sweeps == MAX_SWEEPS
    assert kkt == pytest.approx(0.9)
    assert w.tolist() == pytest.approx(expected)
    assert w[1] == 0.0
    # Once a pass moves nothing, later passes would repeat it: no more gradients.
    assert gradient_calls[0] <= 2


@pytest.mark.parametrize("scale", [1.0, 1.5])
def test_zero_solution_at_lambda_max(problem, scale):
    X, y = problem
    lam = scale * np.abs(X.T @ y / X.shape[0]).max()
    for w, sweeps, kkt, conv in _both_forms(X, y, lam, np.zeros(X.shape[1])):
        assert not w.any()
        assert conv and kkt == 0.0 and sweeps >= 1


def _kkt_loop(g, w, lam, skip=-1):
    worst = 0.0
    for j in range(g.size):
        if j == skip:
            continue
        if w[j] > 0:
            v = abs(g[j] - lam)
        elif w[j] < 0:
            v = abs(g[j] + lam)
        else:
            v = max(abs(g[j]) - lam, 0.0)
        worst = max(worst, v)
    return worst


def test_kkt_residual_matches_coordinate_loop(rng):
    # The single-problem residual, and the stack's with a skipped coordinate.
    for _ in range(50):
        g = rng.standard_normal(9)
        w = rng.standard_normal(9) * (rng.random(9) < 0.5)
        lam = float(rng.uniform(0.1, 2.0))
        skip = int(rng.integers(-1, 9))
        assert _kernels.kkt_residual(g, w, lam) == _kkt_loop(g, w, lam)
        rows = _kernels.kkt_residual_rows(g[None], *_kernels.nonzero_slots(w[None]), lam, np.array([skip]))
        assert rows.tolist() == [_kkt_loop(g, w, lam, skip)]


# Working sets from 1 to about 200 coordinates: (d, n, lambda / lambda_max).
_IDENTITY_SHAPES = [(3, 20, 0.5), (12, 30, 0.3), (40, 60, 0.1), (120, 150, 0.05), (240, 300, 0.01)]


def _identity_case(seed):
    """Seeded problem (G, c, X, y, lam, w0, skip, max_sweeps) for the bitwise check.

    The seed picks the shape, a cold or warm start, a skipped coordinate
    (nodewise form, c = G[skip]), zero columns, a KKT violator that cannot
    move (its diagonal is 0 but c is not: no (X, y) has one, so Gram form
    only) and the budget.
    """
    rng = np.random.default_rng(seed)
    d, n, frac = _IDENTITY_SHAPES[seed % 5]
    X = rng.standard_normal((n, d))
    X[:, 1:] = 0.5 * X[:, :-1] + np.sqrt(0.75) * X[:, 1:]
    theta = np.zeros(d)
    support = rng.choice(d, size=max(1, d // 3), replace=False)
    theta[support] = rng.uniform(0.3, 1.5, support.size) * rng.choice([-1.0, 1.0], support.size)
    if seed % 4 == 1:
        X[:, rng.choice(d, size=1 + d // 20, replace=False)] = 0.0
    y = X @ theta + 0.5 * rng.standard_normal(n)
    G, c = X.T @ X / n, X.T @ y / n
    skip = int(rng.integers(d)) if seed % 3 == 2 else -1
    if skip >= 0:
        c = G[skip].copy()
    max_sweeps = [1, 2, 7, 500, 10_000][(seed // 2) % 5]
    dead = np.flatnonzero(np.diag(G) == 0.0)
    if seed % 8 == 5 and dead.size:
        c[dead[0]] = 1.0
        # Tiny moves can keep every pass busy until the budget runs out.
        max_sweeps = min(max_sweeps, 300)
    lam = frac * max(np.abs(c).max(), 1e-3)
    w0 = np.zeros(d)
    if (seed // 5) % 2:
        warm = rng.choice(d, size=max(1, d // 4), replace=False)
        w0[warm] = rng.standard_normal(warm.size)
    return G, c, X, y, lam, w0, skip, max_sweeps


def _same(a, b):
    return np.asarray(a).tobytes() == np.asarray(b).tobytes()


@pytest.mark.parametrize("seed", range(60))
def test_bit_identical_to_scalar_reference(seed):
    G, c, X, y, lam, w0, skip, max_sweeps = _identity_case(seed)
    tols = (max_sweeps, 1e-9, 1e-7)
    w, w_ref = w0.copy(), w0.copy()
    u, *out = _dense_cd(G, c, lam, w, skip, *tols)
    u_ref, *out_ref = scalar_cd_gram(G, c, lam, w_ref, skip, *tols)
    assert out == out_ref  # sweeps, kkt and converged
    assert _same(w, w_ref) and _same(u, u_ref)
    if skip < 0:
        w, w_ref = w0.copy(), w0.copy()
        *out, g = _cd_residual(X, y, lam, w, *tols)
        *out_ref, g_ref = scalar_cd_columns(X, y, lam, w_ref, *tols)
        assert out == out_ref
        # The gradient written on every exit is the full one at the solution.
        assert _same(w, w_ref) and _same(g, g_ref)
        # The residual form solves the same problem with other roundoff.
        w_res = w0.copy()
        *out_res, g_res = scalar_cd_residual(X, y, lam, w_res, *tols)
        assert out[2] == out_res[2]
        assert np.abs(w - w_res).max() <= 1e-6 and np.abs(g - g_res).max() <= 1e-6


def test_settled_working_set_beside_unmovable_violator_stops():
    # Seed 29's Gram problem: a zero-diagonal coordinate violates KKT while
    # the working set keeps moving by less than coef_tol, but never by 0.
    # Without the settled stop it ran on for all MAX_SWEEPS sweeps (~47 s).
    G, c, _, _, lam, w0, skip, _ = _identity_case(29)
    w, w_ref = w0.copy(), w0.copy()
    t0 = time.process_time()
    u, *out = _dense_cd(G, c, lam, w, skip, MAX_SWEEPS, 1e-9, 1e-7)
    assert time.process_time() - t0 < 1.0
    sweeps, kkt, conv = out
    assert not conv and sweeps == MAX_SWEEPS and kkt > 0.9
    free = np.diag(G) > 0.0
    free[skip] = False
    assert _kernels.kkt_residual((c - G @ w)[free], w[free], lam) <= 1e-7
    u_ref, *out_ref = scalar_cd_gram(G, c, lam, w_ref, skip, MAX_SWEEPS, 1e-9, 1e-7)
    assert out == out_ref
    assert _same(w, w_ref) and _same(u, u_ref)


@pytest.mark.parametrize("max_sweeps", [0, 1, MAX_SWEEPS])
def test_zero_solution_returns_after_one_gradient(gradient_calls, working_sets, rng, max_sweeps):
    # Zero is optimal from a zero start: coordinate 2 is skipped although
    # |c_2| > lam, coordinate 5 has a zero diagonal and |c_5| < lam, and the
    # largest of the rest sits exactly at lam. Every form must return what
    # the full loop returns, bit for bit. The solver on the dense G runs
    # that loop: one gradient and one empty working set. cd_residual
    # returns before the solver starts, and the stack (fit_lasso_gram) runs
    # its own one pass.
    n, d, skip, dead = 30, 8, 2, 5
    X = rng.standard_normal((n, d))
    X[:, dead] = 0.0
    y = rng.standard_normal(n)
    G, c = X.T @ X / n, X.T @ y / n
    lam = float(np.abs(np.delete(c, [skip, dead])).max())
    c[skip], c[dead] = 10.0 * lam, -0.5 * lam
    tols = (max_sweeps, 1e-9, 1e-7)
    w, w_ref = np.zeros(d), np.zeros(d)
    u, *out = _dense_cd(G, c, lam, w, skip, *tols)
    u_ref, *out_ref = scalar_cd_gram(G, c, lam, w_ref, skip, *tols)
    assert out == out_ref and _same(u, u_ref) and _same(w, w_ref)
    assert out == ([1, 0.0, True] if max_sweeps else [0, 0.0, False])
    theta, u_fit, *out_fit = fit_lasso_gram(G, c[None], lam, skip=np.array([skip]), max_sweeps=max_sweeps)
    assert out_fit == out and _same(theta[0], w) and _same(u_fit[0], np.zeros(d))
    lam_r = float(np.abs(X.T @ y / n).max())
    for scale in (1.0, 1.5):
        w, w_ref = np.zeros(d), np.zeros(d)
        *out, g = _cd_residual(X, y, scale * lam_r, w, *tols)
        *out_ref, g_ref = scalar_cd_columns(X, y, scale * lam_r, w_ref, *tols)
        assert out == out_ref
        assert _same(w, w_ref) and _same(g, g_ref)
    if max_sweeps:
        # The dense solve's one pass; cd_residual never entered the solver.
        assert gradient_calls[0] == 1 and working_sets == [set()]


@pytest.fixture
def formed(monkeypatch):
    """Every product a column store forms, in order, as (store, indices,
    the product X.T @ X[:, indices] / n recomputed)."""
    seen = []
    form = _kernels.GramColumns.form

    def spy(store, X, J):
        missing = J[store.slot[J] < 0]
        form(store, X, J)
        if missing.size:
            seen.append((store, missing.tolist(), X.T @ X[:, missing] / X.shape[0]))

    monkeypatch.setattr(_kernels.GramColumns, "form", spy)
    return seen


def _held(store):
    """The indices a store holds, by slot."""
    held = np.flatnonzero(store.slot >= 0)
    return held[np.argsort(store.slot[held])].tolist()


def test_stored_columns_are_their_products_and_never_repeat(formed):
    # One store serves fits of one design for several responses, as a grid
    # point's store serves its replications: each column is formed once,
    # and its bits are those of the product that formed it.
    X, _ = _ar1_problem(2)
    n, d = X.shape
    store = _kernels.GramColumns(d)
    rng = np.random.default_rng(3)
    for _ in range(6):
        y = X[:, rng.choice(d, 4, replace=False)] @ rng.standard_normal(4) + rng.standard_normal(n)
        w = np.zeros(d)
        _, kkt, conv, g = _cd_residual(X, y, 0.1, w, MAX_SWEEPS, 1e-9, 1e-7, store)
        assert conv and kkt <= 1e-7 and w.any()
        assert set(np.flatnonzero(w).tolist()) <= set(_held(store))
    order = [j for _, missing, _ in formed for j in missing]
    assert len(order) == len(set(order)) == store.rows.shape[0] == store.kept
    assert _held(store) == order and len(formed) > 1
    for _, missing, product in formed:
        for i, j in enumerate(missing):
            assert _same(store.rows[store.slot[j]], product[:, i]), j


def test_zero_fit_stores_nothing(formed, problem):
    X, y = problem
    n, d = X.shape
    store = _kernels.GramColumns(d)
    lam = float(np.abs(X.T @ y / n).max())
    w = np.zeros(d)
    assert _cd_residual(X, y, lam, w, MAX_SWEEPS, 1e-9, 1e-7, store)[:3] == (1, 0.0, True)
    assert not formed and store.rows.shape == (0, d) and (store.slot == -1).all()


def test_budget_bounds_the_stores_that_share_it(problem):
    # Two stores share room for three columns. A fit uses every column it
    # forms, kept or not, so its result is that of an unbounded store; the
    # stores keep the columns they formed first, up to the budget.
    X, y = problem
    n, d = X.shape
    budget = _kernels.ColumnBudget(3 * 8 * d)
    stores = [_kernels.GramColumns(d, budget) for _ in range(2)]
    for store, lam in zip(stores, (0.05, 0.02)):
        w, w_free = np.zeros(d), np.zeros(d)
        out = _cd_residual(X, y, lam, w, MAX_SWEEPS, 1e-9, 1e-7, store)
        free = _kernels.GramColumns(d)
        out_free = _cd_residual(X, y, lam, w_free, MAX_SWEEPS, 1e-9, 1e-7, free)
        assert out[:3] == out_free[:3] and _same(w, w_free) and _same(out[3], out_free[3])
        assert out[2] and np.count_nonzero(w) > 3
        assert _held(store) == _held(free)[: store.kept]
    assert [s.kept for s in stores] == [3, 0]
    assert sum(s.rows.nbytes for s in stores) == 3 * 8 * d and budget.left == 0
    assert (stores[1].slot == -1).all()
    # A full store still fits, forming what it lacks for that fit only.
    w = np.zeros(d)
    _, kkt, conv, _ = _cd_residual(X, y, 0.05, w, MAX_SWEEPS, 1e-9, 1e-7, stores[0])
    assert conv and kkt <= 1e-7 and stores[0].kept == 3 and stores[0].rows.shape == (3, d)


def _stack_case(seed):
    """The identity case's Gram problem stacked with nodewise rows of its G:
    (G, C, W0, skip, lam, max_sweeps). Row 0 is the case's own c, skip and
    start; the next rows regress columns of G on the others from 0; the last
    is the case's c and start with no skipped coordinate."""
    G, c, _, _, lam, w0, skip, max_sweeps = _identity_case(seed)
    d = G.shape[0]
    cols = np.random.default_rng(seed).choice(d, size=min(d, 6), replace=False)
    C = np.vstack([c, G[cols], c])
    skips = np.concatenate([[skip], cols, [-1]])
    W0 = np.vstack([w0, np.zeros((cols.size, d)), w0])
    return G, C, W0, skips, lam, max_sweeps


def _close(a, b, rel=1e-12):
    return np.abs(a - b).max(initial=0.0) <= rel * max(1.0, np.abs(b).max(initial=0.0))


@pytest.mark.parametrize("seed", range(40))
def test_stack_rows_follow_the_single_problem_solver(seed):
    # Per-row skip, zero-diagonal columns, an unmovable violator, warm
    # starts and budgets from 1 sweep up: each row must stop where the
    # single-problem solver stops (its reference, which keeps a skipped
    # coordinate). Only the gradient's summation order differs, so
    # coefficients agree to roundoff.
    G, C, W0, skips, lam, max_sweeps = _stack_case(seed)
    W = W0.copy()
    U, sweeps, kkt, conv = _kernels.cd_gram_stack(G, C, lam, W, skips, max_sweeps, 1e-9, 1e-7)
    for r in range(C.shape[0]):
        w = W0[r].copy()
        u, s, k, cv = scalar_cd_gram(G, C[r].copy(), lam, w, int(skips[r]), max_sweeps, 1e-9, 1e-7)
        assert (sweeps[r], conv[r]) == (s, cv)
        assert np.array_equal(W[r] != 0, w != 0)
        assert _close(W[r], w) and _close(U[r], u)
        assert kkt[r] == pytest.approx(k, abs=1e-12)


def test_stack_skip_and_zero_diagonal_stay_zero(rng):
    n, d, skip, dead = 40, 8, 2, 5
    X = rng.standard_normal((n, d))
    X[:, dead] = 0.0
    # Coordinate ``skip`` carries signal, so it would leave 0 if it could enter.
    y = X[:, :4] @ np.array([1.0, -1.0, 2.0, 0.5]) + 0.1 * rng.standard_normal(n)
    G, c = X.T @ X / n, X.T @ y / n
    C = np.vstack([c, G[0], G[3], c])
    skips = np.array([skip, 0, 3, -1])
    W = np.full((4, d), 0.3)
    _, _, kkt, conv = _kernels.cd_gram_stack(G, C, 0.05, W, skips, 1000, 1e-9, 1e-7)
    assert conv.all() and (kkt <= 1e-7).all()
    assert not W[:, dead].any()
    assert W[0, skip] == 0.0 and W[1, 0] == 0.0 and W[2, 3] == 0.0
    assert W[3, skip] != 0.0  # the row that skips nothing uses the signal


def test_stack_max_sweeps_caps_all_outer_passes():
    X, y = _ar1_problem(1)
    n, d = X.shape
    G, c = X.T @ X / n, X.T @ y / n
    W0 = np.zeros((2, d))
    W0[1, [0, 15, 25]] = 0.5  # a start on the wrong support
    needed = _kernels.cd_gram_stack(G, np.vstack([c, c]), 0.1, W0.copy(), np.full(2, -1),
                                    10_000, 1e-9, 1e-7)[1]
    assert needed.min() > 4
    for budget in (1, 2, needed.min() // 2, needed.min() - 1):
        _, sweeps, _, conv = _kernels.cd_gram_stack(
            G, np.vstack([c, c]), 0.1, W0.copy(), np.full(2, -1), budget, 1e-9, 1e-7
        )
        assert (sweeps == budget).all() and not conv.any()


def test_stack_zero_diagonal_violators_stop_within_budget():
    # Coordinate 1 violates KKT in both rows (|c_1| > lam) but cannot move.
    G = np.diag([1.0, 0.0, 2.0])
    C = np.array([[0.5, 1.0, -0.4], [0.05, 1.0, 0.0]])
    W = np.zeros((2, 3))
    t0 = time.process_time()
    _, sweeps, kkt, conv = _kernels.cd_gram_stack(G, C, 0.1, W, np.full(2, -1), MAX_SWEEPS, 1e-9, 1e-7)
    assert time.process_time() - t0 < 1.0
    assert (sweeps == MAX_SWEEPS).all() and not conv.any()
    assert kkt == pytest.approx([0.9, 0.9])
    assert W.ravel().tolist() == pytest.approx([0.4, 0.0, -0.15, 0.0, 0.0, 0.0])


def test_stack_settled_working_set_beside_unmovable_violator_stops(monkeypatch):
    # Seed 29's Gram problem (see the single-problem test above) stacked with
    # a nodewise row. Without the settled stop its row would sweep on until
    # MAX_SWEEPS; count the sweeps the lockstep loop actually runs.
    spent = []
    sweep = _kernels._lockstep_sweeps

    def counting(gA, wA, blocks, lam, sweeps, *rest):
        before = sweeps.copy()
        out = sweep(gA, wA, blocks, lam, sweeps, *rest)
        spent.append(int((sweeps - before).max()))
        return out

    monkeypatch.setattr(_kernels, "_lockstep_sweeps", counting)
    G, C, W0, skips, lam, _ = _stack_case(29)
    W = W0[:2].copy()
    _, sweeps, kkt, conv = _kernels.cd_gram_stack(G, C[:2], lam, W, skips[:2], MAX_SWEEPS, 1e-9, 1e-7)
    assert sum(spent) < 1000
    assert sweeps[0] == MAX_SWEEPS and not conv[0] and kkt[0] > 0.9
    assert conv[1] and kkt[1] <= 1e-7
    w = W0[0].copy()
    assert scalar_cd_gram(G, C[0].copy(), lam, w, int(skips[0]), MAX_SWEEPS, 1e-9, 1e-7)[1:] == (
        MAX_SWEEPS, pytest.approx(kkt[0], abs=1e-12), False
    )
    assert _close(W[0], w)
