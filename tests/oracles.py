"""Independent reference implementations used as test oracles.

These deliberately avoid the library's solver paths: FISTA instead of
coordinate descent, normal equations instead of orthogonal factorization,
plain loops instead of vectorized folds.
"""

import math

import numpy as np


def lasso_objective(X, y, lam, theta):
    n = X.shape[0]
    r = y - X @ theta
    return float(r @ r / (2 * n) + lam * np.abs(theta).sum())


def fista_lasso(X, y, lam, iters=20000, tol=1e-14):
    """Accelerated proximal gradient on the lasso objective."""
    n, d = X.shape
    G = X.T @ X / n
    c = X.T @ y / n
    L = float(np.linalg.eigvalsh(G)[-1])
    if L <= 0:
        return np.zeros(d)
    step = 1.0 / L
    w = np.zeros(d)
    z = w.copy()
    t = 1.0
    prev_obj = np.inf
    for k in range(iters):
        grad = G @ z - c
        w_new = z - step * grad
        w_new = np.sign(w_new) * np.maximum(np.abs(w_new) - lam * step, 0.0)
        t_new = (1.0 + math.sqrt(1.0 + 4.0 * t * t)) / 2.0
        z = w_new + ((t - 1.0) / t_new) * (w_new - w)
        w, t = w_new, t_new
        if k % 50 == 49:
            obj = lasso_objective(X, y, lam, w)
            if abs(prev_obj - obj) <= tol * max(1.0, abs(obj)):
                break
            prev_obj = obj
    return w


def soft_threshold(z, gamma):
    """Elementwise sign(z) * max(|z| - gamma, 0)."""
    z = np.asarray(z, dtype=np.float64)
    return np.sign(z) * np.maximum(np.abs(z) - gamma, 0.0)


def normal_equations_ols(X_S, y):
    """Least squares on a column subset, (X_S'X_S)^-1 X_S'y, by solving the
    normal equations."""
    A = X_S.T @ X_S
    return np.linalg.solve(A, X_S.T @ y)


def svd_gram_inverse(X_S):
    """(X_S'X_S)^-1 of a column subset, or of each matrix of a stack, from
    the thin SVD X_S = U diag(s) V' alone, as V diag(1/s^2) V', under
    ``np.linalg.lstsq``'s rank rule: full rank when the smallest singular
    value exceeds eps * max(n, k) times the largest. Raises ValueError
    unless every matrix is. The reference for ``restricted_gram_inverse``,
    whose SVD fallback must equal it bit for bit."""
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


def naive_covariance(X):
    n, d = X.shape
    out = np.zeros((d, d))
    for i in range(d):
        for j in range(d):
            s = 0.0
            for k in range(n):
                s += X[k, i] * X[k, j]
            out[i, j] = s / n
    return out


def naive_debias(X, y, theta_tilde, omega):
    n, d = X.shape
    resid = [y[i] - sum(X[i, j] * theta_tilde[j] for j in range(d)) for i in range(n)]
    corr = [sum(X[i, j] * resid[i] for i in range(n)) / n for j in range(d)]
    return np.array(
        [theta_tilde[k] + sum(omega[k, j] * corr[j] for j in range(d)) for k in range(d)]
    )


def dense_rows(rows):
    """The dense d x d matrix of ``debias.SparseRows``, filled row by row."""
    d = rows.indptr.size - 1
    out = np.zeros((d, d))
    for i in range(d):
        lo, hi = int(rows.indptr[i]), int(rows.indptr[i + 1])
        for k in range(lo, hi):
            out[i, int(rows.indices[k])] = rows.data[k]
    return out


def sparse_rows(A):
    """``debias.SparseRows`` holding the nonzeros of the square matrix A."""
    from votelasso.debias import SparseRows

    A = np.asarray(A, dtype=np.float64)
    indptr, indices, data = [0], [], []
    for row in A:
        for j, v in enumerate(row):
            if v != 0.0:
                indices.append(j)
                data.append(v)
        indptr.append(len(indices))
    return SparseRows(indptr=np.array(indptr), indices=np.array(indices), data=np.array(data))


def dense_precision(X, lam, coef_tol=None):
    """Omega_hat as a dense d x d array from the per-column path that
    ``estimate_precision`` took before its lockstep solve: one scalar
    solve per column (``scalar_cd_gram``, with column i skipped),
    warm-started from the previous column's solution; row i is
    -w / tau_i^2 with 1 / tau_i^2 on the diagonal.
    ``coef_tol`` defaults to the library's ``COEF_TOL``; a far smaller one
    makes the reference exact well below the solver tolerance.
    Returns (omega, tau_sq)."""
    from votelasso.lasso import COEF_TOL, KKT_TOL, MAX_SWEEPS

    coef_tol = COEF_TOL if coef_tol is None else coef_tol
    d = X.shape[1]
    G = X.T @ X / X.shape[0]
    omega = np.zeros((d, d))
    tau_sq = np.empty(d)
    w = np.zeros(d)
    for i in range(d):
        c = np.ascontiguousarray(G[i])
        u, _, _, _ = scalar_cd_gram(G, c, lam, w, i, MAX_SWEEPS, coef_tol, KKT_TOL)
        rss_n = G[i, i] - 2.0 * (c @ w) + w @ u
        tau2 = rss_n + lam * np.abs(w).sum()
        tau_sq[i] = tau2
        omega[i] = -w / tau2
        omega[i, i] = 1.0 / tau2
    return omega, tau_sq


def naive_tally(payloads, d):
    """payloads: list of lists of (index, sign) or bare indices."""
    votes = [0] * d
    signs = [0] * d
    for payload in payloads:
        for item in payload:
            if isinstance(item, tuple):
                idx, sgn = item
                votes[idx] += 1
                signs[idx] += sgn
            else:
                votes[item] += 1
    return np.array(votes), np.array(signs)


def loop_tally_fault(messages, d):
    """The exception ``fusion.tally`` documents for ``messages``, or None
    when it accepts them: a plain loop over the machines in id order, each
    taken through the checks in their documented order (a repeated sender,
    a payload that is not a vote, indices not a 1-D integer array, signs not
    integers, indices not strictly increasing in [0, d), other than one sign
    per index, a sign not +-1), element by element in Python."""
    from votelasso.protocol import IndexSet, SignedIndexSet

    seen = set()
    for msg in sorted(messages, key=lambda m: m.machine_id):
        machine, payload = msg.machine_id, msg.payload
        if machine in seen:
            return ValueError(f"duplicate sender {machine}")
        seen.add(machine)
        if not isinstance(payload, (IndexSet, SignedIndexSet)):
            return TypeError("tally expects IndexSet or SignedIndexSet payloads")
        indices = np.asarray(payload.indices)
        if indices.ndim != 1 or not np.issubdtype(indices.dtype, np.integer):
            return ValueError(f"machine {machine}: indices must be a 1-D integer array")
        signed = isinstance(payload, SignedIndexSet)
        if signed and not np.issubdtype(np.asarray(payload.signs).dtype, np.integer):
            return ValueError(f"machine {machine}: signs must be integers")
        values = [int(i) for i in indices]
        for prev, i in zip([-1, *values], values):
            if not prev < i < d:
                return ValueError(f"machine {machine}: indices must be strictly increasing in [0, {d})")
        if signed:
            signs = np.asarray(payload.signs)
            if signs.shape != indices.shape:
                return ValueError(f"machine {machine}: {signs.size} signs for {indices.size} indices")
            if any(int(s) not in (-1, 1) for s in signs):
                return ValueError(f"machine {machine}: signs must be -1 or +1")
    return None


def loop_shards(spec, rep=0, n=None):
    """The designs ``datagen.sample_shards`` draws, machine by machine: each
    slab's standard normal draw from its own stream, then the AR(1) column
    recursion run on that slab alone. The bitwise reference for the stacked
    recursion; do not batch it."""
    from votelasso.datagen import TAG_DESIGN, stream

    n = spec.n if n is None else n
    s = spec.corr_decay
    q = math.sqrt(1.0 - s * s)
    slabs = []
    for m in range(spec.M):
        Z = stream(spec.base_seed, TAG_DESIGN, rep, m).standard_normal((n, spec.d))
        if s != 0.0:
            for j in range(1, spec.d):
                Z[:, j] = s * Z[:, j - 1] + q * Z[:, j]
        slabs.append(Z)
    return np.array(slabs)


def loop_response(point, rep, m):
    """Machine m's responses in replication ``rep``: its noise drawn at the
    design's n_cal from its own stream and cut to the point's n, as
    ``harness`` drew it before its noise streams, and X_m theta* plus sigma
    times it."""
    from votelasso.datagen import TAG_NOISE, stream

    design = point.design
    w = stream(design.spec.base_seed, TAG_NOISE, rep, m).standard_normal(design.n_cal)[: point.n]
    return design.X[m][: point.n] @ point.theta_star + point.config.spec.sigma_value() * w


def loop_xty(point, rep):
    """Every machine's X'y in replication ``rep``, machine by machine, as
    the replication's block forms it: in fixed-design mode, for ``rep``
    below the point's ``config.reps``, the row of ``rep`` in one
    (B, n) @ X_m product over the machine's responses (``loop_response``)
    in the replications of its aligned block (from rep - rep mod
    ``harness.REP_BLOCK``, at most that many, cut at ``config.reps``);
    otherwise the (1, n) @ X_m product of its own responses. Returns the
    (M, d) rows. The bitwise reference for the blocked X'Y; do not batch it
    over machines."""
    from votelasso.harness import REP_BLOCK

    config = point.config
    if config.fixed_design and 0 <= rep < config.reps:
        start = rep - rep % REP_BLOCK
        reps = range(start, min(start + REP_BLOCK, config.reps))
    else:
        reps = range(rep, rep + 1)
    rows = []
    for m in range(point.M):
        Y = np.array([loop_response(point, r, m) for r in reps])
        rows.append((Y @ point.design.X[m][: point.n])[rep - reps[0]])
    return np.array(rows)


def loop_rep_fits(point, rep):
    """Round one machine by machine, as ``harness._rep_fits`` computed it
    before its stacked pass: noise, response, X'y/n, lasso, debiasing and
    standardization, each a separate call per machine. Each machine's fit
    starts from its row of ``loop_xty`` and debiases with the
    X'(y - X theta_tilde)/n of its own fit, the solver's last gradient. Its
    precision estimate is the design's when the point reuses it (at n_cal,
    or under ``config.precision_reuse``), else the nodewise estimate of its
    first n rows, and its sandwich diagonal is formed from those rows.
    Every setting is the point's own config's. The bitwise reference for
    the stacked pass; do not batch it. Each fit reads its machine's column
    store on the point, so after a stacked pass it reads the Gram columns
    that pass formed, as a later replication of the point would. Returns what ``_rep_fits`` returns, (theta_tilde,
    theta_hat, xi, converged, sweeps, kkt, xty, Y), each stacked from the
    per-machine results."""
    from votelasso.debias import estimate_precision, noise_scale, sandwich_diag, standardize
    from votelasso.lasso import fit_lasso

    design, config = point.design, point.config
    n, sigma = point.n, config.spec.sigma_value()
    reuse = n == design.n_cal or config.precision_reuse
    xtys = loop_xty(point, rep)
    rows = []
    for m in range(point.M):
        X = design.X[m][:n]
        y = loop_response(point, rep, m)
        fit = fit_lasso(X, y, config.lam_at(), columns=point.columns[m], xty=xtys[m])
        theta_t, sweeps, kkt, conv, grad = (
            fit.coefficients, fit.iterations, fit.max_kkt_violation, fit.converged, fit.gradient
        )
        omega = design.omegas[m] if reuse else estimate_precision(X, config.lam_omega_at(n)).omega_hat
        theta_h = theta_t + omega.matvec(grad)
        xi = standardize(theta_h, noise_scale(sandwich_diag(omega, X), sigma), n)
        rows.append((theta_t, theta_h, xi, bool(conv), int(sweeps), float(kkt), xtys[m], y))
    return tuple(np.array(column) for column in zip(*rows))


def loop_oracle_gram(point):
    """The oracle's pooled Gram on the true support S accumulated from
    zeros one machine at a time, each machine's X_S'X_S its own product
    ``Xsub.T @ Xsub``, as ``harness.materialize`` formed it before it summed
    the stacked Grams. The bitwise reference for that sum; do not batch it."""
    S = point.design.support
    gram = np.zeros((S.size, S.size))
    for m in range(point.M):
        Xsub = point.design.X[m][: point.n, S]
        gram += Xsub.T @ Xsub
    return gram


def loop_oracle_error(point, rep):
    """``harness._oracle_error`` of replication ``rep`` accumulating
    X_{m,S}'y_m one machine at a time, each read off the machine's own X'y
    (``loop_xty``)."""
    S = point.design.support
    xty = loop_xty(point, rep)
    v = np.zeros(S.size)
    for m in range(point.M):
        v += xty[m][S]
    beta = np.linalg.solve(point.oracle_gram, v)
    theta = np.zeros(point.design.spec.d)
    theta[S] = beta
    return float(np.linalg.norm(theta - point.theta_star))


def loop_round1_messages(rule, point, theta_hat, xi):
    """Round-one messages machine by machine, as ``harness`` built them
    before its stacked selection: each machine's threshold mask or stable
    top-L (``stable_top_k``) of its own xi row, with the signs of the sent
    entries (a zero sends +1), or a copy of its theta_hat row. The bitwise
    reference for the stacked selections; do not batch it."""
    from votelasso.protocol import DenseEstimate, IndexSet, Message, SignedIndexSet

    msgs = []
    for m in range(point.M):
        row = xi[m]
        if rule == "avg_deblasso":
            payload = DenseEstimate(theta_hat[m].copy())
        else:
            if rule.startswith("thresh"):
                idx = np.flatnonzero(np.abs(row) > point.config.tau_at())
            else:
                idx = stable_top_k(row, point.config.resolved_L())
            signs = np.array([-1 if v < 0 else 1 for v in row[idx]], dtype=np.int64)
            payload = SignedIndexSet(idx, signs) if rule.endswith("signs") else IndexSet(idx)
        msgs.append(Message(m, payload))
    return msgs


def loop_tallies(messages, d):
    """Each vote rule's tally of its own messages, counted machine by
    machine (``naive_tally``), as ``harness`` tallied them before one tally
    served both rules of a selection: rule -> ``fusion.VoteTally`` for
    every rule of ``messages`` (rule -> its messages) but the dense one.
    The reference for the shared tallies; do not share them."""
    from votelasso import fusion
    from votelasso.protocol import SignedIndexSet

    tallies = {}
    for rule, msgs in messages.items():
        if rule == "avg_deblasso":
            continue
        payloads = []
        for msg in msgs:
            p = msg.payload
            indices = [int(i) for i in p.indices]
            payloads.append(list(zip(indices, map(int, p.signs))) if isinstance(p, SignedIndexSet) else indices)
        votes, signs = naive_tally(payloads, d)
        tallies[rule] = fusion.VoteTally(votes.astype(np.int64), signs.astype(np.int64), len(msgs))
    return tallies


def loop_second_round(point, rep, support):
    """``harness._second_round`` of replication ``rep`` machine by machine:
    each machine reads its X_S'y off its own X'y (``loop_xty``), gathers its
    own restricted design and sends (X_S'X_S)^-1 X_S'y, factored on its
    own, or X_S'X_S and X_S'y, as the point's ``config.second_round`` says.
    Returns (theta_hat, total bits). The bitwise
    reference for the stacked round two; do not batch it."""
    from votelasso import fusion
    from votelasso.lasso import restricted_gram_inverse
    from votelasso.protocol import GramSummary, Message, RestrictedEstimate, bit_cost

    rule, d = point.config.second_round, point.config.spec.d
    xtys = loop_xty(point, rep)
    msgs = []
    for m in range(point.M):
        X_S, xty = point.design.X[m][: point.n, support], xtys[m][support]
        if rule == "gram_exact":
            payload = GramSummary(support, X_S.T @ X_S, xty)
        else:
            payload = RestrictedEstimate(support, restricted_gram_inverse(X_S) @ xty)
        msgs.append(Message(m, payload))
    fold = fusion.centralized_ls if rule == "gram_exact" else fusion.aggregate_round2
    return fold(msgs, support, d), sum(bit_cost(msg, d) for msg in msgs)


def loop_aggregate(values, support, d):
    """The round-2 average of ``fusion.aggregate_round2``, summing the
    machines' restricted estimates one at a time in the order given."""
    acc = np.zeros(len(support))
    for v in values:
        acc += v
    theta = np.zeros(d)
    theta[support] = acc / len(values)
    return theta


# Active-set coordinate descent in its plainest form: NumPy scalars, the
# KKT residual on every pass, and one early stop only: a one-sweep pass
# that moved nothing by ``coef_tol`` or more while the KKT residual of the
# free coordinates is within tolerance ends the solve out of budget. It is
# the bitwise reference for ``_kernels._active_set_cd`` on a dense Gram
# matrix and, through the column form, for ``_kernels.cd_residual``, which
# must return the same coefficients, sweeps, residual and flag, and
# ``cd_residual`` the same last gradient; do not optimize it. The Gram form
# keeps a skipped coordinate, so it is also the single-problem reference for
# the rows of ``_kernels.cd_gram_stack``. The residual form, X'(y - X w)/n formed from X on
# every pass, solves the same problem with other roundoff: the kernels are
# cross-checked against it to a tolerance.


def _scalar_soft_threshold(z, gamma):
    # |z| == gamma maps to 0: the subgradient contains 0 there.
    if z > gamma:
        return z - gamma
    if z < -gamma:
        return z + gamma
    return 0.0


def _where_kkt_residual(g, w, lam, skip=-1):
    v = np.where(w == 0.0, np.abs(g) - lam, np.abs(g - lam * np.sign(w)))
    if skip >= 0:
        v[skip] = 0.0
    return float(v.max(initial=0.0))


def _scalar_active_set_cd(gradient, block, diag, lam, w, skip, max_sweeps, coef_tol, kkt_tol):
    free = diag > 0.0
    if skip >= 0:
        free[skip] = False
    w[~free] = 0.0
    sweeps, inner_converged, pass_delta = 0, False, np.inf
    while True:
        g = gradient(np.flatnonzero(w))
        kkt = _where_kkt_residual(g, w, lam, skip)
        converged = inner_converged and kkt <= kkt_tol
        if converged or sweeps >= max_sweeps:
            return sweeps, kkt, converged, g
        if pass_delta < coef_tol and _where_kkt_residual(g[free], w[free], lam) <= kkt_tol:
            return max_sweeps, kkt, False, g
        A = np.flatnonzero(free & ((w != 0.0) | (np.abs(g) > lam)))
        B = block(A)
        gA, wA = g[A], w[A]
        inner_converged, pass_delta = False, 0.0
        while sweeps < max_sweeps and not inner_converged:
            sweeps += 1
            max_delta = 0.0
            for k in range(A.size):
                bkk = B[k, k]
                wk = _scalar_soft_threshold(gA[k] + bkk * wA[k], lam) / bkk
                delta = wk - wA[k]
                if delta != 0.0:
                    gA -= delta * B[k]
                    wA[k] = wk
                    max_delta = max(max_delta, abs(delta))
            inner_converged = max_delta < coef_tol
            pass_delta = max(pass_delta, max_delta)
        w[A] = wA


def scalar_cd_gram(G, c, lam, w, skip, max_sweeps, coef_tol, kkt_tol):
    """The solver on a dense Gram matrix with coordinate ``skip`` (if >= 0)
    held at zero and left out of the KKT residual. ``w`` is updated in
    place. Returns (u, sweeps, kkt, converged) with u = G @ w."""
    sweeps, kkt, converged, _ = _scalar_active_set_cd(
        lambda nz: c - w[nz] @ G[nz],
        lambda A: G[np.ix_(A, A)],
        np.diag(G),
        lam, w, skip, max_sweeps, coef_tol, kkt_tol,
    )
    nz = np.flatnonzero(w)
    return w[nz] @ G[nz], sweeps, kkt, converged


def scalar_cd_columns(X, y, lam, w, max_sweeps, coef_tol, kkt_tol):
    """Reference for ``_kernels.cd_residual`` from an empty column store,
    without its precomputed inputs and output array: returns its (sweeps,
    kkt, converged) and then the gradient it writes. Each pass forms the
    Gram columns its coordinates need and it lacks, in increasing order, as
    one product X'X[:, missing]/n, and keeps them in a dict; the gradient
    is c - G[:, nz] w_nz and the block entry (k, l) is column A[k]'s entry
    A[l]."""
    n = X.shape[0]
    c = X.T @ y / n
    cols = {}

    def have(J):
        missing = [j for j in J.tolist() if j not in cols]
        if missing:
            new = X.T @ X[:, missing] / n
            for i, j in enumerate(missing):
                cols[j] = new[:, i]

    def gradient(nz):
        if not nz.size:
            return c
        have(nz)
        return c - w[nz] @ np.array([cols[j] for j in nz.tolist()])

    def block(A):
        have(A)
        return np.array([[cols[j][i] for i in A.tolist()] for j in A.tolist()]).reshape(A.size, A.size)

    return _scalar_active_set_cd(
        gradient, block, np.einsum("ij,ij->j", X, X) / n, lam, w, -1, max_sweeps, coef_tol, kkt_tol
    )


def scalar_cd_residual(X, y, lam, w, max_sweeps, coef_tol, kkt_tol):
    """The residual form of ``scalar_cd_columns``: the same solver with the
    gradient X'(y - X w)/n formed from X on every pass. Returns (sweeps,
    kkt, converged) and then the gradient at the returned w."""
    n = X.shape[0]

    def block(A):
        XA = X[:, A]
        return XA.T @ XA / n

    return _scalar_active_set_cd(
        lambda nz: X.T @ (y - X[:, nz] @ w[nz]) / n,
        block,
        np.einsum("ij,ij->j", X, X) / n,
        lam, w, -1, max_sweeps, coef_tol, kkt_tol,
    )


def stable_top_k(scores, k):
    """The top-k rule of ``protocol.round1_top_L`` and ``fusion.select_topk``
    before ``protocol.select_top_k``: the first k of a stable argsort of
    -|scores|, increasing. Ties go to the lower index and NaN ranks last.
    The reference for the partition-based selection; do not optimize it."""
    return np.sort(np.argsort(-np.abs(np.asarray(scores)), kind="stable")[:k])


def tied_scores(rng, count, d_max=12):
    """``count`` seeded (scores, k) cases for top-k selection: 1-D float
    arrays of 1 to ``d_max`` entries drawn from a few repeated values, -0.0,
    +-inf, NaN and normals, so ties at the k-th magnitude are common. The
    first quarter of the cases take k = 1, the second k = d, the rest k
    uniform in [1, d]."""
    pool = np.array([0.0, -0.0, 1.0, -1.0, 2.0, -2.0, 0.5, np.inf, -np.inf, np.nan])
    cases = []
    for i in range(count):
        d = int(rng.integers(1, d_max + 1))
        s = np.where(rng.random(d) < 0.6, rng.choice(pool, d), rng.standard_normal(d))
        k = 1 if i < count // 4 else d if i < count // 2 else int(rng.integers(1, d + 1))
        cases.append((s, k))
    return cases
