"""Experiment orchestration: the two-round schemes end to end, baselines,
metrics, and seeded replication sweeps with bit-exact communication accounting.

A replication (``run_point_rep``) is one pass in the order the protocol
runs, and its schemes share the work they have in common: the local fits
and the oracle, then one round-1 message set per round-1 rule (``bnm21``
and ``thresh_votes`` send the same thresholded votes) and one read-only
tally per round-1 selection (``_tallies``: every vote rule of a selection,
and ``bnm21``, reads that selection's one tally), then each scheme's own
selection, then one round two per distinct selected support, then each
scheme's record. Each record reports the shared time once as
``shared_time`` and its scheme's own selection and record as
``wall_time``.

Simulation protocol (fixed-design mode, the default): design matrices are
drawn once per experiment, each machine's precision matrix is estimated once
on its full design, the largest sandwich-variance entry calibrates the
planted signal, and only the noise is redrawn across replications. Sweeps
over n reuse the decorrelation matrices fitted at the largest sample size
(``precision_reuse``), mirroring a semi-supervised setting; sweeps over M
calibrate on the largest machine count and use prefixes.

A design stores its machines stacked as ``datagen`` draws them:
``DesignState.X`` is the C-contiguous (m_cal, n_cal, d) array of
``sample_shards`` and the sandwich diagonals one (m_cal, d) array, so a grid
point's machines are the prefix ``X[:M, :n]``.

A grid point (``PointState``) holds everything of a replication that does
not depend on its noise: the planted theta*, the noiseless responses
X_m theta* of its M machines as one (M, n) array (``x_theta``), the
machines' precision estimates as one block-diagonal matrix (``omega``,
``debias.block_diagonal``), sigma sqrt(c_kk) of their sandwich diagonals,
checked once, the denominator of every replication's standardization
(``xi_scale``, ``debias.noise_scale``), the diagonals of their X'X/n
(``gram_diag``, one stacked product), one store per machine of the Gram
columns X'x_j/n its fits have needed so far (``columns``,
``_kernels.GramColumns``), the oracle's pooled Gram (``oracle_gram``: the
machine-order ``fusion.sum_rows`` of the machines' X_S'X_S on the true
support, the stacked product ``lasso.restricted_gram`` that ``gram_exact``
round two sends), the round-two operands met so far and the buffers of
its replication blocks (``block``, see below). The precision estimates
and sandwich diagonals themselves stay ``materialize``'s locals; no point
holds seed words. A replication (``_rep_fits``) then computes only what
depends on its noise, as one batched pass over the prefix where the
arithmetic is the same on every machine: the (M, n) noise, bit for bit
``sample_noise``'s, and responses x_theta + sigma W, X'y (returned as
``LassoFit.xty``: over n, every lasso's gradient at zero), one
block-diagonal mat-vec and the standardization.

X'y is one memory-bound pass over every machine's X, and in fixed-design
mode every replication of a point reads the same X. So every replication
is a row of exactly one block. A fixed-design point's replications 0 to
``reps`` - 1 come in aligned blocks of ``REP_BLOCK``: replication r
belongs to the block that starts at r - r mod ``REP_BLOCK``, cut at
``reps``. Any other replication, and every replication in redraw mode,
whose point serves one, is a block of one. The first time a replication
of a block is asked for, ``_block_rows`` draws the noise of all the
block's replications straight into the point's (M, B, n) response buffer
with one ``datagen.fill_streams`` call (one seeding pass and one fill),
and forms their X'Y in one (M, B, n) @ (M, n, d) product into its
(M, B, d) buffer; every replication of the block then reads its rows of
the two. The buffers (``PointState.block``) are reused from block to
block, so no block faults in fresh pages. A block row of X'Y has the bits
of the (B, n) @ X_m product of its block, which may differ in the last
bits from a one-replication ``y @ X_m``; a block of one's row has those
bits. So a replication's X'y depends on the block it belongs to and on
nothing else: one asked for alone on a fresh point gets the X'y, and at
zero fits the record, that it has in the full sweep. Every other row of
these steps equals the single-machine result bit for bit, and sums over
machines add them in machine order (``fusion.sum_rows``). Three steps
stay per machine. Each machine's noise row comes from its own seeded
stream. Each lasso fit solves that machine's own problem, and the fits
are the call sites the benchmark's probes count: one ``fit_lasso`` call
per replication for the whole stack, which checks every machine's inputs
at once, takes the replication's X'y from its block, tests once over the
stack which machines' zero start is already optimal
and makes one ``_kernels.cd_residual`` call per machine, handing each its
row's answer. A fit takes its row of the point's ``gram_diag`` for its
check that X is finite, so it does not form it again. A nonzero fit
reads the Gram columns of its working sets from its machine's store and
forms those the store lacks in one product per solver pass; a zero fit
(every fit at the default lambda) touches no store. The stores of a point
keep their columns across its replications, up to ``GRAM_CACHE_BYTES``
for the point in all; a column's bits are those of the product that
formed it, so a nonzero fit may differ in the last bits depending on which
replications of the point ran before it. No machine forms a residual: the
debiasing mat-vec takes each machine's X'(y - X theta_tilde)/n from its
fit, the solver's last gradient X'y/n - G theta_tilde
(``LassoFit.gradient``); a zero fit's is its row of X'y/n.

Messages are batched the same way. Each round-1 rule's selection runs once
per replication for all M machines (``protocol.select_threshold``,
``select_top_k`` and ``selected_signs`` on the (M, d) xi), and the rules
that send one selection (``_SELECTION``) take it from the pass's
``selections`` (``_round1_messages``): ``thresh_votes`` (so ``bnm21``)
with ``thresh_signs``, ``top_L_votes`` with ``top_L_signs``. Each
selection is tallied once, from the signed rule's messages when it runs,
and all its rules read that tally.
Round two on a support S reads every machine's X_S'y as column S of the
replication's X'y, as a real machine would from the product its round-one
fit already formed, so no replication forms a product over X for round
two or for the oracle, whose pooled X_S'y is the machine-order sum of the
same columns. Under ``gram_exact`` a machine sends its row of those
columns; under ``average`` it sends its least-squares fit, all M from one
stacked product with the inverse Grams. Each message is still built by its
own ``protocol`` call, once per machine, which takes only that machine's
payload, its row of the stacked result, and wraps it; the benchmark's
probes count and time those calls, so their spans time the messages only
and the stacked work counts as harness time.

Round two also needs, per machine, an operand that depends only on the
design and S: the inverse Gram (X_S'X_S)^-1 under ``average`` and the Gram
X_S'X_S under ``gram_exact``. ``PointState.round2`` keeps it per grid
point, rule and support, formed for all M machines from one gather of the
restricted designs X[:M, :n][:, :, S] the first time a replication selects
S under that rule (``_round2_operand``); the gathered designs are dropped
afterwards. The Grams are one stacked product; the inverse Grams come from
one LAPACK inverse of the stack of those products, each certified well
conditioned by ||G||_F ||G^-1||_F, and a machine's thin SVD runs only when
its certificate fails (``lasso.restricted_gram_inverse``). A
rank-deficient support's ValueError is kept the same way. Every
``materialize`` starts with an empty cache, empty column stores and no
replication block, so each ``run_sweep`` call, each grid point and, in
redraw mode, each replication starts cold.

The tuning quantities (vote threshold, lasso and nodewise penalties) are
each one ``ExperimentConfig`` field, a rule name or a number, resolved at
each grid point's r and n. The lasso penalty is also a sweep axis
(``"lam"``): every value is its own grid point, with fresh column stores
and cold fits, on the design's one precision estimate, whose penalty
``lam_omega`` is a design quantity.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import fusion, protocol
from .datagen import (
    TAG_NOISE,
    TAG_THETA,
    ProblemSpec,
    compute_c_omega,
    fill_streams,
    make_theta_star,
    sample_shards,
    stream,
    theta_min_from_snr,
)
from .debias import (
    SparseRows,
    block_diagonal,
    debias,
    estimate_precision,
    noise_scale,
    sandwich_diag,
    standardize,
)
from ._kernels import ColumnBudget, GramColumns, gram_diagonal
# No run path calls ``fit_lasso_gram`` here. The name stays only because the
# benchmark's probes (perfbench/probes.py) wrap it, and goes when they stop.
from .lasso import fit_lasso, fit_lasso_gram, restricted_gram, restricted_gram_inverse
from .serialize import dump_jsonl, write_csv_rows

SCHEMES = (
    "thresh_votes",
    "top_L_votes",
    "top_L_signs",
    "bnm21",
    "avg_deblasso",
    "thresh_signs",
)
SPARSITY_MODES = ("known", "unknown")
TAU_RULES = ("sqrt_2_log_d", "sqrt_2r_log_d")
LAMBDA_RULES = ("fixed_8",)
LAMBDA_OMEGA_RULES = ("fixed_2",)
SECOND_ROUNDS = ("average", "gram_exact", "none")
SWEEP_AXES = ("r", "n", "M", "L", "lam")

# The Gram columns a grid point's machines keep across its replications
# (``PointState.columns``) take at most this many bytes in all; columns
# formed past it serve the fit that formed them and are then dropped.
GRAM_CACHE_BYTES = 1_000_000_000

# Replications per aligned block of a fixed-design grid point
# (``_block_rows``): one seeding pass, one noise fill and one X'Y product
# serve this many replications.
REP_BLOCK = 16

CSV_COLUMNS = [
    "axis",
    "value",
    "scheme",
    "f_mean",
    "f_se",
    "l2_mean",
    "l2_se",
    "oracle_l2_mean",
    "bits_r1_mean",
    "bits_r2_mean",
    "reps",
]


def _check_L(L: int, spec: ProblemSpec, known_sparsity: bool) -> None:
    """L is an integer (not a bool) in [1, d] and, when ``known_sparsity``
    binds it (a top-L scheme under known sparsity), at least K."""
    if isinstance(L, bool) or not isinstance(L, (int, np.integer)):
        raise ValueError(f"L must be an integer, not {L!r}")
    if not 1 <= L <= spec.d:
        raise ValueError("L must lie in [1, d]")
    if known_sparsity and L < spec.K:
        raise ValueError("top-L schemes need L >= K under known sparsity")


def _check_tuning(name: str, value, rules: tuple[str, ...]) -> None:
    """A tuning quantity is one of its rule names or a finite positive
    number (not a bool)."""
    if isinstance(value, str):
        ok = value in rules
    else:
        number = isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool)
        ok = number and 0 < value < math.inf
    if not ok:
        raise ValueError(f"{name} must be one of {rules} or a finite positive number, not {value!r}")


@dataclass(frozen=True)
class ExperimentConfig:
    """A run configuration on top of a generative ProblemSpec. The schemes
    to run are ``run_sweep``'s argument, not a field.

    Each tuning quantity is one field holding a rule name or a finite
    positive number: the vote threshold ``tau`` (``TAU_RULES``), the lasso
    penalty ``lam`` (``"fixed_8"``: 8 sqrt(ln d / n)) and the nodewise
    penalty ``lam_omega`` (``"fixed_2"``: 2 sqrt(ln d / n)). ``tau_at``,
    ``lam_at`` and ``lam_omega_at`` resolve them at a grid point. A given
    ``L`` is an integer in [1, d] whatever schemes run; ``check_grid``
    also holds the top-L schemes' L to at least K under known sparsity.
    """

    spec: ProblemSpec
    sparsity_mode: str = "known"
    L: int | None = None
    tau: str | float = "sqrt_2_log_d"
    lam: str | float = "fixed_8"
    lam_omega: str | float = "fixed_2"
    second_round: str = "average"
    reps: int = 100
    fixed_design: bool = True
    precision_reuse: bool = True

    def __post_init__(self):
        if self.sparsity_mode not in SPARSITY_MODES:
            raise ValueError(f"sparsity_mode must be one of {SPARSITY_MODES}")
        _check_tuning("tau", self.tau, TAU_RULES)
        _check_tuning("lam", self.lam, LAMBDA_RULES)
        _check_tuning("lam_omega", self.lam_omega, LAMBDA_OMEGA_RULES)
        if self.second_round not in SECOND_ROUNDS:
            raise ValueError(f"second_round must be one of {SECOND_ROUNDS}")
        if isinstance(self.reps, bool) or not isinstance(self.reps, (int, np.integer)) or self.reps < 1:
            raise ValueError(f"reps must be an integer >= 1, not {self.reps!r}")
        if self.L is not None:
            _check_L(self.L, self.spec, known_sparsity=False)

    def resolved_L(self) -> int:
        return self.L if self.L is not None else self.spec.K

    def tau_at(self, r: float) -> float:
        if self.tau == "sqrt_2_log_d":
            return protocol.default_tau(self.spec.d)
        if self.tau == "sqrt_2r_log_d":
            return protocol.snr_tau(self.spec.d, r)
        return float(self.tau)

    def lam_at(self, n: int) -> float:
        if self.lam == "fixed_8":
            return 8.0 * math.sqrt(math.log(self.spec.d) / n)
        return float(self.lam)

    def lam_omega_at(self, n: int) -> float:
        if self.lam_omega == "fixed_2":
            return 2.0 * math.sqrt(math.log(self.spec.d) / n)
        return float(self.lam_omega)

    def with_(self, **kwargs) -> "ExperimentConfig":
        return replace(self, **kwargs)


@dataclass
class RepFlags:
    """Per-replication status; the solver fields are maxima over machines.
    The fields are declared in the order records write them."""

    empty_support: bool = False
    nonconverged_fits: int = 0
    max_sweeps: int = 0
    max_kkt: float = 0.0
    round2_failed: bool = False


@dataclass
class ExperimentRecord:
    """One scheme's result on one replication.

    ``shared_time`` is the time of the work all schemes of the replication
    share (local fits, oracle, round-1 messages, tallies and round two) and
    is the same on each of its records; ``wall_time`` is this scheme's own
    remaining work (selection, metrics, the record). Seconds, wall clock.
    The first replication asked for of each block (``_block_rows``) also
    carries the block's seeding pass, noise draw and X'Y product in its
    ``shared_time``, and the block's other replications carry none of them.
    ``lam`` is the lasso penalty resolved at the
    replication's grid point.
    """

    rep: int
    scheme: str
    S_hat: list[int]
    f_measure: float
    precision: float
    recall: float
    l2_error: float | None
    l2_error_oracle: float
    bits_round1_per_machine: list[int]
    bits_round1_total: int
    bits_round2_total: int
    lam: float
    wall_time: float
    shared_time: float
    flags: RepFlags = field(default_factory=RepFlags)
    fusion_log: dict | None = None

    def to_dict(self) -> dict:
        """The record as JSON-ready fields, in declaration order."""
        return {**vars(self), "flags": dict(vars(self.flags))}


def f_measure(S_hat, S) -> tuple[float, float, float]:
    """(F, precision, recall). Empty S_hat scores 0 with precision 0."""
    S = set(np.asarray(S).tolist())
    if not S:
        raise ValueError("true support must be nonempty")
    S_hat = set(np.asarray(S_hat).tolist())
    if not S_hat:
        return 0.0, 0.0, 0.0
    inter = len(S & S_hat)
    prec = inter / len(S_hat)
    rec = inter / len(S)
    f = 0.0 if inter == 0 else 2.0 * prec * rec / (prec + rec)
    return f, prec, rec


# ---------------------------------------------------------------------------
# Fixed-design experiment state


@dataclass
class DesignState:
    """Per-experiment calibration artifacts (everything noise-independent)."""

    spec: ProblemSpec
    n_cal: int
    m_cal: int
    lam_omega: float
    X: np.ndarray  # (m_cal, n_cal, d), C-contiguous; X[m] is machine m's design
    omegas: list[SparseRows]
    c_diag_cal: np.ndarray  # (m_cal, d) sandwich diagonals at n_cal
    c_omega: float
    support: np.ndarray
    theta_unit: np.ndarray  # planted vector at theta_min = 1
    # Always None: no design keeps Gram matrices. The field stays only
    # because the benchmark's design summary (perfbench/run.py) reads it,
    # and goes when it stops reading it.
    grams: None = None


@dataclass
class RepBlock:
    """The replication blocks of a grid point (``_block_rows``): its
    replications 0 to ``reps`` - 1 in aligned blocks of ``REP_BLOCK``, every
    other replication a block of one, and the buffers of the block formed
    last, which every later block reuses. ``reps`` is the config's count in
    fixed-design mode and 0 in redraw mode. Row (m, b) of ``Y`` and ``XY``
    is machine m's responses and X'y in replication ``start`` + b; a block
    shorter than the buffers fills a prefix. ``start`` is None while the
    buffers hold no whole block."""

    reps: int
    Y: np.ndarray  # (M, B, n), B = min(REP_BLOCK, reps), at least 1
    XY: np.ndarray  # (M, B, d)
    start: int | None = None


@dataclass
class PointState:
    """One sweep grid point materialized from a DesignState: what its
    replications share (see the module docstring) and the buffers of its
    replication blocks. It holds no seed words: each block seeds its own
    noise when formed (``_block_rows``)."""

    design: DesignState
    n: int
    M: int
    sigma: float
    tau: float
    lam: float
    theta_min: float
    theta_star: np.ndarray
    x_theta: np.ndarray  # (M, n) noiseless responses X_m theta*
    # (M, d) diagonals of the machines' X'X/n (``gram_diagonal``): the
    # lasso's column norms and its check that X is finite.
    gram_diag: np.ndarray
    # (M, d) sigma * sqrt(c_kk) of the machines' sandwich diagonals, checked
    # once: the standardization's denominator (``debias.noise_scale``).
    xi_scale: np.ndarray
    # The machines' precision estimates as one block-diagonal matrix
    # (``debias.block_diagonal``), for the stacked debiasing mat-vec.
    omega: SparseRows
    # One grow-only store of Gram columns X'x_j/n per machine, kept across
    # the point's replications and bounded together by GRAM_CACHE_BYTES.
    columns: list[GramColumns]
    # (K, K) pooled X_S'X_S on the true support S: the machine-order sum of
    # the machines' ``restricted_gram``.
    oracle_gram: np.ndarray
    L: int  # top-L schemes' L: the grid value on an L sweep, else config.resolved_L()
    # The point's replication blocks and the buffers of the one formed last.
    block: RepBlock
    # (second_round rule, support bytes) -> the (M, k, k) design-only
    # round-two operand of every machine, or the ValueError forming it raised
    # (see ``_round2_operand``).
    round2: dict = field(default_factory=dict)


def build_design(
    config: ExperimentConfig,
    n_cal: int | None = None,
    m_cal: int | None = None,
    rep: int = 0,
) -> DesignState:
    """Draw designs, estimate per-machine precisions, calibrate the signal."""
    spec = config.spec
    n_cal = spec.n if n_cal is None else n_cal
    m_cal = spec.M if m_cal is None else m_cal
    lam_omega = config.lam_omega_at(n_cal)
    X = sample_shards(spec.with_(M=m_cal), rep=rep, n=n_cal)
    c_diags = np.empty((m_cal, spec.d))
    omegas = []
    for m in range(m_cal):
        est = estimate_precision(X[m], lam_omega)
        c_diags[m] = sandwich_diag(est.omega_hat, X[m])
        omegas.append(est.omega_hat)
    c_omega = compute_c_omega(c_diags)
    truth = make_theta_star(spec, theta_min=1.0, rng=stream(spec.base_seed, TAG_THETA, rep))
    return DesignState(
        spec=spec,
        n_cal=n_cal,
        m_cal=m_cal,
        lam_omega=lam_omega,
        X=X,
        omegas=omegas,
        c_diag_cal=c_diags,
        c_omega=c_omega,
        support=truth.support,
        theta_unit=truth.theta_star,
    )


def materialize(
    design: DesignState,
    config: ExperimentConfig,
    n: int | None = None,
    M: int | None = None,
    r: float | None = None,
    L: int | None = None,
    lam: str | float | None = None,
) -> PointState:
    """Slice a design down to one grid point, scale the planted signal and
    form what every replication of the point shares (see the module
    docstring).

    The point's n, M and r are checked as a ``ProblemSpec`` (ValueError),
    and its sandwich diagonals and sigma once for all its replications,
    by ``debias.noise_scale``, whose scale ``debias.standardize`` takes. A
    given ``L`` is checked before any work to be an integer in [1, d]
    (ValueError); the top-L schemes' L >= K under known sparsity is
    ``check_grid``'s rule, since only it knows the schemes. A given ``lam``
    (a ``config.lam`` value: a rule name or a finite positive number, else
    ValueError) replaces ``config.lam`` at this point. In fixed-design mode
    replications 0 to ``config.reps`` - 1 come in aligned blocks and every
    other replication is a block of one (``_block_rows``); the point's
    buffers hold one block.
    """
    if L is not None:
        _check_L(L, design.spec, known_sparsity=False)
    if lam is not None:
        config = config.with_(lam=lam)
    given = {"n": n, "M": M, "r": r}
    spec = design.spec.with_(**{k: v for k, v in given.items() if v is not None})
    n, M, r = spec.n, spec.M, spec.r
    if n > design.n_cal or M > design.m_cal:
        raise ValueError("grid point exceeds the calibrated design")
    sigma = spec.sigma_value(r)
    theta_min = theta_min_from_snr(spec.d, sigma, r, n, design.c_omega)
    theta_star = design.theta_unit * theta_min
    X = design.X[:M, :n]
    omegas = design.omegas[:M]
    if n == design.n_cal:
        c_diag = design.c_diag_cal[:M]
    else:
        if not config.precision_reuse:
            omegas = [estimate_precision(Xm, config.lam_omega_at(n)).omega_hat for Xm in X]
        c_diag = np.array([sandwich_diag(omega, Xm) for omega, Xm in zip(omegas, X)])
    budget = ColumnBudget(GRAM_CACHE_BYTES)
    reps = config.reps if config.fixed_design else 0  # redraw mode: blocks of one
    B = min(REP_BLOCK, max(reps, 1))
    return PointState(
        design=design,
        n=n,
        M=M,
        sigma=sigma,
        tau=config.tau_at(r),
        lam=config.lam_at(n),
        theta_min=theta_min,
        theta_star=theta_star,
        x_theta=X @ theta_star,
        gram_diag=gram_diagonal(X),
        xi_scale=noise_scale(c_diag, sigma),
        omega=block_diagonal(omegas),
        columns=[GramColumns(spec.d, budget) for _ in range(M)],
        oracle_gram=fusion.sum_rows(restricted_gram(X[:, :, design.support])),
        L=L if L is not None else config.resolved_L(),
        block=RepBlock(reps, np.empty((M, B, n)), np.empty((M, B, spec.d))),
    )


def _block_rows(point: PointState, rep: int):
    """Replication ``rep``'s (M, n) responses and (M, d) X'y as read-only
    rows of its block.

    Replication ``rep`` of 0..``point.block.reps`` - 1 belongs to the block
    of up to ``REP_BLOCK`` replications from ``start`` = rep - rep mod
    ``REP_BLOCK``, cut at ``point.block.reps``; any other replication (every
    one in redraw mode) is a block of one. Unless it is the block formed
    last, the block is formed now in the point's buffers: one
    ``fill_streams`` call draws the noise of all its replications, the
    draws of ``sample_noise(M, n, base_seed, rep)``, straight into the
    (M, B, n) buffer, which becomes the responses x_theta + sigma W in
    place, and one (M, B, n) @ (M, n, d) product writes the block's X'Y. A
    block of one's product has the bits of ``y @ X_m``. The rows stay valid
    until the point forms another block; a negative ``rep`` raises
    ValueError.
    """
    block = point.block
    if 0 <= rep < block.reps:
        start = rep - rep % REP_BLOCK
        size = min(REP_BLOCK, block.reps - start)
    else:
        start, size = rep, 1
    if block.start != start:
        block.start = None
        Y = fill_streams(block.Y[:, :size], point.design.spec.base_seed, TAG_NOISE, range(start, start + size))
        Y *= point.sigma
        Y += point.x_theta[:, None]
        np.matmul(Y, point.design.X[: point.M, : point.n], out=block.XY[:, :size])
        block.start = start
    Y, xty = block.Y[:, rep - start], block.XY[:, rep - start]
    Y.flags.writeable = xty.flags.writeable = False
    return Y, xty


def _rep_fits(point: PointState, rep: int):
    """All machines' round-one computations for one noise replication.

    Returns (theta_tilde, theta_hat, xi, converged, sweeps, kkt, xty, Y):
    the lasso, debiased and standardized estimates as (M, d) arrays, each
    machine's solver status as (M,) arrays, the (M, d) X'y of the fit
    (``LassoFit.xty``) and the (M, n) responses. Row m of each is machine
    m's. xty and Y are read-only rows of the point's block buffers
    (``_block_rows``), valid until the point forms another block.
    """
    n, M = point.n, point.M
    X = point.design.X[:M, :n]
    Y, xty = _block_rows(point, rep)
    fit = fit_lasso(X, Y, point.lam, gram_diag=point.gram_diag, columns=point.columns, xty=xty)
    theta_t, grad = fit.coefficients, fit.gradient  # grad: X'(y - X theta_tilde)/n
    converged, sweeps, kkt = fit.converged, fit.iterations, fit.max_kkt_violation
    theta_h = debias(theta_t, grad, point.omega)
    xi = standardize(theta_h, point.xi_scale, n)
    return theta_t, theta_h, xi, converged, sweeps, kkt, fit.xty, Y


# bnm21 sends the thresholded votes of thresh_votes and differs only in its
# selection rule, so the two schemes share one round-1 message set and tally.
_ROUND1_RULE = {"bnm21": "thresh_votes"}

# The selection each index rule sends, made once per replication for all
# machines: the thresholded indices or the top-L ones. The *_signs rules
# send the same index arrays as their *_votes rules, with their signs.
_SELECTION = {"thresh_votes": "thresh", "thresh_signs": "thresh", "top_L_votes": "top_L", "top_L_signs": "top_L"}


def _round1_messages(rule: str, point: PointState, theta_hat, xi, selections: dict) -> list:
    """The round-1 messages of ``rule``: one ``protocol`` call per machine,
    each handed that machine's row of the rule's selection, or of theta_hat
    for dense messages.

    A selection (``_SELECTION``) runs once for all M machines on the (M, d)
    xi and is kept in ``selections`` for the other rule that sends it. Only
    ``top_L_signs`` forms the top-L indices' signs.
    """
    if rule == "avg_deblasso":
        return [protocol.round1_dense(m, row) for m, row in enumerate(theta_hat)]
    key = _SELECTION[rule]
    if key not in selections:
        if key == "thresh":
            selections[key] = protocol.select_threshold(xi, point.tau)
        else:
            selections[key] = protocol.select_top_k(xi, point.L), None
    indices, signs = selections[key]
    if rule == "thresh_votes":
        return [protocol.round1_thresh_votes(m, idx) for m, idx in enumerate(indices)]
    if rule == "thresh_signs":
        return [protocol.round1_thresh_signs(m, *row) for m, row in enumerate(zip(indices, signs))]
    if rule == "top_L_votes":
        return [protocol.round1_top_L(m, idx) for m, idx in enumerate(indices)]
    signs = protocol.selected_signs(xi, indices)
    return [protocol.round1_top_L(m, *row) for m, row in enumerate(zip(indices, signs))]


def _tallies(round1: dict, d: int) -> dict:
    """One read-only ``fusion.tally`` per round-one selection: rule -> the
    tally of its selection, for each vote rule among the keys of ``round1``
    (rule -> its messages).

    A selection is tallied from the messages of its signed rule when that
    runs, else from its unsigned rule's, and every rule of the selection
    reads that one tally. The unsigned rule sends the same index arrays
    without their signs, so the votes, and with them the votes histogram,
    are those of its own messages; only the sign sums differ, and the
    selections that read them are those of the signed rules
    (``use_signs=True``).
    """
    tallies, by_selection = {}, {}
    # Signed rules first, so that each selection's one tally counts signs.
    for rule in sorted((r for r in round1 if r in _SELECTION), key=lambda r: not r.endswith("_signs")):
        key = _SELECTION[rule]
        if key not in by_selection:
            t = by_selection[key] = fusion.tally(round1[rule], d)
            t.votes.setflags(write=False)
            t.sign_sums.setflags(write=False)
        tallies[rule] = by_selection[key]
    return tallies


def _select_support(scheme, config, point, msgs, t):
    """Fusion-center support rule for each scheme/sparsity mode."""
    spec = config.spec
    if scheme == "avg_deblasso":
        if config.sparsity_mode == "known":
            theta_avg, est = fusion.avg_debiased(msgs, K=spec.K)
        else:
            threshold = 11.0 * math.log(spec.d) / point.n
            theta_avg, est = fusion.avg_debiased(msgs, threshold=threshold)
        return theta_avg, est
    use_signs = scheme.endswith("signs")
    if scheme == "bnm21":
        return None, fusion.select_majority(t, point.M)
    if config.sparsity_mode == "known":
        return None, fusion.select_topk(t, spec.K, use_signs=use_signs)
    return None, fusion.select_vote_threshold(t, 2.0 * math.log(spec.d), use_signs=use_signs)


def _round2_operand(config, point: PointState, support: np.ndarray) -> np.ndarray:
    """The read-only (M, k, k) design-only operand of round two on
    ``support`` for the point's machines: the inverse Gram (X_S'X_S)^-1
    under ``average``, from one inverse of the stacked X_S'X_S, certified
    matrix by matrix, with a thin SVD for each machine whose certificate
    fails (``restricted_gram_inverse``), and the Gram X_S'X_S under
    ``gram_exact``, from one stacked product (``restricted_gram``).

    It is formed once per point, rule and support, from the (M, n, k)
    restricted designs gathered then and dropped after, so no later request
    gathers them. The rule is part of the key because the config is passed
    apart from the point, so one point may run under both rules. A
    rank-deficient support's ValueError is kept too and raised again on
    every later request under the same rule, so it fails in every
    replication without being refactored.
    """
    key = (config.second_round, support.tobytes())
    operand = point.round2.get(key)
    if operand is None:
        X_S = point.design.X[: point.M, : point.n][:, :, support]
        try:
            if config.second_round == "gram_exact":
                operand = restricted_gram(X_S)
            else:
                operand = restricted_gram_inverse(X_S)
            operand.setflags(write=False)
        except ValueError as exc:
            operand = exc
        point.round2[key] = operand
    if isinstance(operand, ValueError):
        raise operand.with_traceback(None)
    return operand


def _second_round(config, point, xty, support) -> tuple[np.ndarray, int]:
    """Run round two over the machines; returns (theta_hat, total bits).

    ``xty`` is the replication's (M, d) X'y (``LassoFit.xty``), whose
    columns ``support`` are every machine's X_S'y: ``gram_exact`` sends
    those rows, ``average`` the rows of one stacked product with the inverse
    Grams. Each machine's ``protocol`` call wraps its row in a message.
    """
    d = point.design.spec.d
    operand = _round2_operand(config, point, support)
    xty_S = xty[:, support]
    if config.second_round == "gram_exact":
        msgs = [protocol.round2_gram(m, support, operand[m], xty_S[m]) for m in range(point.M)]
        theta = fusion.centralized_ls(msgs, support, d)
    else:
        beta = (operand @ xty_S[..., None])[..., 0]
        msgs = [protocol.round2_restricted(m, support, beta[m]) for m in range(point.M)]
        theta = fusion.aggregate_round2(msgs, support, d)
    return theta, sum(protocol.bit_costs(msgs, d))


def _l2(diff: np.ndarray) -> float:
    """The l2 norm of a 1-D float64 vector, by the dot product and square
    root ``np.linalg.norm`` takes for one, so bit for bit the same."""
    return math.sqrt(diff @ diff)


def _oracle_error(point: PointState, xty: np.ndarray) -> float:
    """The l2 error of pooled least squares on the true support S: the
    point's pooled Gram solved against the machine-order sum of the columns
    S of the replication's (M, d) X'y."""
    S = point.design.support
    v = fusion.sum_rows(xty[:, S])
    beta = np.linalg.solve(point.oracle_gram, v)
    theta = np.zeros(point.design.spec.d)
    theta[S] = beta
    return _l2(theta - point.theta_star)


def run_point_rep(
    point: PointState, config: ExperimentConfig, schemes: list[str], rep: int
) -> list[ExperimentRecord]:
    """One replication under each of ``schemes``, as one pass in the order
    the protocol runs, which does each piece of work once:

    1. the machines' fits (``_rep_fits``) and the oracle;
    2. round one, per distinct round-1 rule of ``schemes``: the messages
       and their bits; then one read-only tally per round-one selection
       (``_tallies``), which every vote rule of the selection reads;
    3. each scheme's support selection (``_select_support``);
    4. round two, once per distinct nonempty support that a two-round scheme
       selected, unless ``second_round`` is "none", with the l2 error of its
       estimate; a ValueError (a singular system) fails round two for every
       scheme that selected that support;
    5. each scheme's record, which reads the F-measure of its S_hat from
       one ``f_measure`` call per distinct S_hat.

    Every record carries the time of steps 1, 2 and 4 as ``shared_time``
    and that of its own scheme's steps 3 and 5 as ``wall_time``.
    """
    d = config.spec.d
    start = time.perf_counter()
    _, theta_hat, xi, converged, sweeps, kkt, xty, _ = _rep_fits(point, rep)
    # The solver's RepFlags fields, nonconverged_fits, max_sweeps and max_kkt.
    solver = int((~converged).sum()), int(sweeps.max()), float(kkt.max())
    l2_oracle = _oracle_error(point, xty)
    messages, selections = {}, {}
    for rule in dict.fromkeys(_ROUND1_RULE.get(s, s) for s in schemes):
        messages[rule] = _round1_messages(rule, point, theta_hat, xi, selections)
    tallies = _tallies(messages, d)
    round1 = {rule: (msgs, protocol.bit_costs(msgs, d), tallies.get(rule)) for rule, msgs in messages.items()}
    shared = time.perf_counter() - start

    selected, own = [], []
    for s in schemes:
        start = time.perf_counter()
        msgs, _, t = round1[_ROUND1_RULE.get(s, s)]
        selected.append(_select_support(s, config, point, msgs, t))
        own.append(time.perf_counter() - start)

    start = time.perf_counter()
    round2 = {}  # support bytes -> (l2 error, total bits), or None if it failed
    for s, (_, est) in zip(schemes, selected):
        key = est.indices.tobytes()
        if config.second_round == "none" or s == "avg_deblasso" or not est.indices.size or key in round2:
            continue
        try:
            theta, bits = _second_round(config, point, xty, est.indices)
            round2[key] = _l2(theta - point.theta_star), bits
        except ValueError:
            round2[key] = None
    shared += time.perf_counter() - start

    records, scores = [], {}  # scores: S_hat bytes -> (F, precision, recall)
    zero_l2 = _l2(point.theta_star)  # the zero estimate's l2 error, bit for bit
    for s, (theta_avg, est), seconds in zip(schemes, selected, own):
        start = time.perf_counter()
        _, bits_r1, t = round1[_ROUND1_RULE.get(s, s)]
        S_hat = est.indices
        key = S_hat.tobytes()
        l2, bits_r2, failed = zero_l2, 0, False
        if S_hat.size == 0:
            pass  # the zero estimate
        elif s == "avg_deblasso":
            # Single-round scheme: the estimate is the truncated average.
            theta = np.zeros(d)
            theta[S_hat] = theta_avg[S_hat]
            l2 = _l2(theta - point.theta_star)
        elif config.second_round == "none":
            l2 = None
        elif round2[key] is None:
            failed = True
        else:
            l2, bits_r2 = round2[key]
        if key not in scores:
            scores[key] = f_measure(S_hat, point.design.support)
        f, prec, rec = scores[key]
        bits_r1_total = sum(bits_r1)
        records.append(
            ExperimentRecord(
                rep=rep,
                scheme=s,
                S_hat=S_hat.tolist(),
                f_measure=f,
                precision=prec,
                recall=rec,
                l2_error=l2,
                l2_error_oracle=l2_oracle,
                bits_round1_per_machine=list(bits_r1),
                bits_round1_total=bits_r1_total,
                bits_round2_total=int(bits_r2),
                lam=point.lam,
                wall_time=seconds + time.perf_counter() - start,
                shared_time=shared,
                flags=RepFlags(S_hat.size == 0, *solver, failed),
                fusion_log=fusion.fusion_log_record(s, est, t, point.tau, bits_r1_total),
            )
        )
    return records

@dataclass
class SweepResult:
    rows: list[dict]
    records: list[dict]

    def write(self, out_dir) -> None:
        from pathlib import Path

        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        write_csv_rows(out / "summary.csv", self.rows, CSV_COLUMNS)
        dump_jsonl(out / "records.jsonl", self.records)


def _mean_se(values: list[float]) -> tuple[float, float]:
    arr = np.array([v for v in values if v is not None], dtype=np.float64)
    if arr.size == 0:
        return math.nan, math.nan
    if arr.size == 1:
        return float(arr[0]), 0.0
    return float(arr.mean()), float(arr.std(ddof=1) / math.sqrt(arr.size))


def _aggregate(axis, value, scheme, records: list[ExperimentRecord]) -> dict:
    f_mean, f_se = _mean_se([r.f_measure for r in records])
    l2_mean, l2_se = _mean_se([r.l2_error for r in records])
    oracle_mean, _ = _mean_se([r.l2_error_oracle for r in records])
    bits_r1_mean, _ = _mean_se(
        [r.bits_round1_total / max(len(r.bits_round1_per_machine), 1) for r in records]
    )
    bits_r2_mean, _ = _mean_se([r.bits_round2_total for r in records])
    return {
        "axis": axis,
        "value": value,
        "scheme": scheme,
        "f_mean": f_mean,
        "f_se": f_se,
        "l2_mean": l2_mean,
        "l2_se": l2_se,
        "oracle_l2_mean": oracle_mean,
        "bits_r1_mean": bits_r1_mean,
        "bits_r2_mean": bits_r2_mean,
        "reps": len(records),
    }


def run_sweep(
    config: ExperimentConfig,
    sweep_axis: str,
    grid,
    schemes: list[str],
    out_dir=None,
    design: DesignState | None = None,
) -> SweepResult:
    """Replicate every grid point under each of ``schemes`` (required).

    In fixed-design mode the design is calibrated once, on an n or M sweep
    at the largest grid value (or ``design`` is used as given); smaller
    values reuse row/machine prefixes of it, and every grid point, a lam
    sweep's too, starts with fresh column stores. In redraw mode every
    replication builds its own design at the grid value. Emits long-format
    CSV rows plus per-replication JSON records.
    """
    grid = list(grid)
    schemes = list(schemes)
    for s in schemes:
        if s not in SCHEMES:
            raise ValueError(f"unknown scheme {s!r}")
    check_grid(config, sweep_axis, grid, schemes)
    if config.fixed_design and design is None:
        design = _design_at(config, sweep_axis, max(grid) if sweep_axis in ("n", "M") else None)
    rows, records = [], []
    for value in grid:
        if config.fixed_design:
            point = _grid_point(design, config, sweep_axis, value)
        per_scheme = {s: [] for s in schemes}
        for rep in range(config.reps):
            if not config.fixed_design:
                # Redraw mode: design, signal and noise are all drawn anew.
                point = _grid_point(_design_at(config, sweep_axis, value, rep), config, sweep_axis, value)
            for rec in run_point_rep(point, config, schemes, rep):
                per_scheme[rec.scheme].append(rec)
                out = rec.to_dict()
                out["axis"], out["value"] = sweep_axis, value
                records.append(out)
        for s in schemes:
            rows.append(_aggregate(sweep_axis, value, s, per_scheme[s]))
    result = SweepResult(rows=rows, records=records)
    if out_dir is not None:
        result.write(out_dir)
    return result


def check_grid(config: ExperimentConfig, sweep_axis: str, grid: list, schemes: list[str]) -> None:
    """Raise ValueError unless every grid value of the swept axis gives a
    valid run of every scheme in ``schemes``: n, M and r through
    ``ProblemSpec``, n, M and L whole numbers, the L of the top-L schemes
    (each grid value on an L sweep, else ``config.resolved_L()``) in [1, d]
    and, under known sparsity, at least K, and lam a ``config.lam`` value
    (``_check_tuning``)."""
    spec = config.spec
    if sweep_axis not in SWEEP_AXES:
        raise ValueError(f"sweep_axis must be one of {SWEEP_AXES}")
    if not grid:
        raise ValueError("grid must be nonempty")
    known = config.sparsity_mode == "known" and any(s.startswith("top_L") for s in schemes)
    # ExperimentConfig already holds a given L to an integer in [1, d].
    if known and sweep_axis != "L" and config.resolved_L() < spec.K:
        raise ValueError("top-L schemes need L >= K under known sparsity")
    for value in grid:
        if sweep_axis == "lam":
            _check_tuning("lam", value, LAMBDA_RULES)
            continue
        if sweep_axis != "r" and not float(value).is_integer():
            raise ValueError(f"{sweep_axis} grid values must be whole numbers")
        if sweep_axis == "L":
            _check_L(int(value), spec, known)
        else:
            spec.with_(**{sweep_axis: value if sweep_axis == "r" else int(value)})


def _design_at(config: ExperimentConfig, sweep_axis: str, value, rep: int = 0) -> DesignState:
    """A design calibrated at ``value`` of the swept axis when that axis is
    n or M (any other axis leaves the design as the config's)."""
    return build_design(
        config,
        n_cal=int(value) if sweep_axis == "n" else None,
        m_cal=int(value) if sweep_axis == "M" else None,
        rep=rep,
    )


def _grid_point(design: DesignState, config: ExperimentConfig, sweep_axis: str, value) -> PointState:
    """Materialize ``design`` at one grid value of the swept axis: r a
    float, lam a float or a rule name, n, M and L integers."""
    if sweep_axis == "lam":
        value = value if isinstance(value, str) else float(value)
    else:
        value = float(value) if sweep_axis == "r" else int(value)
    return materialize(design, config, **{sweep_axis: value})
