"""Experiment orchestration: the two-round schemes end to end, baselines,
metrics, and seeded replication sweeps with bit-exact communication ledgers.

Simulation protocol (fixed-design mode, the default): design matrices are
drawn once per experiment, each machine's precision matrix is estimated once
on its full design, the largest sandwich-variance entry calibrates the
planted signal, and only the noise is redrawn across replications. Sweeps
over n reuse the decorrelation matrices fitted at the largest sample size
(``precision_reuse``), mirroring a semi-supervised setting; sweeps over M
calibrate on the largest machine count and use prefixes.
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
    DataShard,
    compute_c_omega,
    make_theta_star,
    sample_shards,
    stream,
    theta_min_from_snr,
)
from .debias import (
    LocalFit,
    debias,
    empirical_covariance,
    estimate_precision,
    sandwich_diag,
    standardize,
)
from .lasso import fit_lasso, fit_lasso_gram
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
TAU_MODES = ("sqrt_2_log_d", "sqrt_2r_log_d", "explicit")
SECOND_ROUNDS = ("average", "gram_exact", "none")
SWEEP_AXES = ("r", "n", "M", "L")

# Per-machine Gram matrices are cached across replications only while the
# cache stays under this budget; beyond it the covariance-free solver is used.
GRAM_CACHE_BYTES = 1_000_000_000

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


@dataclass(frozen=True)
class ExperimentConfig:
    """One scheme's run configuration on top of a generative ProblemSpec."""

    spec: ProblemSpec
    scheme: str = "thresh_votes"
    sparsity_mode: str = "known"
    L: int | None = None
    tau_mode: str = "sqrt_2_log_d"
    tau_value: float | None = None
    lambda_rule: str = "fixed_8"  # 8 sqrt(ln d / n); sigma_scaled_8 | explicit
    lambda_value: float | None = None
    lambda_omega_rule: str = "fixed_2"  # 2 sqrt(ln d / n); explicit
    lambda_omega_value: float | None = None
    nodewise_residual_scale: str = "n"
    second_round: str = "average"
    reps: int = 100
    fixed_design: bool = True
    precision_reuse: bool = True

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ValueError(f"scheme must be one of {SCHEMES}")
        if self.sparsity_mode not in SPARSITY_MODES:
            raise ValueError(f"sparsity_mode must be one of {SPARSITY_MODES}")
        if self.tau_mode not in TAU_MODES:
            raise ValueError(f"tau_mode must be one of {TAU_MODES}")
        if self.second_round not in SECOND_ROUNDS:
            raise ValueError(f"second_round must be one of {SECOND_ROUNDS}")
        if self.reps < 1:
            raise ValueError("reps must be positive")
        if self.tau_mode == "explicit" and self.tau_value is None:
            raise ValueError("explicit tau_mode needs tau_value")
        if self.scheme.startswith("top_L"):
            L = self.L if self.L is not None else self.spec.K
            if not 1 <= L <= self.spec.d:
                raise ValueError("L must lie in [1, d]")
            if self.sparsity_mode == "known" and L < self.spec.K:
                raise ValueError("top-L schemes need L >= K under known sparsity")

    def resolved_L(self) -> int:
        return self.L if self.L is not None else self.spec.K

    def lam(self, n: int, sigma: float) -> float:
        if self.lambda_rule == "explicit":
            if self.lambda_value is None:
                raise ValueError("explicit lambda_rule needs lambda_value")
            return self.lambda_value
        base = 8.0 * math.sqrt(math.log(self.spec.d) / n)
        if self.lambda_rule == "sigma_scaled_8":
            return sigma * base
        if self.lambda_rule == "fixed_8":
            return base
        raise ValueError(f"unknown lambda_rule {self.lambda_rule!r}")

    def lam_omega(self, n: int) -> float:
        if self.lambda_omega_rule == "explicit":
            if self.lambda_omega_value is None:
                raise ValueError("explicit lambda_omega_rule needs lambda_omega_value")
            return self.lambda_omega_value
        if self.lambda_omega_rule == "fixed_2":
            return 2.0 * math.sqrt(math.log(self.spec.d) / n)
        raise ValueError(f"unknown lambda_omega_rule {self.lambda_omega_rule!r}")

    def tau(self, r: float) -> float:
        if self.tau_mode == "explicit":
            return float(self.tau_value)
        if self.tau_mode == "sqrt_2r_log_d":
            return protocol.snr_tau(self.spec.d, r)
        return protocol.default_tau(self.spec.d)

    def with_(self, **kwargs) -> "ExperimentConfig":
        return replace(self, **kwargs)


@dataclass
class RepFlags:
    """Per-replication status; the solver fields are maxima over machines."""

    empty_support: bool = False
    nonconverged_fits: int = 0
    round2_failed: bool = False
    max_sweeps: int = 0
    max_kkt: float = 0.0

    def to_dict(self) -> dict:
        return {
            "empty_support": self.empty_support,
            "nonconverged_fits": self.nonconverged_fits,
            "max_sweeps": self.max_sweeps,
            "max_kkt": self.max_kkt,
            "round2_failed": self.round2_failed,
        }


@dataclass
class ExperimentRecord:
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
    wall_time: float
    flags: RepFlags = field(default_factory=RepFlags)
    fusion_log: dict | None = None

    def to_dict(self) -> dict:
        return {
            "rep": self.rep,
            "scheme": self.scheme,
            "S_hat": self.S_hat,
            "f_measure": self.f_measure,
            "precision": self.precision,
            "recall": self.recall,
            "l2_error": self.l2_error,
            "l2_error_oracle": self.l2_error_oracle,
            "bits_round1_per_machine": self.bits_round1_per_machine,
            "bits_round1_total": self.bits_round1_total,
            "bits_round2_total": self.bits_round2_total,
            "wall_time": self.wall_time,
            "flags": self.flags.to_dict(),
            "fusion_log": self.fusion_log,
        }


def f_measure(S_hat, S) -> tuple[float, float, float]:
    """(F, precision, recall). Empty S_hat scores 0 with precision 0."""
    S = set(int(i) for i in S)
    if not S:
        raise ValueError("true support must be nonempty")
    S_hat = set(int(i) for i in S_hat)
    if not S_hat:
        return 0.0, 0.0, 0.0
    inter = len(S & S_hat)
    prec = inter / len(S_hat)
    rec = inter / len(S)
    f = 0.0 if inter == 0 else 2.0 * prec * rec / (prec + rec)
    return f, prec, rec


def oracle_ls(shards: list[DataShard], support) -> np.ndarray:
    """Pooled least squares restricted to the true support, via Gram fusion."""
    support = np.asarray(support, dtype=np.int64)
    d = shards[0].X.shape[1]
    msgs = [protocol.round2_gram(s, support) for s in shards]
    return fusion.centralized_ls(msgs, support, d)


# ---------------------------------------------------------------------------
# Fixed-design experiment state


@dataclass
class DesignState:
    """Per-experiment calibration artifacts (everything noise-independent)."""

    spec: ProblemSpec
    n_cal: int
    m_cal: int
    lam_omega: float
    residual_scale: str
    X: list[np.ndarray]
    omegas: list[np.ndarray]
    c_diag_cal: list[np.ndarray]
    c_omega: float
    support: np.ndarray
    theta_unit: np.ndarray  # planted vector at theta_min = 1
    grams: list[np.ndarray] | None


@dataclass
class PointState:
    """One sweep grid point materialized from a DesignState."""

    design: DesignState
    n: int
    M: int
    r: float
    sigma: float
    tau: float
    lam: float
    theta_min: float
    theta_star: np.ndarray
    c_diag: list[np.ndarray]
    omegas: list[np.ndarray]
    grams: list[np.ndarray] | None
    oracle_gram: np.ndarray
    value: float | int | None = None
    axis: str | None = None
    L: int | None = None


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
    lam_omega = config.lam_omega(n_cal)
    shards = sample_shards(spec.with_(M=m_cal), rep=rep, n=n_cal)
    keep_gram = m_cal * spec.d * spec.d * 8 <= GRAM_CACHE_BYTES
    X, omegas, c_diags, grams = [], [], [], [] if keep_gram else None
    for shard in shards:
        G = empirical_covariance(shard.X)
        est = estimate_precision(
            shard.X, lam_omega, residual_scale=config.nodewise_residual_scale, gram=G
        )
        cd = sandwich_diag(est.omega_hat, G)
        X.append(shard.X)
        omegas.append(est.omega_hat)
        c_diags.append(cd)
        if keep_gram:
            grams.append(G)
    c_omega = compute_c_omega(c_diags)
    truth = make_theta_star(spec, theta_min=1.0, rng=stream(spec.base_seed, TAG_THETA, rep))
    return DesignState(
        spec=spec,
        n_cal=n_cal,
        m_cal=m_cal,
        lam_omega=lam_omega,
        residual_scale=config.nodewise_residual_scale,
        X=X,
        omegas=omegas,
        c_diag_cal=c_diags,
        c_omega=c_omega,
        support=truth.support,
        theta_unit=truth.theta_star,
        grams=grams,
    )


def materialize(
    design: DesignState,
    config: ExperimentConfig,
    n: int | None = None,
    M: int | None = None,
    r: float | None = None,
    L: int | None = None,
) -> PointState:
    """Slice a design down to one grid point and scale the planted signal."""
    spec = design.spec
    n = spec.n if n is None else n
    M = spec.M if M is None else M
    r = spec.r if r is None else r
    if n > design.n_cal or M > design.m_cal:
        raise ValueError("grid point exceeds the calibrated design")
    sigma = spec.sigma_value(r)
    theta_min = theta_min_from_snr(spec.d, sigma, r, n, design.c_omega)
    theta_star = design.theta_unit * theta_min
    if n == design.n_cal:
        omegas = design.omegas[:M]
        c_diag = design.c_diag_cal[:M]
        grams = design.grams[:M] if design.grams is not None else None
    else:
        omegas, c_diag = [], []
        for m in range(M):
            Xn = design.X[m][:n]
            Gn = empirical_covariance(Xn)
            if config.precision_reuse:
                omega = design.omegas[m]
            else:
                omega = estimate_precision(
                    Xn, config.lam_omega(n), residual_scale=design.residual_scale, gram=Gn
                ).omega_hat
            omegas.append(omega)
            c_diag.append(sandwich_diag(omega, Gn))
        grams = None
    S = design.support
    oracle_gram = np.zeros((S.size, S.size))
    for m in range(M):
        Xsub = design.X[m][:n, S]
        oracle_gram += Xsub.T @ Xsub
    return PointState(
        design=design,
        n=n,
        M=M,
        r=r,
        sigma=sigma,
        tau=config.tau(r),
        lam=config.lam(n, sigma),
        theta_min=theta_min,
        theta_star=theta_star,
        c_diag=c_diag,
        omegas=omegas,
        grams=grams,
        oracle_gram=oracle_gram,
        L=L if L is not None else (config.L if config.scheme.startswith("top_L") else None),
    )


def _draw_noise(spec: ProblemSpec, rep: int, m: int, n_cal: int, n: int) -> np.ndarray:
    # Full-length draw then slice: grid points at smaller n share noise prefixes.
    return stream(spec.base_seed, TAG_NOISE, rep, m).standard_normal(n_cal)[:n]


def _rep_fits(point: PointState, rep: int) -> tuple[list[LocalFit], list[np.ndarray]]:
    """All machines' round-one computations for one noise replication."""
    design = point.design
    spec = design.spec
    n, sigma = point.n, point.sigma
    fits, ys = [], []
    for m in range(point.M):
        X = design.X[m][:n]
        w = _draw_noise(spec, rep, m, design.n_cal, n)
        y = X @ point.theta_star + sigma * w
        if point.grams is not None:
            theta_t, _, sweeps, kkt, conv = fit_lasso_gram(point.grams[m], X.T @ y / n, point.lam)
        else:
            fit = fit_lasso(X, y, point.lam)
            theta_t, sweeps, kkt, conv = (
                fit.coefficients, fit.iterations, fit.max_kkt_violation, fit.converged
            )
        omega = point.omegas[m]
        theta_h = debias(X, y, theta_t, omega)
        xi, c_diag = standardize(theta_h, omega, None, sigma, n, c_diag=point.c_diag[m])
        fits.append(
            LocalFit(
                machine_id=m,
                theta_tilde=theta_t,
                theta_hat=theta_h,
                sigma_hat_sq_diag=c_diag,
                xi_hat=xi,
                lasso_converged=bool(conv),
                lasso_sweeps=int(sweeps),
                lasso_kkt=float(kkt),
            )
        )
        ys.append(y)
    return fits, ys


def _round1_messages(scheme: str, config: ExperimentConfig, point: PointState, fits):
    if scheme == "thresh_votes" or scheme == "bnm21":
        return [protocol.round1_thresh_votes(f, point.tau) for f in fits]
    if scheme == "thresh_signs":
        return [protocol.round1_thresh_signs(f, point.tau) for f in fits]
    if scheme == "top_L_votes":
        L = point.L if point.L is not None else config.resolved_L()
        return [protocol.round1_top_L(f, L, signed=False) for f in fits]
    if scheme == "top_L_signs":
        L = point.L if point.L is not None else config.resolved_L()
        return [protocol.round1_top_L(f, L, signed=True) for f in fits]
    if scheme == "avg_deblasso":
        return [protocol.round1_dense(f) for f in fits]
    raise ValueError(f"unknown scheme {scheme!r}")


def _select_support(scheme, config, point, msgs):
    """Fusion-center support rule for each scheme/sparsity mode."""
    spec = config.spec
    if scheme == "avg_deblasso":
        if config.sparsity_mode == "known":
            theta_avg, est = fusion.avg_debiased(msgs, K=spec.K)
        else:
            threshold = 11.0 * math.log(spec.d) / point.n
            theta_avg, est = fusion.avg_debiased(msgs, threshold=threshold)
        return theta_avg, est, None
    t = fusion.tally(msgs, spec.d)
    use_signs = scheme.endswith("signs")
    if scheme == "bnm21":
        return None, fusion.select_majority(t, point.M), t
    if config.sparsity_mode == "known":
        return None, fusion.select_topk(t, spec.K, use_signs=use_signs), t
    est = fusion.select_vote_threshold(t, 2.0 * math.log(spec.d), use_signs=use_signs)
    return None, est, t


def _second_round(config, point, ys, support) -> tuple[np.ndarray, int]:
    """Run round two over the machines; returns (theta_hat, total bits)."""
    design = point.design
    d = design.spec.d
    bits = 0
    msgs = []
    for m in range(point.M):
        shard = DataShard(machine_id=m, X=design.X[m][: point.n], y=ys[m])
        if config.second_round == "gram_exact":
            msg = protocol.round2_gram(shard, support)
        else:
            msg = protocol.round2_restricted(shard, support)
        bits += protocol.bit_cost(msg, d)
        msgs.append(msg)
    if config.second_round == "gram_exact":
        return fusion.centralized_ls(msgs, support, d), bits
    return fusion.aggregate_round2(msgs, support, d), bits


def _eval_scheme(
    scheme: str,
    config: ExperimentConfig,
    point: PointState,
    fits: list[LocalFit],
    ys: list[np.ndarray],
    rep: int,
    l2_oracle: float,
    fit_seconds: float,
) -> ExperimentRecord:
    spec = config.spec
    d = spec.d
    t0 = time.perf_counter()
    flags = RepFlags(
        nonconverged_fits=sum(1 for f in fits if not f.lasso_converged),
        max_sweeps=max(f.lasso_sweeps for f in fits),
        max_kkt=max(f.lasso_kkt for f in fits),
    )
    msgs = _round1_messages(scheme, config, point, fits)
    bits_r1 = [protocol.bit_cost(m, d) for m in msgs]
    theta_avg, est, t = _select_support(scheme, config, point, msgs)
    S_hat = est.indices
    theta = np.zeros(d)
    bits_r2 = 0
    no_estimate = False
    if S_hat.size == 0:
        flags.empty_support = True
    elif scheme == "avg_deblasso":
        # Single-round scheme: the estimate is the truncated average.
        theta[S_hat] = theta_avg[S_hat]
    elif config.second_round == "none":
        no_estimate = True
    else:
        try:
            theta, bits_r2 = _second_round(config, point, ys, S_hat)
        except ValueError:
            flags.round2_failed = True
    f, prec, rec = f_measure(S_hat, point.design.support)
    l2 = None if no_estimate else float(np.linalg.norm(theta - point.theta_star))
    return ExperimentRecord(
        rep=rep,
        scheme=scheme,
        S_hat=[int(i) for i in S_hat],
        f_measure=f,
        precision=prec,
        recall=rec,
        l2_error=l2,
        l2_error_oracle=l2_oracle,
        bits_round1_per_machine=bits_r1,
        bits_round1_total=int(sum(bits_r1)),
        bits_round2_total=int(bits_r2),
        wall_time=fit_seconds + (time.perf_counter() - t0),
        flags=flags,
        fusion_log=fusion.fusion_log_record(scheme, est, t, point.tau, int(sum(bits_r1))),
    )


def _oracle_error(point: PointState, ys) -> float:
    S = point.design.support
    v = np.zeros(S.size)
    for m in range(point.M):
        v += point.design.X[m][: point.n, S].T @ ys[m]
    beta = np.linalg.solve(point.oracle_gram, v)
    theta = np.zeros(point.design.spec.d)
    theta[S] = beta
    return float(np.linalg.norm(theta - point.theta_star))


def run_point_rep(
    point: PointState, config: ExperimentConfig, schemes: list[str], rep: int
) -> list[ExperimentRecord]:
    """One replication, evaluated under several schemes sharing local fits."""
    t0 = time.perf_counter()
    fits, ys = _rep_fits(point, rep)
    fit_seconds = time.perf_counter() - t0
    l2_oracle = _oracle_error(point, ys)
    return [
        _eval_scheme(s, config, point, fits, ys, rep, l2_oracle, fit_seconds) for s in schemes
    ]


def run_replication(
    config: ExperimentConfig, rep_seed: int, point: PointState | None = None
) -> ExperimentRecord:
    """Run one full replication of the configured scheme.

    Deterministic in (config, rep_seed). When no prepared ``point`` is
    supplied the design is built from scratch (or per replication when
    ``fixed_design`` is off).
    """
    if point is None:
        design_rep = 0 if config.fixed_design else rep_seed
        design = build_design(config, rep=design_rep)
        point = materialize(design, config)
    return run_point_rep(point, config, [config.scheme], rep_seed)[0]


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
    schemes: list[str] | None = None,
    out_dir=None,
    design: DesignState | None = None,
) -> SweepResult:
    """Replicate every grid point (optionally under several schemes).

    In fixed-design mode the design is calibrated once at the largest grid
    value of the swept axis (or ``design`` is used as given); smaller values
    reuse row/machine prefixes of it. In redraw mode every replication
    builds its own design at the grid value. Emits long-format CSV rows plus
    per-replication JSON records.
    """
    if sweep_axis not in SWEEP_AXES:
        raise ValueError(f"sweep_axis must be one of {SWEEP_AXES}")
    grid = list(grid)
    if not grid:
        raise ValueError("grid must be nonempty")
    schemes = [config.scheme] if schemes is None else list(schemes)
    for s in schemes:
        if s not in SCHEMES:
            raise ValueError(f"unknown scheme {s!r}")
    if config.fixed_design and design is None:
        design = _design_at(config, sweep_axis, max(grid))
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


def _design_at(config: ExperimentConfig, sweep_axis: str, value, rep: int = 0) -> DesignState:
    """A design calibrated at ``value`` of the swept axis when that axis is n or M."""
    return build_design(
        config,
        n_cal=int(value) if sweep_axis == "n" else None,
        m_cal=int(value) if sweep_axis == "M" else None,
        rep=rep,
    )


def _grid_point(design: DesignState, config: ExperimentConfig, sweep_axis: str, value) -> PointState:
    """Materialize ``design`` at one grid value of the swept axis."""
    if sweep_axis == "L":
        point = materialize(design, config, L=int(value))
    elif sweep_axis == "r":
        point = materialize(design, config, r=float(value))
    else:
        point = materialize(design, config, **{sweep_axis: int(value)})
    point.axis, point.value = sweep_axis, value
    return point
