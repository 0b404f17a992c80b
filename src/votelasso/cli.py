"""Command-line interface.

Subcommands: ``generate`` (emit shards and ground truth), ``run`` (one
configuration), ``sweep`` (grid of configurations), ``theory`` (feasibility
report), ``report`` (merge sweep outputs into one long-format CSV).

A ``--config FILE`` of ``key = value`` lines (the long flag names,
underscores for dashes, ``#`` comments) may supply the problem and run
options; explicit flags override the file. Output, sweep-grid and scale
flags are command-line only, and a key the command does not read, or one
set twice, is an error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .datagen import GroundTruth, ProblemSpec, sample_responses
from .harness import (
    LAMBDA_OMEGA_RULES,
    LAMBDA_RULES,
    SCHEMES,
    SECOND_ROUNDS,
    SPARSITY_MODES,
    SWEEP_AXES,
    TAU_RULES,
    ExperimentConfig,
    build_design,
    check_grid,
    materialize,
    run_sweep,
)
from .serialize import load_jsonl, save_shards, shard_to_csv, write_csv_rows
from .theory import thm2_regime, thm3_regime

PAPER_SCALE = {"d": 5000, "n": 250, "machines": 100, "k": 5, "reps": 500}
DESK_SCALE = {"d": 1000, "n": 200, "machines": 100, "k": 5, "reps": 100}

# Keys a config file may set: ``generate`` reads the problem keys, run and sweep both.
PROBLEM_KEYS = ("d", "n", "machines", "k", "r", "corr_decay", "sigma", "seed")
RUN_KEYS = (
    "scheme", "sparsity_mode", "l", "tau", "lam", "lam_omega", "second_round", "reps",
    "no_precision_reuse", "redraw_design",
)
# Flags a config file cannot set.
FLAG_ONLY_KEYS = ("out", "csv", "axis", "grid", "paper_scale", "config")


def _read_config_file(path: str) -> dict[str, str]:
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise SystemExit(f"cannot read config file {path}: {getattr(exc, 'strerror', None) or exc}") from None
    values = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise SystemExit(f"bad config line (expected key = value): {raw!r}")
        key, val = (part.strip() for part in line.split("=", 1))
        key = key.replace("-", "_")
        if key in values:
            raise SystemExit(f"config key {key!r} is set more than once")
        values[key] = val
    return values


def _file_values(args: argparse.Namespace) -> dict[str, str]:
    """The ``--config`` file's values; exits naming any key the command does not read."""
    if not args.config:
        return {}
    readable = PROBLEM_KEYS if args.command == "generate" else PROBLEM_KEYS + RUN_KEYS
    values = _read_config_file(args.config)
    for key in values:
        if key in FLAG_ONLY_KEYS:
            flag = "--" + key.replace("_", "-")
            raise SystemExit(f"config key {key!r} cannot be set from a config file; pass {flag}")
        if key not in readable:
            raise SystemExit(f"unknown config key {key!r} for {args.command}")
    return values


def _parse_bool(raw: str) -> bool:
    value = raw.lower()
    if value not in ("true", "false"):
        raise ValueError(f"expected true or false, got {raw!r}")
    return value == "true"


def _parse_sigma(raw: str) -> str | float:
    return raw if raw == "from_r" else float(raw)


def _grid_number(raw: str) -> int | float:
    """A grid token: an integer literal as an int, any other number as a
    float, so a whole-number axis records the grid as written."""
    try:
        return int(raw)
    except ValueError:
        return float(raw)


def _rule_or_number(raw: str) -> str | float:
    """A number, or else the text as a rule name for the config to check."""
    try:
        return float(raw)
    except ValueError:
        return raw


def _add_problem_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--d", type=int, help="dimension")
    p.add_argument("--n", type=int, help="samples per machine")
    p.add_argument("--machines", type=int, help="number of machines M")
    p.add_argument("--k", type=int, help="sparsity K")
    p.add_argument("--r", type=float, help="SNR parameter in (0, 1]")
    p.add_argument("--corr-decay", type=float, default=None, help="AR(1) parameter (default 0.5)")
    p.add_argument(
        "--sigma", type=_parse_sigma, default=None, help="noise level, or 'from_r' (default)"
    )
    p.add_argument("--seed", type=int, help="base seed")
    p.add_argument("--paper-scale", action="store_true", help="use d=5000, n=250, M=100, K=5, reps=500 defaults")
    p.add_argument("--config", help="key = value file; flags override")


def _add_run_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--scheme", default=None, help=f"comma-separated subset of {SCHEMES}")
    p.add_argument("--sparsity-mode", choices=SPARSITY_MODES, default=None)
    p.add_argument("--l", type=int, default=None, help="L for top-L schemes (default K)")
    p.add_argument(
        "--tau", type=_rule_or_number, default=None,
        help=f"vote threshold: one of {', '.join(TAU_RULES)} (default {TAU_RULES[0]}), or a number",
    )
    p.add_argument(
        "--lambda", dest="lam", type=_rule_or_number, default=None,
        help=f"lasso penalty: {LAMBDA_RULES[0]} (8 sqrt(ln d / n), the default) or a number",
    )
    p.add_argument(
        "--lambda-omega", dest="lam_omega", type=_rule_or_number, default=None,
        help=f"nodewise penalty: {LAMBDA_OMEGA_RULES[0]} (2 sqrt(ln d / n), the default) or a number",
    )
    p.add_argument("--second-round", choices=SECOND_ROUNDS, default=None)
    p.add_argument("--reps", type=int, default=None)
    p.add_argument("--no-precision-reuse", action="store_true")
    p.add_argument("--redraw-design", action="store_true", help="redraw design each replication")
    p.add_argument("--out", default="out", help="output directory")


def _merged(args: argparse.Namespace, file_values: dict[str, str], key: str, cast, default):
    """Flag > config file > scale default."""
    flag = getattr(args, key, None)
    if flag is not None and flag is not False:
        return flag
    if key in file_values:
        raw = file_values[key]
        try:
            return raw if cast is str else cast(raw)
        except ValueError as exc:
            raise SystemExit(f"config key {key!r}: {exc}") from None
    return default


def _build_spec(args, file_values: dict[str, str]) -> ProblemSpec:
    scale = PAPER_SCALE if args.paper_scale else DESK_SCALE
    try:
        return ProblemSpec(
            d=_merged(args, file_values, "d", int, scale["d"]),
            K=_merged(args, file_values, "k", int, scale["k"]),
            M=_merged(args, file_values, "machines", int, scale["machines"]),
            n=_merged(args, file_values, "n", int, scale["n"]),
            r=_merged(args, file_values, "r", float, 0.8),
            corr_decay=_merged(args, file_values, "corr_decay", float, 0.5),
            sigma=_merged(args, file_values, "sigma", _parse_sigma, "from_r"),
            base_seed=_merged(args, file_values, "seed", int, 0),
        )
    except ValueError as exc:
        raise SystemExit(f"bad problem configuration: {exc}") from None


def _build_config(
    args, spec: ProblemSpec, file_values: dict[str, str]
) -> tuple[ExperimentConfig, list[str]]:
    scale = PAPER_SCALE if args.paper_scale else DESK_SCALE
    schemes_raw = _merged(args, file_values, "scheme", str, "thresh_votes")
    schemes = [s.strip() for s in schemes_raw.split(",") if s.strip()]
    if not schemes:
        raise SystemExit(f"scheme: no scheme given; choose from {', '.join(SCHEMES)}")
    for scheme in schemes:
        if scheme not in SCHEMES:
            raise SystemExit(f"scheme: unknown scheme {scheme!r}; choose from {', '.join(SCHEMES)}")
    try:
        config = ExperimentConfig(
            spec=spec,
            sparsity_mode=_merged(args, file_values, "sparsity_mode", str, "known"),
            L=_merged(args, file_values, "l", int, None),
            tau=_merged(args, file_values, "tau", _rule_or_number, TAU_RULES[0]),
            lam=_merged(args, file_values, "lam", _rule_or_number, LAMBDA_RULES[0]),
            lam_omega=_merged(args, file_values, "lam_omega", _rule_or_number, LAMBDA_OMEGA_RULES[0]),
            second_round=_merged(args, file_values, "second_round", str, "average"),
            reps=_merged(args, file_values, "reps", int, scale["reps"]),
            fixed_design=not _merged(args, file_values, "redraw_design", _parse_bool, False),
            precision_reuse=not _merged(args, file_values, "no_precision_reuse", _parse_bool, False),
        )
    except ValueError as exc:
        raise SystemExit(f"bad run configuration: {exc}") from None
    return config, schemes


def cmd_generate(args) -> int:
    spec = _build_spec(args, _file_values(args))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    config = ExperimentConfig(spec=spec)
    design = build_design(config)
    point = materialize(design, config)
    sigma, c_omega = spec.sigma_value(), design.c_omega
    truth = GroundTruth(
        theta_star=point.theta_star,
        support=design.support,
        theta_min=point.theta_min,
        c_omega=c_omega,
    )
    Y = sample_responses(design.X, truth.theta_star, sigma, spec.base_seed)
    bundle = out / "shards.npz"
    save_shards(
        bundle,
        design.X,
        Y,
        truth,
        meta={
            "d": spec.d,
            "K": spec.K,
            "M": spec.M,
            "n": spec.n,
            "r": spec.r,
            "corr_decay": spec.corr_decay,
            "sigma": sigma,
            "base_seed": spec.base_seed,
        },
    )
    if args.csv:
        for m in range(spec.M):
            shard_to_csv(design.X[m], Y[m], out / f"shard_{m:04d}.csv")
    print(f"wrote {bundle} (M={spec.M}, n={spec.n}, d={spec.d}, c_omega={c_omega:.4f})")
    return 0


def cmd_run(args) -> int:
    file_values = _file_values(args)
    spec = _build_spec(args, file_values)
    config, schemes = _build_config(args, spec, file_values)
    try:
        check_grid(config, "r", [spec.r], schemes)
    except ValueError as exc:
        raise SystemExit(f"bad run configuration: {exc}") from None
    result = run_sweep(config, "r", [spec.r], schemes=schemes, out_dir=args.out)
    for row in result.rows:
        print(
            f"scheme={row['scheme']} f={row['f_mean']:.4f}±{row['f_se']:.4f} "
            f"l2={row['l2_mean']:.4g} oracle={row['oracle_l2_mean']:.4g} "
            f"bits/machine={row['bits_r1_mean']:.1f}"
        )
    print(f"wrote {Path(args.out) / 'summary.csv'} and records.jsonl")
    return 0


def cmd_sweep(args) -> int:
    file_values = _file_values(args)
    spec = _build_spec(args, file_values)
    config, schemes = _build_config(args, spec, file_values)
    try:
        # A lam value may also be a rule name, which check_grid judges.
        parse = _rule_or_number if args.axis == "lam" else _grid_number
        grid = [parse(v) for v in args.grid.split(",")]
    except ValueError:
        raise SystemExit(f"--grid: expected comma-separated numbers, got {args.grid!r}") from None
    try:
        check_grid(config, args.axis, grid, schemes)
    except ValueError as exc:
        raise SystemExit(f"bad problem configuration: {exc}") from None
    result = run_sweep(config, args.axis, grid, schemes=schemes, out_dir=args.out)
    for row in result.rows:
        print(
            f"{row['axis']}={row['value']} scheme={row['scheme']} "
            f"f={row['f_mean']:.4f} l2={row['l2_mean']:.4g}"
        )
    print(f"wrote {Path(args.out) / 'summary.csv'} and records.jsonl")
    return 0


def cmd_theory(args) -> int:
    fn = thm2_regime if args.theorem == 2 else thm3_regime
    try:
        report = fn(args.d, args.r, args.epsilon)
    except ValueError as exc:
        raise SystemExit(f"bad theory arguments: {exc}") from None
    payload = report.to_dict()
    payload["theorem"] = args.theorem
    print(json.dumps(payload, indent=2, allow_nan=False))
    return 0


def cmd_report(args) -> int:
    labels, metrics = ("axis", "value", "scheme", "rep"), ("f_measure", "l2_error")
    rows = []
    for src in args.inputs:
        path = Path(src)
        try:
            records = load_jsonl(path / "records.jsonl" if path.is_dir() else path, labels + metrics)
        except (OSError, ValueError) as exc:
            raise SystemExit(f"bad report input: {exc}") from None
        for rec in records:
            row = {key: rec[key] for key in labels}
            rows += [{**row, "metric": metric, "metric_value": rec[metric]} for metric in metrics]
    write_csv_rows(args.out, rows, [*labels, "metric", "metric_value"])
    print(f"wrote {args.out} ({len(rows)} rows)")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="votelasso",
        description="Communication-constrained distributed sparse regression simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("generate", help="emit shards and ground truth")
    _add_problem_flags(p_gen)
    p_gen.add_argument("--out", default="out", help="output directory")
    p_gen.add_argument("--csv", action="store_true", help="also write one CSV per shard")
    p_gen.set_defaults(fn=cmd_generate)

    p_run = sub.add_parser("run", help="replicate one configuration")
    _add_problem_flags(p_run)
    _add_run_flags(p_run)
    p_run.set_defaults(fn=cmd_run)

    p_sweep = sub.add_parser("sweep", help="replicate a grid of configurations")
    _add_problem_flags(p_sweep)
    _add_run_flags(p_sweep)
    p_sweep.add_argument("--axis", choices=SWEEP_AXES, required=True)
    p_sweep.add_argument("--grid", required=True, help="comma-separated grid values")
    p_sweep.set_defaults(fn=cmd_sweep)

    p_theory = sub.add_parser("theory", help="print a feasibility report as JSON")
    p_theory.add_argument("--theorem", type=int, choices=(2, 3), default=2)
    p_theory.add_argument("--d", type=int, required=True)
    p_theory.add_argument("--r", type=float, required=True)
    p_theory.add_argument("--epsilon", type=float, default=0.0)
    p_theory.set_defaults(fn=cmd_theory)

    p_report = sub.add_parser("report", help="merge run/sweep outputs into long CSV")
    p_report.add_argument("inputs", nargs="+", help="records.jsonl files or run directories")
    p_report.add_argument("--out", default="report.csv")
    p_report.set_defaults(fn=cmd_report)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
