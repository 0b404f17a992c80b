#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the votelasso simulation pipeline.

Run from the repository root:

    python3 perfbench/run.py --workload fixed_reps --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --seed 1                 # every workload, one process each
    python3 perfbench/run.py --workload fixed_reps --seed 1 --write-reference
    python3 perfbench/smoke.py                        # the benchmark's own smoke test

Each run drives the public harness API the CLI uses: ``harness.build_design``
then ``harness.run_sweep(..., design=...)`` with all six schemes, as a closed
loop with one caller (a replication starts when the previous one returns).
It builds ``workloads.DESIGNS`` designs from seeds derived from ``--seed``
and sweeps each once in a check pass, which feeds the result gate
(``gate.py``); then it repeats the last design's sweep for ``--seconds``.

Every time reported is CPU time of this process (``time.process_time``).
The run is one thread (BLAS threads are pinned to 1) and compute-bound, so
on an idle machine its CPU time equals its wall time. A change that adds
threads or worker processes has to time wall clock instead, and re-baseline.
On a shared host CPU time still swings by up to 2x with other guests' load,
so the end-to-end times (all but the import) are scaled to reference speed
by a fixed task timed beside them (``calibrate.py``); the manifest records
the task's median time. Per-layer times from ``--trace 1`` are not scaled.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` builds and sweeps
the first design once untraced and once with a span around every layer call
(``probes.py``), and prints per-layer self times, call counts and exact work
counts. The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The run exits with 1
when the gate fails and with 2 when the package cannot be imported from
``src/`` next to this directory. Results, the manifest and spans are written
under ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def import_votelasso() -> float:
    """Import the package from this checkout's ``src/``; returns seconds taken."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    t0 = time.process_time()
    try:
        import votelasso
    except ImportError as exc:
        print(f"perfbench: cannot import votelasso from {src}: {exc}", file=sys.stderr)
        sys.exit(2)
    elapsed = time.process_time() - t0
    if Path(votelasso.__file__).resolve().parent != src / "votelasso":
        print(f"perfbench: votelasso was imported from {votelasso.__file__}, not {src}", file=sys.stderr)
        sys.exit(2)
    return elapsed


def git_revision() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def manifest(workload, seed: int, samples: dict, reference: str) -> dict:
    from importlib import metadata

    import numpy as np

    from votelasso import _kernels

    try:
        scipy_version = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy_version = None
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": workload.name,
        "sizes": {"d": workload.d, "n": workload.n, "M": workload.M, "reps": workload.reps},
        "seed": seed,
        "design_seeds": workload.design_seeds(seed),
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "using_numba": bool(_kernels.USING_NUMBA),
        "git_revision": git_revision(),
        "samples": samples,
        "reference": reference,
    }


def design_state(design) -> dict:
    """Exact sizes of what a built design stores."""
    omegas = design.omegas
    d = design.spec.d
    return {
        "omega_nnz_per_row": sum(int((o != 0).sum()) for o in omegas) / (len(omegas) * d),
        "omega_bytes": sum(o.nbytes for o in omegas),
        "gram_cache_bytes": sum(g.nbytes for g in design.grams) if design.grams is not None else 0,
    }


def outcome(base_seed: int, records: list[dict], checks) -> dict:
    """What the gate checks about one design's sweep."""
    import gate

    return {
        "base_seed": base_seed,
        "digest": gate.digest(records),
        **gate.Tally().add(records).outputs(),
        "kkt_nodewise": checks.max_kkt["nodewise"],
        "kkt_replication": checks.max_kkt["replication"],
        "round_trip_mismatches": checks.counts["round_trip_mismatches"],
        "repeatable": True,
    }


def check_design(workload, base_seed: int, sweep_dir: Path):
    """Build one design (timed) and sweep it once with the gate's probes on.

    The build time is at reference speed, by the median of the reference
    task's times: it runs before each machine's precision estimate, outside
    the time taken.
    """
    import calibrate
    import probes
    from votelasso import harness

    config = workload.config(base_seed)
    checks = probes.Checks()
    task_s = []
    with probes.Patches() as patches:
        checks.install_nodewise(patches)
        patches.wrap(harness, "estimate_precision", calibrate.before_calls(task_s))
        t0 = time.process_time()
        design = harness.build_design(config, n_cal=workload.n_cal)
        build_s = calibrate.to_reference(
            time.process_time() - t0 - sum(task_s), statistics.median(task_s)
        )
    with probes.Patches() as patches:
        checks.install_replication(patches)
        result = harness.run_sweep(
            config, workload.axis, workload.grid, list(harness.SCHEMES), sweep_dir, design=design
        )
    return config, design, build_s, result.records, outcome(base_seed, result.records, checks)


def run_untraced(workload, seed: int, seconds: float, import_s: float, run_dir: Path):
    """End-to-end metrics; the statistical outputs come from the check passes.

    Every design is built and checked; the last one is then swept again in
    timed passes, each one ``run_sweep`` call of at least 100 replications,
    until ``seconds`` are used. The passes repeat the same work (the gate
    checks that they select the same supports). The reference task
    (``calibrate.py``) runs before every replication, outside its time, and
    each replication's time is taken at reference speed by the task's time
    just before it, then as the median over passes. The sweep's own work
    outside the replications (``materialize``, aggregation, output) is
    taken at reference speed by the pass's median task time, then as the
    median over passes; ``reps_per_s`` divides the replications by it plus
    the replications' times.
    """
    import calibrate
    import gate
    import numpy as np
    import probes

    from votelasso import harness

    build_s, outcomes = [], []
    tally = gate.Tally()
    sweep_dir = run_dir / "sweep"
    for base_seed in workload.design_seeds(seed):
        design = None  # hold one design at a time, as a user would
        config, design, built, records, checked = check_design(workload, base_seed, sweep_dir)
        build_s.append(built)
        tally.add(records)
        outcomes.append(checked)
        del records
    between_s, rep_runs, task_runs = [], [], []
    start = time.perf_counter()
    while not rep_runs or time.perf_counter() - start < seconds:
        rep_runs.append([])
        task_runs.append([])
        with probes.Patches() as patches:
            patches.wrap(harness, "run_point_rep", probes.time_calls(rep_runs[-1]))
            patches.wrap(harness, "run_point_rep", calibrate.before_calls(task_runs[-1]))
            t0 = time.process_time()
            result = harness.run_sweep(
                config, workload.axis, workload.grid, list(harness.SCHEMES), sweep_dir,
                design=design,
            )
            spent = time.process_time() - t0
            between_s.append(spent - sum(rep_runs[-1]) - sum(task_runs[-1]))
        if gate.digest(result.records) != checked["digest"]:
            checked["repeatable"] = False
    task_s = np.array(task_runs)
    rep_s = np.median(calibrate.to_reference(np.array(rep_runs), task_s), axis=0)
    between = float(np.median(calibrate.to_reference(np.array(between_s), np.median(task_s, axis=1))))
    setup_s = import_s + statistics.median(build_s)
    outputs = tally.outputs()
    metrics = {
        "setup_s": (setup_s, "s"),
        "rep_ms_p50": (1e3 * float(np.percentile(rep_s, 50)), "ms"),
        "rep_ms_p90": (1e3 * float(np.percentile(rep_s, 90)), "ms"),
        "reps_per_s": (rep_s.size / (rep_s.sum() + between), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        "f_mean": (outputs["f_mean"], "1"),
        "bits_r1_per_machine": (outputs["bits_r1_per_machine"], "bit"),
    }
    samples = {
        "build_s": build_s,
        "timed_passes": len(rep_runs),
        "task_ms_median": 1e3 * float(np.median(task_s)),
        "task_ms_reference": 1e3 * calibrate.REF_S,
        "replications": rep_s.size,
    }
    return metrics, outcomes, tally, samples


def run_traced(workload, seed: int, import_s: float, run_dir: Path):
    """Per-layer metrics from the first design, plus the tracing overhead.

    The overhead is the traced total minus the untraced total of the same
    design in the same process. The untraced total is the mean of one
    build and sweep before the traced one and one after it, so that the
    first build's extra cost and slow drifts in machine speed cancel.

    ``harness.other_s`` is the traced total minus every layer's self time:
    the import, and the harness's own work inside ``build_design``,
    ``run_sweep`` and ``run_point_rep`` (records, aggregation, bit counts).
    """
    import gate
    import probes

    from votelasso import harness

    config = workload.config(workload.design_seeds(seed)[0])
    schemes = list(harness.SCHEMES)
    sweep_dir = run_dir / "sweep"

    def untraced() -> float:
        t0 = time.process_time()
        design = harness.build_design(config, n_cal=workload.n_cal)
        harness.run_sweep(config, workload.axis, workload.grid, schemes, sweep_dir, design=design)
        return import_s + time.process_time() - t0

    untraced_s = untraced()
    tracer = probes.Tracer()
    checks = probes.Checks(defer_messages=True)
    with probes.Patches() as patches:
        # Spans go on first, so the checks' own work stays outside them.
        tracer.install(patches)
        checks.install_nodewise(patches)
        checks.install_replication(patches)
        build = tracer.span("harness.build_design")(harness.build_design)
        sweep = tracer.span("harness.run_sweep")(harness.run_sweep)
        t0 = time.process_time()
        design = build(config, n_cal=workload.n_cal)
        result = sweep(config, workload.axis, workload.grid, schemes, sweep_dir, design=design)
        traced_s = import_s + time.process_time() - t0
    state = design_state(design)
    written = sum(p.stat().st_size for p in sweep_dir.iterdir())
    del design
    untraced_s = (untraced_s + untraced()) / 2
    checks.flush_messages()
    tracer.dump(run_dir / "spans.jsonl")

    tally = gate.Tally().add(result.records)
    checked = outcome(config.spec.base_seed, result.records, checks)

    metrics = {}
    layer_s = 0.0
    spans = tracer.self_times()
    for name in probes.SPANS:
        busy, calls = spans.get(name, (0.0, 0))
        layer_s += busy
        metrics[f"{name}_s"] = (busy, "s")
        metrics[f"{name}_calls"] = (calls, "count")
    counts = checks.counts
    metrics.update(
        {
            "harness.other_s": (traced_s - layer_s, "s"),
            "harness.gram_cache_bytes": (state["gram_cache_bytes"], "B"),
            "debias.nodewise_sweeps": (counts["nodewise_sweeps"], "count"),
            "debias.omega_nnz_per_row": (state["omega_nnz_per_row"], "count"),
            "debias.omega_bytes": (state["omega_bytes"], "B"),
            "lasso.gram_sweeps": (counts["gram_sweeps"], "count"),
            "lasso.residual_sweeps": (counts["residual_sweeps"], "count"),
            "lasso.max_kkt": (max(checks.max_kkt.values()), "1"),
            "lasso.nonconverged": (counts["nonconverged"], "count"),
            "protocol.bits_r1": (tally.bits_r1_total, "bit"),
            "protocol.bits_r2": (tally.bits_r2_total, "bit"),
            "protocol.wire_bytes_r1": (checks.wire_bytes[1], "B"),
            "protocol.wire_bytes_r2": (checks.wire_bytes[2], "B"),
            "protocol.encode_s": (checks.encode_s, "s"),
            "protocol.decode_s": (checks.decode_s, "s"),
            "fusion.empty_support": (tally.empty_support, "count"),
            "fusion.round2_failed": (tally.round2_failed, "count"),
            "serialize.bytes_written": (written, "B"),
            "l2_ratio": (checked["l2_ratio"], "1"),
            "fail_ratio": (tally.failed / tally.attempted, "1"),
            "total_s": (untraced_s, "s"),
            "trace.total_s": (traced_s, "s"),
            "trace.overhead_s": (traced_s - untraced_s, "s"),
        }
    )
    samples = {"traced_replications": metrics["harness.rep_fits_self_calls"][0], "spans": len(tracer.spans)}
    return metrics, [checked], tally, samples


def run_workload(args) -> int:
    import_s = import_votelasso()
    import gate

    workload = WORKLOADS[args.workload]
    if args.tiny:
        workload = workload.tiny()
    name = workload.name + ("-tiny" if args.tiny else "")
    run_dir = OUT_DIR / f"{name}-seed{args.seed}"
    run_dir.mkdir(parents=True, exist_ok=True)
    ref_path = gate.reference_path(args.reference_dir, name, args.seed)

    if args.write_reference:
        outcomes = []
        for base_seed in workload.design_seeds(args.seed):
            *_, checked = check_design(workload, base_seed, run_dir / "sweep")
            outcomes.append(checked)
        found = gate.problems(outcomes, None)
        if found:
            print("\n".join(found), file=sys.stderr)
            return 1
        keys = ("base_seed", "digest", *gate.FLOAT_KEYS, "kkt_nodewise", "kkt_replication")
        gate.write_reference(
            ref_path, name, args.seed, [{k: o[k] for k in keys} for o in outcomes]
        )
        print(f"wrote {ref_path}")
        return 0

    if args.trace:
        metrics, outcomes, tally, samples = run_traced(workload, args.seed, import_s, run_dir)
    else:
        metrics, outcomes, tally, samples = run_untraced(
            workload, args.seed, args.seconds, import_s, run_dir
        )
    reference = gate.load_reference(ref_path)
    found = gate.problems(outcomes, reference)
    info = manifest(workload, args.seed, samples, "compared" if reference else "none")
    result = {
        "correct": not found,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    (run_dir / f"result-trace{args.trace}.json").write_text(
        json.dumps({"manifest": info, "designs": outcomes, "problems": found, **result}, indent=1)
    )
    for key, (value, unit) in metrics.items():
        note = ""
        if key.startswith("rep_ms_"):
            note = f"  (n={samples['replications']}, median of {samples['timed_passes']} passes)"
        print(f"{name:20s} {key:34s} {value:14.6g} {unit}{note}")
    print("manifest " + json.dumps(info))
    for problem in found:
        print(f"perfbench: {name} seed {args.seed}: {problem}", file=sys.stderr)
    print(json.dumps(result))
    return 1 if found else 0


def run_all(args) -> int:
    """Every workload, each in its own process; fails if any of them fails."""
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.tiny:
            cmd.append("--tiny")
        status = max(status, subprocess.run(cmd, check=False).returncode)
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="one workload; all of them when omitted")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true",
                        help="store the gate's reference for this workload and seed")
    parser.add_argument("--tiny", action="store_true", help="shrink the workload (smoke test)")
    parser.add_argument("--reference-dir", type=Path, default=HERE / "references")
    args = parser.parse_args(argv)
    # BLAS threads are pinned before NumPy is first imported.
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    if args.workload is None:
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
