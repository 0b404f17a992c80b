#!/usr/bin/env python3
"""Smoke test of the benchmark itself. Run from anywhere:

    python3 perfbench/smoke.py

It checks, at a tiny size, that every workload runs untraced and traced and
emits every metric named in BENCHMARK.json with its unit; that the layer
self times plus harness.other add up to the traced total; that the result
gate trips when a stored reference is perturbed; and that the benchmark
fails without printing a result in a directory without the package.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = ROOT / ".perfbench_out" / "smoke"


def check(ok: bool, what: str, detail: str = "") -> None:
    if not ok:
        raise SystemExit(f"FAIL {what}\n{detail}")
    print(f"ok   {what}")


def bench(*args: str, cwd: Path = ROOT) -> tuple[int, dict | None, str]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--seed", "0", "--seconds", "1", "--tiny", *args],
        cwd=cwd, capture_output=True, text=True, timeout=600, check=False,
    )
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc.returncode, result, proc.stderr


def check_metrics(spec: dict) -> None:
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            code, result, err = bench("--workload", workload, "--trace", str(trace))
            label = f"{workload} --trace {trace}"
            check(code == 0 and result is not None, f"{label} exits 0 with a result", err)
            check(
                set(result) == {"correct", "attempted", "failed", "metrics"}
                and result["correct"] is True
                and result["attempted"] >= 1,
                f"{label} result is correct",
            )
            want = {m["name"]: m["unit"] for m in spec[kind]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            check(got == want, f"{label} emits every {kind} metric with its unit")
            if trace:
                values = {name: m["value"] for name, m in result["metrics"].items()}
                not_layers = ("total_s", "trace.total_s", "trace.overhead_s",
                              "protocol.encode_s", "protocol.decode_s")
                parts = [
                    v for name, v in values.items()
                    if name.endswith("_s") and name not in not_layers
                ]
                total = values["trace.total_s"]
                check(
                    min(parts) >= 0 and abs(sum(parts) - total) <= 1e-9 * total,
                    f"{label} layer self times plus harness.other add up to trace.total_s",
                )


def check_gate() -> None:
    refs = SCRATCH / "references"
    args = ("--workload", "fixed_reps", "--reference-dir", str(refs))
    code, _, err = bench(*args, "--write-reference")
    check(code == 0, "reference written", err)
    path = refs / "fixed_reps-tiny-seed0.json"
    stored = path.read_text()
    code, result, _ = bench(*args)
    check(code == 0 and result["correct"], "run matches its own reference")
    perturbations = {
        "digest": lambda d: d.update(digest="0" * 64),
        "f_mean": lambda d: d.update(f_mean=d["f_mean"] + 1e-6),
        "l2_ratio": lambda d: d.update(l2_ratio=d["l2_ratio"] * (1 + 1e-6)),
    }
    for key, perturb in perturbations.items():
        body = json.loads(stored)
        perturb(body["designs"][-1])
        path.write_text(json.dumps(body))
        code, result, err = bench(*args)
        check(
            code == 1 and result is not None and result["correct"] is False and key in err,
            f"gate trips on a perturbed {key}",
        )
    path.write_text(stored)


def check_bare_directory() -> None:
    bare = SCRATCH / "bare"
    shutil.copy2(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    code, result, _ = bench("--workload", "fixed_reps", cwd=bare)
    check(code != 0 and result is None, "fails without a result where src/ is missing")


def main() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    shutil.rmtree(SCRATCH, ignore_errors=True)
    (SCRATCH / "bare").mkdir(parents=True)
    check_metrics(spec)
    check_gate()
    check_bare_directory()
    print("smoke test passed")


if __name__ == "__main__":
    main()
