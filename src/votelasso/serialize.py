"""Writers of shards, ground truth and experiment records, and the JSONL
reader of the records.

Binary container: NumPy ``.npz`` archives with documented keys, readable
with ``np.load``.

* Shard bundle: ``X_<m>`` and ``y_<m>`` per machine (slab m of the stacked
  (M, n, d) designs and row m of the (M, n) responses), ``machine_ids``, plus
  (when a ground truth is attached) ``theta_star``, ``support``,
  ``theta_min``, ``c_omega``, and a ``meta`` JSON string with the generating
  configuration.

CSV: one file per machine, header ``x_1,...,x_d,y``, one row per sample,
readable with ``np.loadtxt(path, delimiter=",", skiprows=1)``.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

from .datagen import GroundTruth


def save_shards(
    path,
    X: np.ndarray,
    Y: np.ndarray,
    truth: GroundTruth | None = None,
    meta: dict | None = None,
) -> None:
    """Write the stacked designs X (M, n, d) and responses Y (M, n)."""
    if Y.shape != X.shape[:2]:
        raise ValueError(f"responses of shape {Y.shape} do not match designs of shape {X.shape}")
    arrays: dict[str, np.ndarray] = {"machine_ids": np.arange(X.shape[0], dtype=np.int64)}
    for m, (X_m, y_m) in enumerate(zip(X, Y)):
        arrays[f"X_{m}"] = X_m
        arrays[f"y_{m}"] = y_m
    if truth is not None:
        arrays["theta_star"] = truth.theta_star
        arrays["support"] = truth.support
        arrays["theta_min"] = np.array(truth.theta_min)
        if truth.c_omega is not None:
            arrays["c_omega"] = np.array(truth.c_omega)
    if meta is not None:
        arrays["meta"] = np.array(json.dumps(meta))
    np.savez_compressed(path, **arrays)


def shard_to_csv(X_m: np.ndarray, y_m: np.ndarray, path) -> None:
    """Write one machine's (n, d) design and length-n response."""
    d = X_m.shape[1]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"x_{j}" for j in range(1, d + 1)] + ["y"])
        for row, yi in zip(X_m, y_m):
            writer.writerow([repr(float(v)) for v in row] + [repr(float(yi))])


def dump_jsonl(path, records: list[dict]) -> None:
    with open(path, "w") as fh:
        for rec in records:
            fh.write(json.dumps(rec) + "\n")


def load_jsonl(path, keys=()) -> list[dict]:
    """The records of a JSONL file, one JSON object per nonblank line, each
    holding every one of ``keys``.

    Raises ValueError naming ``path:line`` for a line that is not UTF-8
    text, not JSON or not a JSON object, and then for the first record that
    lacks one of ``keys``; OSError when the file cannot be read.
    """
    numbered = []
    with open(path, "rb") as fh:
        for number, raw in enumerate(fh, 1):
            try:
                line = raw.decode("utf-8").strip()
            except UnicodeDecodeError:
                raise ValueError(f"{path}:{number}: not UTF-8 text") from None
            if not line:
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{number}: not JSON ({exc.msg})") from None
            if not isinstance(rec, dict):
                raise ValueError(f"{path}:{number}: not a JSON object")
            numbered.append((number, rec))
    for number, rec in numbered:
        missing = [key for key in keys if key not in rec]
        if missing:
            raise ValueError(f"{path}:{number}: missing keys {', '.join(missing)}")
    return [rec for _, rec in numbered]


def write_csv_rows(path, rows: list[dict], columns: list[str]) -> None:
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=columns)
        writer.writeheader()
        for row in rows:
            writer.writerow(row)
