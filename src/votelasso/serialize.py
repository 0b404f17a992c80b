"""Writers of shards, ground truth and experiment records, and the JSONL
reader of the records.

Binary container: NumPy ``.npz`` archives with documented keys, readable
with ``np.load``.

* Shard bundle: ``X_<m>`` and ``y_<m>`` per machine, ``machine_ids``, plus
  (when a ground truth is attached) ``theta_star``, ``support``,
  ``theta_min``, ``c_omega``, and a ``meta`` JSON string with the generating
  configuration.

CSV: one file per shard, header ``x_1,...,x_d,y``, one row per sample,
readable with ``np.loadtxt(path, delimiter=",", skiprows=1)``.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

from .datagen import DataShard, GroundTruth


def save_shards(
    path,
    shards: list[DataShard],
    truth: GroundTruth | None = None,
    meta: dict | None = None,
) -> None:
    arrays: dict[str, np.ndarray] = {
        "machine_ids": np.array([s.machine_id for s in shards], dtype=np.int64)
    }
    for s in shards:
        arrays[f"X_{s.machine_id}"] = s.X
        if s.y is not None:
            arrays[f"y_{s.machine_id}"] = s.y
    if truth is not None:
        arrays["theta_star"] = truth.theta_star
        arrays["support"] = truth.support
        arrays["theta_min"] = np.array(truth.theta_min)
        if truth.c_omega is not None:
            arrays["c_omega"] = np.array(truth.c_omega)
    if meta is not None:
        arrays["meta"] = np.array(json.dumps(meta))
    np.savez_compressed(path, **arrays)


def shard_to_csv(shard: DataShard, path) -> None:
    d = shard.X.shape[1]
    if shard.y is None:
        raise ValueError("shard has no response vector")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"x_{j}" for j in range(1, d + 1)] + ["y"])
        for row, yi in zip(shard.X, shard.y):
            writer.writerow([repr(float(v)) for v in row] + [repr(float(yi))])


def dump_jsonl(path, records: list[dict]) -> None:
    with open(path, "w") as fh:
        for rec in records:
            fh.write(json.dumps(rec) + "\n")


def load_jsonl(path) -> list[dict]:
    out = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line:
                out.append(json.loads(line))
    return out


def write_csv_rows(path, rows: list[dict], columns: list[str]) -> None:
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=columns)
        writer.writeheader()
        for row in rows:
            writer.writerow(row)
