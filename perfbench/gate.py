"""Result checksum gate.

For each design of a run the gate keeps a digest of every selected support
``S_hat``, the statistical outputs (F-measure, l2 ratio, round-1 bits per
machine) and the largest KKT residual of the nodewise and replication fits.
A run is incorrect if a KKT residual exceeds ``KKT_TOL``, a wire round trip
changes a message, a repeated sweep gives other supports, or, when a stored
reference exists for the workload and seed, a digest differs or a float
differs from it by more than ``KKT_TOL`` (relative to max(1, |reference|)).
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from votelasso.lasso import KKT_TOL

FLOAT_KEYS = ("f_mean", "l2_ratio", "bits_r1_per_machine")


def digest(records: list[dict]) -> str:
    """sha256 over (grid value, rep, scheme, S_hat) of every record, in order."""
    rows = [[r["value"], r["rep"], r["scheme"], r["S_hat"]] for r in records]
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


class Tally:
    """Sums over sweep records, from which the statistical outputs follow."""

    def __init__(self):
        self.records = 0
        self.f_sum = 0.0
        self.l2_sum = 0.0
        self.l2_oracle_sum = 0.0
        self.bits_r1_sum = 0.0
        self.bits_r1_total = 0
        self.bits_r2_total = 0
        self.fits = 0
        self.nonconverged = 0
        self.round2_attempts = 0
        self.empty_support = 0
        self.round2_failed = 0

    def add(self, records: list[dict]) -> "Tally":
        first_scheme = records[0]["scheme"]
        for r in records:
            machines = len(r["bits_round1_per_machine"])
            self.records += 1
            self.f_sum += r["f_measure"]
            if r["l2_error"] is not None:
                self.l2_sum += r["l2_error"]
                self.l2_oracle_sum += r["l2_error_oracle"]
            self.bits_r1_sum += r["bits_round1_total"] / machines
            self.bits_r1_total += r["bits_round1_total"]
            self.bits_r2_total += r["bits_round2_total"]
            flags = r["flags"]
            if r["scheme"] == first_scheme:
                # All schemes of one replication share its local fits.
                self.fits += machines
                self.nonconverged += flags["nonconverged_fits"]
            if r["scheme"] != "avg_deblasso":
                self.round2_attempts += 1
                self.empty_support += flags["empty_support"]
                self.round2_failed += flags["round2_failed"]
        return self

    @property
    def attempted(self) -> int:
        return self.fits + self.round2_attempts

    @property
    def failed(self) -> int:
        return self.nonconverged + self.empty_support + self.round2_failed

    def outputs(self) -> dict:
        # l2 sums run over records with an estimate; both means share that count.
        return {
            "f_mean": self.f_sum / self.records,
            "l2_ratio": self.l2_sum / self.l2_oracle_sum,
            "bits_r1_per_machine": self.bits_r1_sum / self.records,
        }


def reference_path(reference_dir: Path, workload: str, seed: int) -> Path:
    return Path(reference_dir) / f"{workload}-seed{seed}.json"


def load_reference(path: Path) -> list[dict] | None:
    if not path.exists():
        return None
    return json.loads(path.read_text())["designs"]


def write_reference(path: Path, workload: str, seed: int, designs: list[dict]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    body = {"workload": workload, "seed": seed, "kkt_tol": KKT_TOL, "designs": designs}
    path.write_text(json.dumps(body, indent=1) + "\n")


def problems(designs: list[dict], reference: list[dict] | None) -> list[str]:
    """Every way the designs of a run fail the gate; empty when correct."""
    out = []
    for i, got in enumerate(designs):
        for kind in ("kkt_nodewise", "kkt_replication"):
            if not got[kind] <= KKT_TOL:
                out.append(f"design {i}: {kind} {got[kind]:.3g} exceeds KKT_TOL {KKT_TOL:g}")
        if got["round_trip_mismatches"]:
            out.append(f"design {i}: {got['round_trip_mismatches']} messages changed on the wire")
        if not got["repeatable"]:
            out.append(f"design {i}: a repeated sweep selected other supports")
        if reference is None:
            continue
        if i >= len(reference):
            out.append(f"design {i}: missing from the reference")
            continue
        want = reference[i]
        if got["digest"] != want["digest"]:
            out.append(f"design {i}: S_hat digest {got['digest'][:12]} != {want['digest'][:12]}")
        for key in FLOAT_KEYS:
            if abs(got[key] - want[key]) > KKT_TOL * max(1.0, abs(want[key])):
                out.append(f"design {i}: {key} {got[key]!r} != reference {want[key]!r}")
    return out
