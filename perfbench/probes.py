"""Instrumentation installed from outside the package.

The pipeline looks its layers up as module attributes at call time
(``harness.fit_lasso_gram``, ``protocol.round1_top_L``, ...). ``Patches``
replaces such an attribute with a wrapper and restores it afterwards.
``Checks`` wraps the solvers and message constructors to count work and collect
the certificates the result gate needs; ``Tracer`` wraps every layer in a
span. Nothing under ``src/`` is edited.
"""

from __future__ import annotations

import dataclasses
import json
import time
from collections import Counter, defaultdict

import numpy as np

from votelasso import _kernels, debias, fusion, harness, lasso, protocol

ROUND1_MAKERS = ("round1_thresh_votes", "round1_thresh_signs", "round1_top_L", "round1_dense")
ROUND2_MAKERS = ("round2_restricted", "round2_gram")

# Span name -> (module, attribute) call sites. A span's self time is its
# duration minus that of its child spans; nodewise fits are not spans, so
# they count in debias.estimate_precision.
SPANS = {
    "datagen.sample_shards": [(harness, "sample_shards")],
    "debias.estimate_precision": [(harness, "estimate_precision")],
    "debias.sandwich_diag": [(harness, "sandwich_diag")],
    "harness.materialize": [(harness, "materialize")],
    "harness.rep_fits_self": [(harness, "_rep_fits")],
    "lasso.gram_fit": [(harness, "fit_lasso_gram")],
    "lasso.residual_fit": [(_kernels, "cd_residual")],
    "harness.oracle": [(harness, "_oracle_error")],
    "protocol.round1": [(protocol, name) for name in ROUND1_MAKERS],
    "fusion.tally": [(fusion, "tally")],
    "fusion.select": [
        (fusion, name)
        for name in ("select_topk", "select_vote_threshold", "select_majority", "avg_debiased")
    ],
    "protocol.round2_restricted": [(protocol, "round2_restricted")],
    "protocol.round2_gram": [(protocol, "round2_gram")],
    "fusion.aggregate": [(fusion, "aggregate_round2")],
    "fusion.centralized_ls": [(fusion, "centralized_ls")],
    "serialize.write": [(harness, "write_csv_rows"), (harness, "dump_jsonl")],
}


class Patches:
    """Replace module attributes with wrappers; restore them on exit."""

    def __init__(self):
        self._saved = []

    def wrap(self, owner, attr: str, wrapper) -> None:
        original = getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, wrapper(original))

    def __enter__(self) -> "Patches":
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()


def time_calls(samples: list[float]):
    """Wrapper factory appending each call's CPU time to ``samples``."""

    def wrapper(fn):
        def timed(*args, **kwargs):
            t0 = time.process_time()
            out = fn(*args, **kwargs)
            samples.append(time.process_time() - t0)
            return out

        return timed

    return wrapper


class Tracer:
    """In-memory spans: [name, start, end, parent index, replication id].

    Besides the layers in ``SPANS`` there are root spans around
    ``build_design``, ``run_sweep`` and each ``run_point_rep``; their self
    time is harness bookkeeping and is reported as ``harness.other``.
    """

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []
        self._rep: int | None = None
        self._reps = 0

    def span(self, name: str, new_rep: bool = False):
        """Wrapper factory recording one span per call."""

        def wrapper(fn):
            def traced(*args, **kwargs):
                if new_rep:
                    self._rep = self._reps
                    self._reps += 1
                parent = self._open[-1] if self._open else -1
                record = [name, time.process_time(), 0.0, parent, self._rep]
                self._open.append(len(self.spans))
                self.spans.append(record)
                try:
                    return fn(*args, **kwargs)
                finally:
                    record[2] = time.process_time()
                    self._open.pop()
                    if new_rep:
                        self._rep = None

            return traced

        return wrapper

    def install(self, patches: Patches) -> None:
        for name, sites in SPANS.items():
            for owner, attr in sites:
                patches.wrap(owner, attr, self.span(name))
        patches.wrap(harness, "run_point_rep", self.span("harness.run_point_rep", new_rep=True))

    def self_times(self) -> dict[str, tuple[float, int]]:
        """Per span name: (total self time in seconds, call count)."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(lambda: (0.0, 0))
        for i, (name, start, end, _, _) in enumerate(self.spans):
            busy, calls = out[name]
            out[name] = (busy + (end - start) - child[i], calls + 1)
        return dict(out)

    def dump(self, path) -> None:
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            for name, start, end, parent, rep in self.spans:
                row = {"name": name, "start": start - t0, "end": end - t0, "parent": parent, "rep": rep}
                fh.write(json.dumps(row) + "\n")


def same_message(a: protocol.Message, b: protocol.Message) -> bool:
    if a.machine_id != b.machine_id or type(a.payload) is not type(b.payload):
        return False
    return all(
        np.array_equal(getattr(a.payload, f.name), getattr(b.payload, f.name))
        for f in dataclasses.fields(a.payload)
    )


class Checks:
    """Solver work, KKT certificates and wire round trips seen at layer calls.

    Every round-1 and round-2 message goes through ``encode_message`` and
    ``decode_message``. With ``defer_messages`` the messages are kept and
    round-tripped by ``flush_messages``, outside any timed span.
    """

    def __init__(self, defer_messages: bool = False):
        self.counts = Counter()
        self.max_kkt = {"nodewise": 0.0, "replication": 0.0}
        self.wire_bytes = {1: 0, 2: 0}
        self.encode_s = 0.0
        self.decode_s = 0.0
        self._pending = [] if defer_messages else None

    def install_nodewise(self, patches: Patches) -> None:
        patches.wrap(debias, "fit_lasso_gram", self._nodewise_fit)

    def install_replication(self, patches: Patches) -> None:
        patches.wrap(harness, "fit_lasso_gram", self._gram_fit)
        patches.wrap(_kernels, "cd_residual", self._residual_fit)
        for name in ROUND1_MAKERS:
            patches.wrap(protocol, name, self._message(1))
        for name in ROUND2_MAKERS:
            patches.wrap(protocol, name, self._message(2))

    def _nodewise_fit(self, fn):
        def counted(*args, **kwargs):
            out = fn(*args, **kwargs)
            _, _, sweeps, kkt, _ = out
            self.counts["nodewise_sweeps"] += sweeps
            self.max_kkt["nodewise"] = max(self.max_kkt["nodewise"], kkt)
            return out

        return counted

    def _gram_fit(self, fn):
        def counted(*args, **kwargs):
            out = fn(*args, **kwargs)
            _, _, sweeps, kkt, converged = out
            self.counts["gram_sweeps"] += sweeps
            self.counts["nonconverged"] += not converged
            self.max_kkt["replication"] = max(self.max_kkt["replication"], kkt)
            return out

        return counted

    def _residual_fit(self, fn):
        def counted(X, y, lam, w, *rest):
            out = fn(X, y, lam, w, *rest)
            sweeps, _, converged = out
            # The kernel's own residual is not trusted: recompute from scratch.
            kkt = lasso.kkt_violation(X, y, lam, w)
            self.counts["residual_sweeps"] += sweeps
            self.counts["nonconverged"] += not converged
            self.max_kkt["replication"] = max(self.max_kkt["replication"], kkt)
            return out

        return counted

    def _message(self, round_no: int):
        def wrapper(fn):
            def captured(*args, **kwargs):
                msg = fn(*args, **kwargs)
                if self._pending is None:
                    self._round_trip(round_no, msg)
                else:
                    self._pending.append((round_no, msg))
                return msg

            return captured

        return wrapper

    def _round_trip(self, round_no: int, msg: protocol.Message) -> None:
        t0 = time.process_time()
        buf = protocol.encode_message(msg)
        t1 = time.process_time()
        back = protocol.decode_message(buf)
        self.encode_s += t1 - t0
        self.decode_s += time.process_time() - t1
        self.wire_bytes[round_no] += len(buf)
        self.counts["round_trip_mismatches"] += not same_message(msg, back)

    def flush_messages(self) -> None:
        pending, self._pending = self._pending, []
        for round_no, msg in pending:
            self._round_trip(round_no, msg)
