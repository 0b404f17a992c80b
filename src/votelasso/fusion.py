"""Fusion-center logic: vote tallies, support selection rules, and the
second-round aggregation that produces the final coefficient estimate.

All folds sort messages by machine id first, so results are independent of
arrival order, and reject a second message from the same machine; the
second-round and dense folds also reject a NaN or inf in any real field.
Ties in every selection rule break toward the lower index.

Each fold checks all of its messages at once: payload types as one set of
exact types, the tally's index and sign values as one pass over their
concatenation. Only a failed check walks the machines one by one, so a
fault is always reported for the first faulty machine by id, at the first
check it fails.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from operator import attrgetter

import numpy as np

from .protocol import (
    REAL_FIELDS,
    DenseEstimate,
    GramSummary,
    IndexSet,
    Message,
    RestrictedEstimate,
    SignedIndexSet,
    select_top_k,
)


@dataclass
class VoteTally:
    """Per-index vote counts and sign sums of one set of round-one messages.

    The selections read ``votes``, except those with ``use_signs=True``,
    which read ``sign_sums``. A signed and an unsigned rule that send the
    same index arrays have the same votes, so one tally, counted from the
    signed messages, serves both (the harness shares it that way).
    """

    votes: np.ndarray  # length d, integer counts
    sign_sums: np.ndarray  # length d, integer sums of received signs
    contributing_machines: int

    @cached_property
    def votes_histogram(self) -> dict[int, int]:
        """{vote count: number of coordinates with it} over the counts that
        occur, formed on first read: a tally is not changed once read, and
        every record of a replication that reads it shares the one histogram."""
        counts = np.bincount(self.votes)
        seen = counts.nonzero()[0]
        return dict(zip(seen.tolist(), counts[seen].tolist()))


@dataclass
class SupportEstimate:
    indices: np.ndarray  # sorted
    rule: str  # topK | vote_threshold | majority | avg_topK | avg_threshold
    rule_params: dict


def _sorted_by_machine(messages: list[Message]) -> list[Message]:
    return sorted(messages, key=attrgetter("machine_id"))


def sum_rows(rows: np.ndarray) -> np.ndarray:
    """Sum of the rows of a 2-D array, added one row after another.

    ``rows.sum(axis=0)`` adds a single column pairwise, which can differ in
    the last bits from accumulating the machines' vectors in order.
    """
    return np.add.accumulate(rows, axis=0)[-1]


_NO_INDICES = np.empty(0, dtype=np.int64)
_VOTES = (IndexSet, SignedIndexSet)
_VOTE_TYPES = set(_VOTES)
_INTEGER_KINDS = {"i", "u"}
_INDEX_TYPES = {(1, kind) for kind in _INTEGER_KINDS}


def _vote_fault(msgs: list[Message], d: int) -> Exception:
    """The exception for the first message, in machine-id order, that fails
    a check of ``tally``, at the first check it fails. The checks, in order:
    a repeated sender, a payload that is not a vote, indices that are not a
    1-D integer array, signs that are not integers, indices not strictly
    increasing in [0, d), other than one sign per index, a sign not +-1."""
    for prev, msg in zip([None, *msgs], msgs):
        machine, payload = msg.machine_id, msg.payload
        if prev is not None and prev.machine_id == machine:
            return ValueError(f"duplicate sender {machine}")
        if not isinstance(payload, _VOTES):
            return TypeError("tally expects IndexSet or SignedIndexSet payloads")
        idx = np.asarray(payload.indices)
        # Integer kinds are signed and unsigned; bools are not counted.
        if idx.ndim != 1 or idx.dtype.kind not in "iu":
            return ValueError(f"machine {machine}: indices must be a 1-D integer array")
        if isinstance(payload, SignedIndexSet) and np.asarray(payload.signs).dtype.kind not in "iu":
            return ValueError(f"machine {machine}: signs must be integers")
        if idx.size and (idx.min() < 0 or idx.max() >= d or (idx[1:] <= idx[:-1]).any()):
            return ValueError(f"machine {machine}: indices must be strictly increasing in [0, {d})")
        if isinstance(payload, SignedIndexSet):
            signs = np.asarray(payload.signs)
            if signs.shape != idx.shape:
                return ValueError(f"machine {machine}: {signs.size} signs for {idx.size} indices")
            if (np.abs(signs) != 1).any():
                return ValueError(f"machine {machine}: signs must be -1 or +1")


def tally(messages: list[Message], d: int) -> VoteTally:
    """Count, per index, how many machines sent it; sum attached signs.

    Raises ValueError for a duplicate sender, or for a payload whose
    indices are not a 1-D integer array strictly increasing in [0, d) or
    whose signs are not integers +-1 one per index; TypeError for a payload
    that is not a vote. Messages are checked in machine-id order, each
    through those checks in turn, and the first fault found is raised.

    The checks run over all messages at once: the payloads' types as one
    set, the index arrays' (ndim, dtype kind) pairs as one set, then one
    range comparison, one order comparison and one sign comparison over
    the concatenated indices and signs, which also feed the counts. When
    every payload is signed the indices are concatenated once for both;
    when none is, the sign sums are zeros and no sign pass runs.
    Only when a check fails does a machine-by-machine pass (``_vote_fault``)
    find the fault to raise.
    """
    msgs = _sorted_by_machine(messages)
    payloads = [msg.payload for msg in msgs]
    kinds = set(map(type, payloads))
    if len({msg.machine_id for msg in msgs}) < len(msgs) or not (
        kinds <= _VOTE_TYPES or all(isinstance(p, _VOTES) for p in payloads)
    ):
        raise _vote_fault(msgs, d)
    idx = [np.asarray(p.indices) for p in payloads]
    if kinds <= {IndexSet}:
        signed_idx, signs = [], []
    elif kinds <= {SignedIndexSet}:
        signed_idx, signs = idx, [np.asarray(p.signs) for p in payloads]
    else:
        pairs = [(a, p.signs) for a, p in zip(idx, payloads) if isinstance(p, SignedIndexSet)]
        signed_idx, signs = [a for a, _ in pairs], [np.asarray(s) for _, s in pairs]
    # Integer kinds are signed and unsigned; bools are not counted.
    if not (
        {(a.ndim, a.dtype.kind) for a in idx} <= _INDEX_TYPES
        and {s.dtype.kind for s in signs} <= _INTEGER_KINDS
        and [s.shape for s in signs] == [a.shape for a in signed_idx]
    ):
        raise _vote_fault(msgs, d)
    flat = np.concatenate([_NO_INDICES, *idx], dtype=np.int64, casting="same_kind")
    # Shifting message i's indices by i * d makes the whole list strictly
    # increasing exactly when each message's indices are, given that they
    # all lie in [0, d); as uint64 a negative index is d or more.
    key = flat + np.repeat(np.arange(0, len(idx) * d, d), [a.size for a in idx])
    if not ((flat.view(np.uint64) < d).all() and (key[1:] > key[:-1]).all()):
        raise _vote_fault(msgs, d)
    votes = np.bincount(flat, minlength=d).astype(np.int64, copy=False)
    if not signs:
        return VoteTally(votes, np.zeros_like(votes), contributing_machines=len(messages))
    s_idx = flat
    if signed_idx is not idx:
        s_idx = np.concatenate([_NO_INDICES, *signed_idx], dtype=np.int64, casting="same_kind")
    s_val = np.concatenate([_NO_INDICES, *signs])
    if not (np.abs(s_val) == 1).all():
        raise _vote_fault(msgs, d)
    # Exact: the weights are +-1, so every sum is a small integer.
    sign_sums = np.bincount(s_idx, weights=s_val, minlength=d).astype(np.int64)
    return VoteTally(votes, sign_sums, contributing_machines=len(messages))


def select_topk(t: VoteTally, K: int, use_signs: bool = False) -> SupportEstimate:
    """The K indices with the most votes (or largest |sign sums|), by
    ``select_top_k`` on one row. ValueError unless K is an integer in [1, d]."""
    idx = select_top_k((t.sign_sums if use_signs else t.votes)[None], K)[0]
    return SupportEstimate(indices=idx, rule="topK", rule_params={"K": K, "use_signs": use_signs})


def select_vote_threshold(
    t: VoteTally, tau_votes: float, use_signs: bool = False
) -> SupportEstimate:
    """Indices with strictly more than tau_votes votes (or |sign sums|).
    ValueError for a negative or NaN ``tau_votes``."""
    if not tau_votes >= 0:
        raise ValueError("tau_votes must be nonnegative")
    scores = np.abs(t.sign_sums) if use_signs else t.votes
    idx = (scores > tau_votes).nonzero()[0]
    return SupportEstimate(
        indices=idx,
        rule="vote_threshold",
        rule_params={"tau_votes": tau_votes, "use_signs": use_signs},
    )


def select_majority(t: VoteTally, M: int) -> SupportEstimate:
    """Indices with at least M/2 votes (boundary inclusive). ValueError
    unless M is a positive integer (a bool is not one)."""
    if isinstance(M, bool) or not isinstance(M, (int, np.integer)):
        raise ValueError(f"M must be an integer, not {M!r}")
    if M < 1:
        raise ValueError("M must be positive")
    idx = (t.votes >= M / 2).nonzero()[0]
    return SupportEstimate(indices=idx, rule="majority", rule_params={"M": M})


def _receipt(
    messages: list[Message], payload_type: type, fold: str, support: np.ndarray | None = None
) -> dict[str, np.ndarray]:
    """The real fields (``protocol.REAL_FIELDS``) of a second-round or dense
    fold's payloads, each stacked over the machines in machine-id order:
    field name -> an (M, ...) array whose row m is the m-th machine's.

    Raises ValueError when there are no messages, TypeError for a payload
    that is not a ``payload_type``, ValueError for a duplicate sender, then,
    given a ``support``, for a payload on another support, then for a field
    whose shape differs between machines, and last for a NaN or inf in any
    real field, naming the first machine that sent one; the first fault
    found in that order is raised.

    The payload types are read as one set, with an ``isinstance`` pass only
    when a subclass is among them. The support check first asks whether
    every payload holds the ``support`` array itself, as the harness's
    messages do, and stacks and compares the supports only when one holds
    another array.
    """
    msgs = _sorted_by_machine(messages)
    if not msgs:
        raise ValueError("no machines")
    payloads = [msg.payload for msg in msgs]
    if not (
        set(map(type, payloads)) == {payload_type} or all(isinstance(p, payload_type) for p in payloads)
    ):
        raise TypeError(f"{fold} expects {payload_type.__name__} payloads")
    ids = [msg.machine_id for msg in msgs]
    if len(set(ids)) < len(ids):
        raise ValueError(f"duplicate sender {next(a for a, b in zip(ids, ids[1:]) if a == b)}")
    if support is not None and not (
        all(p.support is support for p in payloads)
        or (
            all(p.support.shape == support.shape for p in payloads)
            and (np.array([p.support for p in payloads]) == support).all()
        )
    ):
        raise ValueError("inconsistent round-2 support")
    fields = {}
    for name in REAL_FIELDS[payload_type]:
        try:
            fields[name] = np.array([getattr(p, name) for p in payloads])
        except ValueError:  # NumPy refuses to stack arrays of unequal shapes
            raise ValueError(f"{fold}: machines sent {name} of mismatched shapes") from None
    if not all(np.isfinite(a).all() for a in fields.values()):
        rows = [np.isfinite(a.reshape(len(ids), -1)).all(axis=1) for a in fields.values()]
        i = int(np.logical_and.reduce(rows).argmin())
        bad = next(name for name, ok in zip(fields, rows) if not ok[i])
        raise ValueError(f"machine {ids[i]}: NaN or inf in {bad}")
    return fields


def avg_debiased(
    messages: list[Message], K: int | None = None, threshold: float | None = None
) -> tuple[np.ndarray, SupportEstimate]:
    """Average dense debiased estimates and select a support from the mean.

    Exactly one of ``K`` (top-K of |mean|) or ``threshold`` (strict magnitude
    cut) selects the support. Returns the full coordinate-wise mean; the
    scheme's final estimate is that mean restricted to the support.
    ValueError for a NaN or negative ``threshold``, for estimates of
    mismatched lengths and for a NaN or inf in an estimate.
    """
    if (K is None) == (threshold is None):
        raise ValueError("pass exactly one of K or threshold")
    if threshold is not None:
        if np.isnan(threshold):
            raise ValueError("threshold must not be NaN")
        if threshold < 0:
            raise ValueError("threshold must be nonnegative")
    theta_avg = np.mean(_receipt(messages, DenseEstimate, "avg_debiased")["values"], axis=0)
    if K is not None:
        idx = select_top_k(theta_avg[None], K)[0]
        est = SupportEstimate(indices=idx, rule="avg_topK", rule_params={"K": K})
    else:
        idx = (np.abs(theta_avg) > threshold).nonzero()[0]
        est = SupportEstimate(
            indices=idx, rule="avg_threshold", rule_params={"threshold": threshold}
        )
    return theta_avg, est


def aggregate_round2(messages: list[Message], support, d: int) -> np.ndarray:
    """Average the per-machine restricted LS solutions onto the support."""
    support = np.asarray(support, dtype=np.int64)
    values = _receipt(messages, RestrictedEstimate, "aggregate_round2", support)["values"]
    theta = np.zeros(d)
    theta[support] = sum_rows(values) / len(values)
    return theta


def centralized_ls(messages: list[Message], support, d: int) -> np.ndarray:
    """Exact pooled least squares from summed Gram summaries."""
    support = np.asarray(support, dtype=np.int64)
    fields = _receipt(messages, GramSummary, "centralized_ls", support)
    gram, xty = sum_rows(fields["gram"]), sum_rows(fields["xty"])
    try:
        np.linalg.cholesky(gram)
        beta = np.linalg.solve(gram, xty)
    except np.linalg.LinAlgError as exc:
        raise ValueError("singular pooled Gram") from exc
    theta = np.zeros(d)
    theta[support] = beta
    return theta


def fusion_log_record(
    scheme: str, est: SupportEstimate, t: VoteTally | None, tau: float | None, bits_in: int
) -> dict:
    """JSON-ready summary of one fusion decision. Its votes histogram is a
    copy of the tally's, so no two records share one dict."""
    return {
        "scheme": scheme,
        "rule": est.rule,
        "tau": tau,
        "K": est.rule_params.get("K"),
        "S_hat": est.indices.tolist(),
        "votes_histogram": {} if t is None else dict(t.votes_histogram),
        "bits_in": int(bits_in),
    }
