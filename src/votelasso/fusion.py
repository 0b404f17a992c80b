"""Fusion-center logic: vote tallies, support selection rules, and the
second-round aggregation that produces the final coefficient estimate.

All folds sort messages by machine id first, so results are independent of
arrival order. Ties in every selection rule break toward the lower index.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .protocol import DenseEstimate, GramSummary, IndexSet, Message, RestrictedEstimate, SignedIndexSet


@dataclass
class VoteTally:
    votes: np.ndarray  # length d, integer counts
    sign_sums: np.ndarray  # length d, integer sums of received signs
    contributing_machines: int


@dataclass
class SupportEstimate:
    indices: np.ndarray  # sorted
    rule: str  # topK | vote_threshold | majority | avg_topK | avg_threshold
    rule_params: dict


def _sorted_by_machine(messages: list[Message]) -> list[Message]:
    return sorted(messages, key=lambda m: m.machine_id)


def _check_votes(msg: Message, d: int) -> None:
    """Reject a round-1 vote payload that would be miscounted."""
    idx = np.asarray(msg.payload.indices)
    if idx.size and (idx[0] < 0 or idx[-1] >= d or (idx[1:] <= idx[:-1]).any()):
        raise ValueError(
            f"machine {msg.machine_id}: indices must be strictly increasing in [0, {d})"
        )
    if isinstance(msg.payload, SignedIndexSet):
        signs = np.asarray(msg.payload.signs)
        if signs.shape != idx.shape:
            raise ValueError(f"machine {msg.machine_id}: {signs.size} signs for {idx.size} indices")
        if not (np.abs(signs) == 1).all():
            raise ValueError(f"machine {msg.machine_id}: signs must be -1 or +1")


def tally(messages: list[Message], d: int) -> VoteTally:
    """Count, per index, how many machines sent it; sum attached signs.

    Raises ValueError for a payload whose indices are not strictly
    increasing in [0, d), or whose signs are not +-1 one per index.
    """
    votes = np.zeros(d, dtype=np.int64)
    sign_sums = np.zeros(d, dtype=np.int64)
    seen = set()
    for msg in _sorted_by_machine(messages):
        if msg.machine_id in seen:
            raise ValueError(f"duplicate sender {msg.machine_id}")
        seen.add(msg.machine_id)
        p = msg.payload
        if not isinstance(p, (IndexSet, SignedIndexSet)):
            raise TypeError("tally expects IndexSet or SignedIndexSet payloads")
        _check_votes(msg, d)
        votes[p.indices] += 1
        if isinstance(p, SignedIndexSet):
            sign_sums[p.indices] += p.signs
    return VoteTally(votes=votes, sign_sums=sign_sums, contributing_machines=len(messages))


def _top_k_indices(scores: np.ndarray, k: int) -> np.ndarray:
    # Stable argsort on the negated scores: ties resolve to the lower index.
    order = np.argsort(-scores, kind="stable")[:k]
    return np.sort(order)


def select_topk(t: VoteTally, K: int, use_signs: bool = False) -> SupportEstimate:
    """The K indices with the most votes (or largest |sign sums|)."""
    d = t.votes.shape[0]
    if not 1 <= K <= d:
        raise ValueError("K must lie in [1, d]")
    scores = np.abs(t.sign_sums) if use_signs else t.votes
    idx = _top_k_indices(scores.astype(np.float64), K)
    return SupportEstimate(indices=idx, rule="topK", rule_params={"K": K, "use_signs": use_signs})


def select_vote_threshold(
    t: VoteTally, tau_votes: float, use_signs: bool = False
) -> SupportEstimate:
    """Indices with strictly more than tau_votes votes (or |sign sums|)."""
    if tau_votes < 0:
        raise ValueError("tau_votes must be nonnegative")
    scores = np.abs(t.sign_sums) if use_signs else t.votes
    idx = np.flatnonzero(scores > tau_votes).astype(np.int64)
    return SupportEstimate(
        indices=idx,
        rule="vote_threshold",
        rule_params={"tau_votes": tau_votes, "use_signs": use_signs},
    )


def select_majority(t: VoteTally, M: int) -> SupportEstimate:
    """Indices with at least M/2 votes (boundary inclusive)."""
    if M < 1:
        raise ValueError("M must be positive")
    idx = np.flatnonzero(t.votes >= M / 2).astype(np.int64)
    return SupportEstimate(indices=idx, rule="majority", rule_params={"M": M})


def avg_debiased(
    messages: list[Message], K: int | None = None, threshold: float | None = None
) -> tuple[np.ndarray, SupportEstimate]:
    """Average dense debiased estimates and select a support from the mean.

    Exactly one of ``K`` (top-K of |mean|) or ``threshold`` (strict magnitude
    cut) selects the support. Returns the full coordinate-wise mean; the
    scheme's final estimate is that mean restricted to the support.
    """
    if (K is None) == (threshold is None):
        raise ValueError("pass exactly one of K or threshold")
    msgs = _sorted_by_machine(messages)
    if not msgs:
        raise ValueError("no machines")
    values = []
    for msg in msgs:
        if not isinstance(msg.payload, DenseEstimate):
            raise TypeError("avg_debiased expects DenseEstimate payloads")
        values.append(msg.payload.values)
    lengths = {v.shape[0] for v in values}
    if len(lengths) != 1:
        raise ValueError("dense estimates have mismatched lengths")
    theta_avg = np.mean(values, axis=0)
    if K is not None:
        idx = _top_k_indices(np.abs(theta_avg), K)
        est = SupportEstimate(indices=idx, rule="avg_topK", rule_params={"K": K})
    else:
        idx = np.flatnonzero(np.abs(theta_avg) > threshold).astype(np.int64)
        est = SupportEstimate(
            indices=idx, rule="avg_threshold", rule_params={"threshold": threshold}
        )
    return theta_avg, est


def aggregate_round2(messages: list[Message], support, d: int) -> np.ndarray:
    """Average the per-machine restricted LS solutions onto the support."""
    support = np.asarray(support, dtype=np.int64)
    msgs = _sorted_by_machine(messages)
    if not msgs:
        raise ValueError("no machines")
    acc = np.zeros(support.size)
    for msg in msgs:
        p = msg.payload
        if not isinstance(p, RestrictedEstimate):
            raise TypeError("aggregate_round2 expects RestrictedEstimate payloads")
        if p.support.size != support.size or not np.array_equal(p.support, support):
            raise ValueError("inconsistent round-2 support")
        acc += p.values
    theta = np.zeros(d)
    theta[support] = acc / len(msgs)
    return theta


def centralized_ls(messages: list[Message], support, d: int) -> np.ndarray:
    """Exact pooled least squares from summed Gram summaries."""
    support = np.asarray(support, dtype=np.int64)
    msgs = _sorted_by_machine(messages)
    if not msgs:
        raise ValueError("no machines")
    k = support.size
    gram = np.zeros((k, k))
    xty = np.zeros(k)
    for msg in msgs:
        p = msg.payload
        if not isinstance(p, GramSummary):
            raise TypeError("centralized_ls expects GramSummary payloads")
        if p.support.size != k or not np.array_equal(p.support, support):
            raise ValueError("inconsistent round-2 support")
        gram += p.gram
        xty += p.xty
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
    """JSON-ready summary of one fusion decision."""
    hist = {}
    if t is not None:
        counts = np.bincount(t.votes)
        hist = {int(v): int(c) for v, c in enumerate(counts) if c > 0}
    return {
        "scheme": scheme,
        "rule": est.rule,
        "tau": tau,
        "K": est.rule_params.get("K"),
        "S_hat": [int(i) for i in est.indices],
        "votes_histogram": hist,
        "bits_in": int(bits_in),
    }
