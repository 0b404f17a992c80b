import re

import numpy as np
import pytest

from votelasso.fusion import (
    SupportEstimate,
    VoteTally,
    aggregate_round2,
    avg_debiased,
    centralized_ls,
    fusion_log_record,
    select_majority,
    select_topk,
    select_vote_threshold,
    tally,
)
from votelasso.protocol import (
    DenseEstimate,
    GramSummary,
    IndexSet,
    Message,
    RestrictedEstimate,
    SignedIndexSet,
)

from oracles import loop_tally_fault, naive_tally, normal_equations_ols, stable_top_k, tied_scores


def _idx_msg(machine, indices):
    return Message(machine, IndexSet(np.array(indices, dtype=np.int64)))


def _signed_msg(machine, pairs):
    idx = np.array([p[0] for p in pairs], dtype=np.int64)
    sgn = np.array([p[1] for p in pairs], dtype=np.int64)
    return Message(machine, SignedIndexSet(idx, sgn))


class TestTally:
    def test_basic_counting(self):
        msgs = [_idx_msg(0, [1, 2]), _idx_msg(1, [2]), _idx_msg(2, [2, 4])]
        t = tally(msgs, d=6)
        assert list(t.votes) == [0, 1, 3, 0, 1, 0]
        assert t.contributing_machines == 3

    def test_sign_cancellation(self):
        msgs = [_signed_msg(0, [(2, 1)]), _signed_msg(1, [(2, -1)])]
        t = tally(msgs, d=4)
        assert t.votes[2] == 2
        assert t.sign_sums[2] == 0

    def test_duplicate_sender_rejected(self):
        with pytest.raises(ValueError, match="duplicate sender"):
            tally([_idx_msg(0, [1]), _idx_msg(0, [2])], d=4)

    def test_order_invariance(self):
        msgs = [_idx_msg(0, [1]), _idx_msg(1, [1, 3]), _idx_msg(2, [0])]
        a = tally(msgs, d=5)
        b = tally(msgs[::-1], d=5)
        assert np.array_equal(a.votes, b.votes)
        assert np.array_equal(a.sign_sums, b.sign_sums)

    def test_matches_bruteforce_oracle(self, rng):
        for _ in range(200):
            d = int(rng.integers(2, 21))
            M = int(rng.integers(1, 11))
            payloads = []
            msgs = []
            for m in range(M):
                size = 0 if rng.random() < 0.2 else int(rng.integers(1, d + 1))
                idx = np.sort(rng.choice(d, size=size, replace=False))
                if rng.random() < 0.5:
                    signs = rng.choice([-1, 1], size=size)
                    payloads.append([(int(i), int(s)) for i, s in zip(idx, signs)])
                    msgs.append(_signed_msg(m, list(zip(idx, signs))))
                else:
                    payloads.append([int(i) for i in idx])
                    msgs.append(_idx_msg(m, idx))
            t = tally(msgs, d=d)
            votes, signs = naive_tally(payloads, d)
            assert np.array_equal(t.votes, votes)
            assert np.array_equal(t.sign_sums, signs)

    @pytest.mark.parametrize("indices", [[-1, 2], [0, 4], [2, 2], [3, 1]])
    def test_bad_indices_rejected(self, indices):
        with pytest.raises(ValueError, match="strictly increasing"):
            tally([_idx_msg(0, [1]), _idx_msg(1, indices)], d=4)

    def test_out_of_range_signed_index_rejected(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            tally([_signed_msg(0, [(1, 1), (-1, 1)])], d=4)

    @pytest.mark.parametrize("sign", [0, 2, -3])
    def test_bad_signs_rejected(self, sign):
        with pytest.raises(ValueError, match="signs must be"):
            tally([_signed_msg(0, [(0, 1), (2, sign)])], d=4)

    def test_sign_count_mismatch_rejected(self):
        msg = Message(0, SignedIndexSet(np.array([0, 2]), np.array([1])))
        with pytest.raises(ValueError, match="1 signs for 2 indices"):
            tally([msg], d=4)

    def test_unsigned_twin_is_the_tally_of_the_unsigned_messages(self, rng):
        # The tally of the same index sets without their signs, sharing the
        # signed tally's votes and histogram.
        for _ in range(50):
            d, M = int(rng.integers(2, 21)), int(rng.integers(1, 8))
            sets = [np.sort(rng.choice(d, size=int(rng.integers(0, d + 1)), replace=False)) for _ in range(M)]
            signed = tally([_signed_msg(m, [(i, int(rng.choice([-1, 1]))) for i in idx]) for m, idx in enumerate(sets)], d)
            want = tally([_idx_msg(m, idx) for m, idx in enumerate(sets)], d)
            twin = signed.unsigned()
            assert twin.votes is signed.votes and twin.contributing_machines == want.contributing_machines == M
            assert twin.sign_sums.dtype == np.int64 and not twin.sign_sums.flags.writeable
            assert np.array_equal(twin.sign_sums, want.sign_sums)
            assert twin.votes_histogram is signed.votes_histogram
            assert twin.votes_histogram == want.votes_histogram


def _faulty(kind, machine, d):
    """A message from ``machine`` that fails the named check of ``tally``."""
    if kind == "index below 0":
        return _idx_msg(machine, [-1, 2])
    if kind == "index d or more":
        return _signed_msg(machine, [(1, 1), (d, -1)])
    if kind == "not increasing":
        return _idx_msg(machine, [2, 1])
    if kind == "sign count":
        return Message(machine, SignedIndexSet(np.array([0, 2]), np.array([1])))
    if kind in OUTSIDE_INDICES:
        return Message(machine, IndexSet(np.array(OUTSIDE_INDICES[kind])))
    if kind == "float signs":
        return Message(machine, SignedIndexSet(np.array([0, 2]), np.array([1.0, -1.0])))
    return _signed_msg(machine, [(0, 1), (2, 0)])


def _fault_text(kind, machine, d):
    if kind == "sign count":
        return f"machine {machine}: 1 signs for 2 indices"
    if kind == "bad sign":
        return f"machine {machine}: signs must be -1 or +1"
    if kind in OUTSIDE_INDICES:
        return f"machine {machine}: indices must be a 1-D integer array"
    if kind == "float signs":
        return f"machine {machine}: signs must be integers"
    return f"machine {machine}: indices must be strictly increasing in [0, {d})"


# Index arrays no harness sends, from a decoder or a caller outside it.
OUTSIDE_INDICES = {"float indices": [0.5, 1.0], "2-D indices": [[0, 1]], "bool indices": [False, True]}
FAULTS = [
    "index below 0", "index d or more", "not increasing", "sign count", "bad sign",
    *OUTSIDE_INDICES, "float signs",
]


class TestTallyFaultOrder:
    """The vectorized checks raise what a machine-by-machine pass raises:
    the first faulty machine by id, at the first check it fails."""

    @pytest.mark.parametrize("kind", FAULTS)
    def test_names_the_lower_of_two_bad_machines(self, kind):
        d = 6
        msgs = [_faulty(kind, 7, d), _idx_msg(9, [0]), _faulty(kind, 4, d), _idx_msg(1, [3])]
        with pytest.raises(ValueError) as exc:
            tally(msgs, d)
        assert str(exc.value) == _fault_text(kind, 4, d)

    def test_duplicate_names_the_lower_of_two_repeated_senders(self):
        msgs = [_idx_msg(7, [1]), _idx_msg(4, [1]), _idx_msg(7, [2]), _idx_msg(4, [2]), _idx_msg(1, [0])]
        with pytest.raises(ValueError) as exc:
            tally(msgs, 4)
        assert str(exc.value) == "duplicate sender 4"

    @pytest.mark.parametrize("kind", FAULTS)
    def test_lower_machine_wins_over_an_earlier_check(self, kind):
        # Machine 2's fault is raised although machine 5's duplicate and
        # machine 3's payload type are checked before it on any one machine.
        d = 6
        msgs = [
            _idx_msg(5, [0]), _idx_msg(5, [1]),
            Message(3, DenseEstimate(np.zeros(d))),
            _faulty(kind, 2, d), _idx_msg(0, [4]),
        ]
        with pytest.raises(ValueError) as exc:
            tally(msgs, d)
        assert str(exc.value) == _fault_text(kind, 2, d)

    def test_non_vote_payload_before_a_later_fault(self):
        msgs = [_faulty("bad sign", 5, 6), Message(3, DenseEstimate(np.zeros(6))), _idx_msg(0, [1])]
        with pytest.raises(TypeError, match="tally expects IndexSet or SignedIndexSet payloads"):
            tally(msgs, 6)

    def test_first_check_of_one_machine(self):
        # Out-of-range indices and a bad sign count on one machine: the
        # index check comes first, then the count, then the sign values.
        both = Message(3, SignedIndexSet(np.array([0, 9]), np.array([1])))
        with pytest.raises(ValueError) as exc:
            tally([both], 6)
        assert str(exc.value) == "machine 3: indices must be strictly increasing in [0, 6)"
        count_and_value = Message(3, SignedIndexSet(np.array([0, 2]), np.array([5])))
        with pytest.raises(ValueError) as exc:
            tally([count_and_value], 6)
        assert str(exc.value) == "machine 3: 1 signs for 2 indices"

    def test_types_are_checked_before_values(self):
        # The index type comes before the sign type, and both before the
        # index range and the sign count.
        both = Message(3, SignedIndexSet(np.array([0.0, 9.0]), np.array([1.5])))
        with pytest.raises(ValueError) as exc:
            tally([both], 6)
        assert str(exc.value) == "machine 3: indices must be a 1-D integer array"
        signs_and_range = Message(3, SignedIndexSet(np.array([0, 9]), np.array([1.5])))
        with pytest.raises(ValueError) as exc:
            tally([signs_and_range], 6)
        assert str(exc.value) == "machine 3: signs must be integers"


class _Votes(IndexSet):
    """A vote payload's subclass, which ``tally`` counts as its base."""


class _SignedVotes(SignedIndexSet):
    """A signed vote payload's subclass, counted as its base too."""


def _random_vote(rng, machine, d, signed, subclass):
    """A well-formed vote from ``machine``: 0 to d indices of a random
    integer dtype, with int8 or int64 signs when ``signed``."""
    size = 0 if rng.random() < 0.2 else int(rng.integers(1, d + 1))
    idx = np.sort(rng.choice(d, size=size, replace=False))
    idx = idx.astype(rng.choice([np.int64, np.int32, np.uint16, np.uint64]))
    if not signed:
        return Message(machine, (_Votes if subclass else IndexSet)(idx))
    signs = rng.choice([-1, 1], size=size).astype(rng.choice([np.int64, np.int8]))
    return Message(machine, (_SignedVotes if subclass else SignedIndexSet)(idx, signs))


def _with_fault(rng, msgs, kind, machine, d):
    """``msgs`` with one fault of ``kind`` at ``machine``: its message
    replaced by a faulty or non-vote one, or a second message from it."""
    if kind == "duplicate sender":
        return [*msgs, _random_vote(rng, machine, d, signed=rng.random() < 0.5, subclass=False)]
    bad = Message(machine, DenseEstimate(np.zeros(d))) if kind == "not a vote" else _faulty(kind, machine, d)
    return [bad if msg.machine_id == machine else msg for msg in msgs]


def test_tally_raises_what_a_machine_by_machine_pass_raises():
    # Seeded message sets, all unsigned, all signed or mixed, some with
    # empty payloads or payload subclasses, with zero to two faults at
    # random machines and shuffled: tally raises the loop reference's
    # exception, or counts what the brute-force oracle counts.
    rng = np.random.default_rng(24)
    kinds = [*FAULTS, "duplicate sender", "not a vote"]
    outcomes = {}
    for _ in range(3000):
        d, M = int(rng.integers(3, 13)), int(rng.integers(1, 9))
        mode = rng.choice(["unsigned", "signed", "mixed"])
        subclass = rng.random() < 0.25
        msgs = [
            _random_vote(
                rng, m, d,
                signed=mode == "signed" or (mode == "mixed" and rng.random() < 0.5),
                subclass=subclass and rng.random() < 0.5,
            )
            for m in range(M)
        ]
        for _ in range(int(rng.integers(0, 3))):
            msgs = _with_fault(rng, msgs, rng.choice(kinds), int(rng.integers(M)), d)
        msgs = [msgs[i] for i in rng.permutation(len(msgs))]
        want = loop_tally_fault(msgs, d)
        if want is None:
            t = tally(msgs, d)
            payloads = [
                list(zip(msg.payload.indices.tolist(), msg.payload.signs.tolist()))
                if isinstance(msg.payload, SignedIndexSet) else msg.payload.indices.tolist()
                for msg in msgs
            ]
            votes, signs = naive_tally(payloads, d)
            assert np.array_equal(t.votes, votes) and np.array_equal(t.sign_sums, signs)
            assert t.votes.dtype == t.sign_sums.dtype == np.int64
        else:
            with pytest.raises(Exception) as exc:
                tally(msgs, d)
            assert type(exc.value) is type(want) and str(exc.value) == str(want)
        outcome = "accepted" if want is None else re.sub(r"\d+", "N", str(want))
        outcomes[outcome] = outcomes.get(outcome, 0) + 1
    # Every check's fault and the fault-free case each came up many times.
    assert len(outcomes) == 8 and min(outcomes.values()) >= 50, outcomes


def _tally_of(votes, signs=None):
    votes = np.array(votes, dtype=np.int64)
    signs = np.zeros_like(votes) if signs is None else np.array(signs, dtype=np.int64)
    return VoteTally(votes=votes, sign_sums=signs, contributing_machines=int(votes.max(initial=0)))


class TestSelection:
    def test_topk_tie_to_lower_index(self):
        est = select_topk(_tally_of([5, 5, 2]), K=2)
        assert list(est.indices) == [0, 1]

    def test_topk_all_zero_degenerate(self):
        est = select_topk(_tally_of([0, 0, 0]), K=2)
        assert list(est.indices) == [0, 1]

    def test_topk_single(self):
        est = select_topk(_tally_of([0, 1, 3, 0, 1, 0]), K=1)
        assert list(est.indices) == [2]

    def test_topk_signed(self):
        est = select_topk(_tally_of([3, 3, 3], signs=[-3, 1, 2]), K=1, use_signs=True)
        assert list(est.indices) == [0]

    def test_topk_invariant_to_monotone_transform(self, rng):
        votes = rng.integers(0, 20, size=15)
        a = select_topk(_tally_of(votes), K=4).indices
        b = select_topk(_tally_of(3 * votes + 1), K=4).indices
        assert np.array_equal(a, b)

    def test_topk_equals_stable_argsort_rule(self):
        # Vote counts and sign sums with many ties, k = 1 and k = d included.
        rng = np.random.default_rng(16)
        for i in range(10_000):
            d = int(rng.integers(1, 13))
            votes = rng.integers(0, 4, d)
            signs = rng.integers(-3, 4, d)
            K = 1 if i % 4 == 0 else d if i % 4 == 1 else int(rng.integers(1, d + 1))
            t = _tally_of(votes, signs)
            assert np.array_equal(select_topk(t, K).indices, stable_top_k(votes, K))
            assert np.array_equal(select_topk(t, K, use_signs=True).indices, stable_top_k(signs, K))

    @pytest.mark.parametrize("K", [0, 4, 1.5, 2.0, True])
    def test_topk_bad_K_rejected(self, K):
        with pytest.raises(ValueError):
            select_topk(_tally_of([1, 2, 3]), K)

    @pytest.mark.parametrize("tau", [np.nan, -1.0])
    def test_vote_threshold_nan_or_negative_rejected(self, tau):
        with pytest.raises(ValueError, match="tau_votes must be nonnegative"):
            select_vote_threshold(_tally_of([1, 2, 3]), tau)

    def test_vote_threshold_strict(self):
        est = select_vote_threshold(_tally_of([17, 18]), tau_votes=17.03)
        assert list(est.indices) == [1]
        est2 = select_vote_threshold(_tally_of([17, 18]), tau_votes=17.0)
        assert list(est2.indices) == [1]  # strictly greater than 17 required

    def test_vote_threshold_default_scale(self):
        # 2 ln 5000 = 17.03...: 18 votes pass, 17 do not
        tau = 2 * np.log(5000)
        assert tau == pytest.approx(17.034, abs=1e-3)

    def test_vote_threshold_empty_is_legal(self):
        est = select_vote_threshold(_tally_of([1, 2, 0]), tau_votes=5.0)
        assert est.indices.size == 0

    def test_majority_rule(self):
        assert list(select_majority(_tally_of([60, 40]), M=100).indices) == [0]

    def test_majority_boundary_inclusive(self):
        assert list(select_majority(_tally_of([50]), M=100).indices) == [0]

    def test_majority_empty(self):
        assert select_majority(_tally_of([10, 20]), M=100).indices.size == 0

    @pytest.mark.parametrize("M", [True, np.True_, 2.5, 2.0, np.float64(4.0)])
    def test_majority_M_must_be_an_integer(self, M):
        # Before, True counted as one machine and 2.5 as a half machine.
        with pytest.raises(ValueError, match="M must be an integer"):
            select_majority(_tally_of([1, 2, 3]), M)

    def test_majority_numpy_integer_M_accepted(self):
        assert list(select_majority(_tally_of([60, 40]), M=np.int64(100)).indices) == [0]

    def test_majority_never_more_permissive_than_threshold(self, rng):
        for _ in range(50):
            M = int(rng.integers(2, 30))
            votes = rng.integers(0, M + 1, size=12)
            maj = set(select_majority(_tally_of(votes), M).indices)
            thr = set(select_vote_threshold(_tally_of(votes), M / 2 - 1).indices)
            assert maj <= thr


class TestAvgDebiased:
    def test_coordinate_mean_and_topk(self):
        msgs = [
            Message(0, DenseEstimate(np.array([1.0, 0.0]))),
            Message(1, DenseEstimate(np.array([3.0, 0.0]))),
        ]
        theta_avg, est = avg_debiased(msgs, K=1)
        assert np.allclose(theta_avg, [2.0, 0.0])
        assert list(est.indices) == [0]
        assert est.rule == "avg_topK"

    def test_threshold_rule_value(self):
        # 11 ln(5000)/250 = 0.3748
        thr = 11 * np.log(5000) / 250
        assert thr == pytest.approx(0.3748, abs=1e-4)
        msgs = [Message(0, DenseEstimate(np.array([0.5, 0.3, -0.4])))]
        _, est = avg_debiased(msgs, threshold=thr)
        assert list(est.indices) == [0, 2]
        assert est.rule == "avg_threshold"

    def test_single_machine_passthrough(self, rng):
        v = rng.standard_normal(6)
        theta_avg, _ = avg_debiased([Message(0, DenseEstimate(v))], K=2)
        assert np.array_equal(theta_avg, v)

    def test_length_mismatch_rejected(self):
        msgs = [
            Message(0, DenseEstimate(np.zeros(3))),
            Message(1, DenseEstimate(np.zeros(4))),
        ]
        with pytest.raises(ValueError, match="mismatched"):
            avg_debiased(msgs, K=1)

    def test_topk_equals_stable_argsort_rule(self):
        # Two machines whose mean has ties and signed zeros; the receipt
        # rejects non-finite estimates, so the scores here are finite.
        rng = np.random.default_rng(17)
        for s, K in tied_scores(rng, 10_000):
            s = np.where(np.isfinite(s), s, 3.0)
            msgs = [Message(0, DenseEstimate(s)), Message(1, DenseEstimate(-s[::-1]))]
            theta_avg, est = avg_debiased(msgs, K=K)
            assert np.array_equal(est.indices, stable_top_k(theta_avg, K)), (s, K)

    def test_nan_threshold_rejected(self):
        msgs = [Message(0, DenseEstimate(np.array([0.5, 0.3, -0.4])))]
        with pytest.raises(ValueError, match="threshold must not be NaN"):
            avg_debiased(msgs, threshold=np.nan)

    @pytest.mark.parametrize("threshold", [-1.0, -1e-300, -np.inf])
    def test_negative_threshold_rejected(self, threshold):
        # Before, -1.0 selected all d coordinates.
        msgs = [Message(0, DenseEstimate(np.array([0.5, 0.3, -0.4])))]
        with pytest.raises(ValueError, match="threshold must be nonnegative"):
            avg_debiased(msgs, threshold=threshold)

    def test_zero_threshold_accepted(self):
        msgs = [Message(0, DenseEstimate(np.array([0.5, 0.0, -0.4])))]
        for zero in (0.0, -0.0):
            assert list(avg_debiased(msgs, threshold=zero)[1].indices) == [0, 2]

    def test_exactly_one_rule(self):
        msgs = [Message(0, DenseEstimate(np.zeros(3)))]
        with pytest.raises(ValueError):
            avg_debiased(msgs)
        with pytest.raises(ValueError):
            avg_debiased(msgs, K=1, threshold=0.5)


class TestAggregateRound2:
    def test_averaging(self):
        support = np.array([2, 7])
        msgs = [
            Message(0, RestrictedEstimate(support, np.array([1.0, 3.0]))),
            Message(1, RestrictedEstimate(support, np.array([3.0, 5.0]))),
        ]
        theta = aggregate_round2(msgs, support, d=10)
        assert theta[2] == 2.0 and theta[7] == 4.0
        assert np.count_nonzero(theta) == 2

    def test_single_machine_identity(self, rng):
        support = np.array([1, 3])
        beta = rng.standard_normal(2)
        theta = aggregate_round2([Message(0, RestrictedEstimate(support, beta))], support, 5)
        assert np.array_equal(theta[support], beta)

    def test_support_mismatch_rejected(self):
        msgs = [
            Message(0, RestrictedEstimate(np.array([1, 2]), np.zeros(2))),
            Message(1, RestrictedEstimate(np.array([1, 3]), np.zeros(2))),
        ]
        with pytest.raises(ValueError, match="inconsistent round-2 support"):
            aggregate_round2(msgs, np.array([1, 2]), d=5)

    def test_noiseless_recovery(self, rng):
        d = 8
        theta_star = np.zeros(d)
        support = np.array([0, 5])
        theta_star[support] = [1.2, -0.7]
        msgs = []
        for m in range(3):
            X = rng.standard_normal((20, d))
            y = X @ theta_star
            beta = normal_equations_ols(X[:, support], y)
            msgs.append(Message(m, RestrictedEstimate(support, beta)))
        theta = aggregate_round2(msgs, support, d)
        assert np.abs(theta - theta_star).max() <= 1e-9


class TestCentralizedLs:
    def test_singular_gram_rejected(self):
        support = np.array([0, 1])
        G = np.ones((2, 2))  # rank one
        msgs = [Message(0, GramSummary(support, G, np.ones(2)))]
        with pytest.raises(ValueError, match="singular pooled Gram"):
            centralized_ls(msgs, support, 4)

    def test_oracle_beats_single_machines_usually(self, rng):
        # Pooling n*M samples needs enough support coordinates for the best
        # single machine's error to concentrate above the pooled error.
        d, support = 10, np.array([1, 3, 4, 7, 9])
        theta_star = np.zeros(d)
        theta_star[support] = [1.0, -1.0, 0.5, 2.0, -0.3]
        wins = 0
        reps = 200
        for _ in range(reps):
            shard_msgs, single_errs = [], []
            for m in range(8):
                X = rng.standard_normal((30, d))
                y = X @ theta_star + rng.standard_normal(30)
                Xs = X[:, support]
                shard_msgs.append(Message(m, GramSummary(support, Xs.T @ Xs, Xs.T @ y)))
                beta = normal_equations_ols(Xs, y)
                single_errs.append(np.linalg.norm(beta - theta_star[support]))
            pooled = centralized_ls(shard_msgs, support, d)
            err = np.linalg.norm(pooled[support] - theta_star[support])
            if err < min(single_errs):
                wins += 1
        assert wins >= 0.9 * reps


_RECEIPT_SUPPORT = np.array([1, 3])


def _fold_message(fold, machine):
    """A well-formed message from ``machine`` for one second-round or dense fold."""
    if fold == "avg_debiased":
        return Message(machine, DenseEstimate(np.full(4, float(machine))))
    if fold == "aggregate_round2":
        return Message(machine, RestrictedEstimate(_RECEIPT_SUPPORT, np.full(2, float(machine))))
    return Message(machine, GramSummary(_RECEIPT_SUPPORT, np.eye(2), np.full(2, float(machine))))


def _fold(fold, messages):
    """The fold's coefficient vector (for ``avg_debiased``, the mean)."""
    if fold == "avg_debiased":
        return avg_debiased(messages, K=1)[0]
    if fold == "aggregate_round2":
        return aggregate_round2(messages, _RECEIPT_SUPPORT, 4)
    return centralized_ls(messages, _RECEIPT_SUPPORT, 4)


FOLDS = ["avg_debiased", "aggregate_round2", "centralized_ls"]


@pytest.mark.parametrize("fold", FOLDS)
class TestFoldReceipt:
    """The checks the three non-vote folds share: no machines, then the
    payload type, then a duplicate sender, each in machine-id order."""

    def test_duplicate_sender_rejected(self, fold):
        msgs = [_fold_message(fold, 2), _fold_message(fold, 0), _fold_message(fold, 0)]
        with pytest.raises(ValueError) as exc:
            _fold(fold, msgs)
        assert str(exc.value) == "duplicate sender 0"

    def test_duplicate_names_the_lower_repeated_sender(self, fold):
        msgs = [_fold_message(fold, m) for m in (5, 3, 5, 3, 1)]
        with pytest.raises(ValueError) as exc:
            _fold(fold, msgs)
        assert str(exc.value) == "duplicate sender 3"

    def test_no_machines_rejected(self, fold):
        with pytest.raises(ValueError, match="^no machines$"):
            _fold(fold, [])

    def test_payload_type_is_checked_before_duplicates(self, fold):
        msgs = [_fold_message(fold, 0), _fold_message(fold, 0), _idx_msg(4, [1])]
        with pytest.raises(TypeError, match=f"^{fold} expects"):
            _fold(fold, msgs)

    def test_fields_of_mismatched_shapes_rejected(self, fold):
        msgs = [_fold_message(fold, 0), _fold_message(fold, 1)]
        name = "gram" if fold == "centralized_ls" else "values"
        setattr(msgs[1].payload, name, getattr(msgs[1].payload, name)[:1])
        with pytest.raises(ValueError, match=f"^{fold}: machines sent {name} of mismatched shapes$"):
            _fold(fold, msgs)

    def test_distinct_senders_in_any_order_accepted(self, fold):
        msgs = [_fold_message(fold, m) for m in (2, 0, 1)]
        assert np.array_equal(_fold(fold, msgs), _fold(fold, msgs[::-1]))


_REAL_FIELDS = [
    ("avg_debiased", "values"),
    ("aggregate_round2", "values"),
    ("centralized_ls", "gram"),
    ("centralized_ls", "xty"),
]


@pytest.mark.parametrize("fold, name", _REAL_FIELDS)
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_field_rejected_naming_the_machine(fold, name, bad):
    # Before, avg_debiased ranked a NaN coordinate last and the round-two
    # folds averaged it into the estimate.
    msgs = [_fold_message(fold, m) for m in (4, 0, 2)]
    for msg in (msgs[0], msgs[2]):
        getattr(msg.payload, name).flat[-1] = bad
    with pytest.raises(ValueError, match=f"^machine 2: NaN or inf in {name}$"):
        _fold(fold, msgs)


@pytest.mark.parametrize("fold, name", _REAL_FIELDS)
def test_non_finite_field_checked_after_duplicates_and_support(fold, name):
    bad = _fold_message(fold, 0)
    getattr(bad.payload, name).flat[0] = np.nan
    with pytest.raises(ValueError, match="duplicate sender 1"):
        _fold(fold, [bad, _fold_message(fold, 1), _fold_message(fold, 1)])
    if fold != "avg_debiased":
        other = _fold_message(fold, 1)
        other.payload.support = np.array([1, 2])
        with pytest.raises(ValueError, match="inconsistent round-2 support"):
            _fold(fold, [bad, other])


@pytest.mark.parametrize("fold", ["aggregate_round2", "centralized_ls"])
def test_other_support_rejected_after_duplicates(fold):
    other = _fold_message(fold, 1)
    other.payload.support = np.array([1, 2])
    with pytest.raises(ValueError, match="inconsistent round-2 support"):
        _fold(fold, [_fold_message(fold, 0), other])
    with pytest.raises(ValueError, match="duplicate sender 0"):
        _fold(fold, [_fold_message(fold, 0), _fold_message(fold, 0), other])


@pytest.mark.parametrize("fold", FOLDS)
def test_payload_subclass_accepted(fold):
    msgs = [_fold_message(fold, m) for m in range(3)]
    base = type(msgs[1].payload)
    msgs[1].payload = type("Sub", (base,), {})(**vars(msgs[1].payload))
    assert np.array_equal(_fold(fold, msgs), _fold(fold, [_fold_message(fold, m) for m in range(3)]))


@pytest.mark.parametrize("fold", ["aggregate_round2", "centralized_ls"])
class TestReceiptSupport:
    """The fold's support against each payload's: the harness's messages
    share the fold's array, other callers may send equal copies."""

    def test_shared_support_accepted(self, fold):
        msgs = [_fold_message(fold, m) for m in range(3)]
        assert all(msg.payload.support is _RECEIPT_SUPPORT for msg in msgs)
        assert np.array_equal(_fold(fold, msgs), [0.0, 1.0, 0.0, 1.0])

    def test_equal_valued_copies_accepted(self, fold):
        shared = [_fold_message(fold, m) for m in range(3)]
        copies = [_fold_message(fold, m) for m in range(3)]
        for msg in copies[1:]:
            msg.payload.support = _RECEIPT_SUPPORT.copy()
        assert np.array_equal(_fold(fold, copies), _fold(fold, shared))

    @pytest.mark.parametrize("other", [[1, 2], [3, 1], [1, 3, 4], [1]])
    def test_one_other_support_among_shared_ones_rejected(self, fold, other):
        msgs = [_fold_message(fold, m) for m in range(4)]
        msgs[2].payload.support = np.array(other)
        with pytest.raises(ValueError, match="^inconsistent round-2 support$"):
            _fold(fold, msgs)


def test_fusion_log_record_shape():
    t = _tally_of([0, 2, 2])
    est = select_topk(t, K=1)
    rec = fusion_log_record("thresh_votes", est, t, tau=3.7, bits_in=42)
    assert rec["scheme"] == "thresh_votes"
    assert rec["S_hat"] == [1]
    assert rec["votes_histogram"] == {0: 1, 2: 2}
    assert rec["bits_in"] == 42
