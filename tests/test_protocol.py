import math
import warnings

import numpy as np
import pytest

from votelasso.protocol import (
    DenseEstimate,
    GramSummary,
    IndexSet,
    Message,
    RestrictedEstimate,
    SignedIndexSet,
    bit_cost,
    bit_costs,
    decode_message,
    default_tau,
    encode_message,
    index_bits,
    round1_dense,
    round1_thresh_signs,
    round1_thresh_votes,
    round1_top_L,
    round2_gram,
    round2_restricted,
    select_threshold,
    select_top_k,
    selected_signs,
    snr_tau,
    top_k_indices,
)
from votelasso.fusion import centralized_ls
from votelasso.lasso import restricted_gram_inverse, restricted_xty

from oracles import normal_equations_ols, stable_top_k, tied_scores


def _xi(values):
    return np.asarray(values, dtype=np.float64)


def _thresh_message(maker, m, xi, tau):
    """The threshold message machine m sends: its row of ``select_threshold``
    over a one-row stack, wrapped by ``maker``."""
    (indices,), (signs,) = select_threshold(np.asarray(xi)[None], tau)
    return maker(m, indices) if maker is round1_thresh_votes else maker(m, indices, signs)


def _top_L_message(m, xi, L, signed=False):
    """The top-L message machine m sends: its row m of ``select_top_k`` over
    a stack whose rows before m are zeros, with its ``selected_signs`` row
    when signed."""
    stack = np.zeros((m + 1, np.size(xi)))
    stack[m] = xi
    indices = select_top_k(stack, L)
    signs = selected_signs(stack, indices)[m] if signed else None
    return round1_top_L(m, indices[m], signs)


def _restricted_message(m, X, y, support):
    """The average rule's round-two message: the machine's own least squares."""
    X_S = X[:, support]
    return round2_restricted(m, support, restricted_gram_inverse(X_S) @ restricted_xty(X_S, y))


def _gram_message(m, X, y, support):
    """The gram_exact rule's round-two message: the machine's own X_S'X_S and X_S'y."""
    X_S = X[:, support]
    return round2_gram(m, support, X_S.T @ X_S, restricted_xty(X_S, y))


class TestThresholds:
    def test_default_tau_frozen(self):
        assert default_tau(5000) == pytest.approx(4.12728, abs=1e-4)

    def test_snr_tau(self):
        assert snr_tau(5000, 0.5) == pytest.approx(default_tau(5000) / math.sqrt(2))

    def test_thresh_votes_filter(self):
        msg = _thresh_message(round1_thresh_votes, 3, [3.0, -4.0, 1.0], 2.0)
        assert list(msg.payload.indices) == [0, 1]

    def test_strict_inequality(self):
        msg = _thresh_message(round1_thresh_votes, 3, [2.0, -2.0, 2.0000001], 2.0)
        assert list(msg.payload.indices) == [2]

    def test_empty_payload_is_legal(self):
        msg = _thresh_message(round1_thresh_votes, 3, [0.5, -0.5], 2.0)
        assert msg.payload.indices.size == 0

    def test_thresh_signs(self):
        msg = _thresh_message(round1_thresh_signs, 3, [3.0, -4.0, 1.0], 2.0)
        assert list(msg.payload.indices) == [0, 1]
        assert list(msg.payload.signs) == [1, -1]

    @pytest.mark.parametrize("maker", [round1_thresh_votes, round1_thresh_signs])
    @pytest.mark.parametrize("tau", [float("nan"), float("inf"), 0.0, -1.0])
    def test_tau_must_be_finite_and_positive(self, maker, tau):
        with pytest.raises(ValueError, match="tau must be finite and positive"):
            _thresh_message(maker, 0, [5.0, -3.0], tau)

    def test_raising_tau_never_adds_indices(self, rng):
        xi = rng.standard_normal(40) * 3
        prev = set(_thresh_message(round1_thresh_votes, 3, xi, 0.5).payload.indices)
        for tau in (1.0, 2.0, 3.0, 4.0):
            cur = set(_thresh_message(round1_thresh_votes, 3, xi, tau).payload.indices)
            assert cur <= prev
            prev = cur


class TestTopL:
    def test_tie_breaks_to_lower_index(self):
        msg = _top_L_message(3, _xi([0.1, -5.0, 2.0, 2.0]), L=2)
        assert list(msg.payload.indices) == [1, 2]

    def test_l_equals_d_sends_everything(self):
        msg = _top_L_message(3, _xi([0.3, -0.1, 2.0]), L=3)
        assert list(msg.payload.indices) == [0, 1, 2]

    def test_signed_variant(self):
        msg = _top_L_message(3, _xi([-5.0, 3.0]), L=2, signed=True)
        assert list(msg.payload.indices) == [0, 1]
        assert list(msg.payload.signs) == [-1, 1]

    def test_always_exactly_L(self, rng):
        xi = rng.standard_normal(25)
        for L in (1, 5, 25):
            assert _top_L_message(3, xi, L).payload.indices.size == L

    def test_bounds_checked(self):
        with pytest.raises(ValueError):
            _top_L_message(3, _xi([1.0, 2.0]), L=3)

    @pytest.mark.parametrize("L", [2.5, 3.0, True, "2"])
    def test_non_integer_L_rejected(self, L):
        with pytest.raises(ValueError, match="must be an integer"):
            _top_L_message(3, _xi([1.0, 2.0, 3.0, 4.0]), L=L)

    def test_nan_ranks_last_and_inf_first(self):
        xi = _xi([np.nan, 1.0, -np.inf, 0.0, np.nan])
        assert list(_top_L_message(0, xi, L=2).payload.indices) == [1, 2]
        assert list(_top_L_message(0, xi, L=4).payload.indices) == [0, 1, 2, 3]
        signed = _top_L_message(0, xi, L=3, signed=True).payload
        assert list(signed.signs) == [1, -1, 1]  # a zero sends +1

    def test_equals_stable_argsort_rule(self):
        # 10k seeded cases full of ties, signed zeros, infinities and NaNs,
        # with k = 1 and k = d among them; the partition path and its
        # argsort fallback both run.
        for s, k in tied_scores(np.random.default_rng(15), 10_000):
            want = stable_top_k(s, k)
            got = top_k_indices(s, k)
            assert got.dtype == np.int64 and np.array_equal(got, want), (s, k)
            assert np.array_equal(_top_L_message(1, s, k).payload.indices, want)
            if not np.isnan(s[want]).any():
                signed = _top_L_message(1, s, k, signed=True).payload
                assert np.array_equal(signed.indices, want)
                assert np.array_equal(signed.signs, np.where(s[want] < 0, -1, 1)), (s, k)

    def test_one_row_path_equals_the_stack_and_the_stable_argsort_rule(self):
        # Tied integer votes, integer sign sums and floats with NaN and
        # +-0, from d = 1 to 5000: every k below d = 40, else k = 1, d and
        # samples between; most cases tie at the k-th key.
        rng = np.random.default_rng(24)
        pool = np.array([0.0, -0.0, 1.0, -1.0, 2.5, np.nan])
        cases = 0
        for d in [*range(1, 41), 199, 200, 1000, 5000]:
            ks = range(1, d + 1) if d <= 40 else {1, d, *rng.integers(1, d + 1, 12).tolist()}
            for k in ks:
                for scores in (
                    rng.integers(0, 4, d),
                    rng.integers(-3, 4, d),
                    np.where(rng.random(d) < 0.7, rng.choice(pool, d), rng.standard_normal(d)),
                ):
                    got = top_k_indices(scores, k)
                    assert got.dtype == np.int64 and not got.flags.writeable
                    assert np.array_equal(got, stable_top_k(scores, k)), (scores, k)
                    assert np.array_equal(got, select_top_k(scores[None], k)[0]), (scores, k)
                    cases += 1
        assert cases > 2500

    def test_integer_scores(self):
        votes = np.array([3, 0, 3, 7, 1], dtype=np.int64)
        assert list(top_k_indices(votes, 2)) == [0, 3]
        assert list(top_k_indices(np.int64(-5) * votes, 3)) == [0, 2, 3]
        assert list(top_k_indices(votes, np.int64(1))) == [3]

    @pytest.mark.parametrize("k", [0, 6, 2.0, 1.5, True, np.bool_(True), None])
    def test_bad_k_rejected(self, k):
        with pytest.raises(ValueError):
            top_k_indices(np.arange(5.0), k)

    @pytest.mark.parametrize("scores", [np.float64(1.0), np.ones((2, 3))])
    def test_scores_must_be_one_dimensional(self, scores):
        with pytest.raises(ValueError, match="1-D"):
            top_k_indices(scores, 1)


class TestStackedSelection:
    """Each round-one rule runs once over a stack of machines, one row each."""

    def test_top_k_rows_equal_the_stable_argsort_rule(self):
        # The tied cases grouped into stacks of equal length and k, so
        # exact rows and fallback rows share a stack.
        stacks = {}
        for s, k in tied_scores(np.random.default_rng(16), 6000):
            stacks.setdefault((s.size, k), []).append(s)
        assert max(len(rows) for rows in stacks.values()) > 50
        for (d, k), rows in stacks.items():
            got = select_top_k(np.array(rows), k)
            assert got.shape == (len(rows), k) and got.dtype == np.int64
            assert not got.flags.writeable
            for row, idx in zip(rows, got):
                assert np.array_equal(idx, stable_top_k(row, k)), (row, k)

    def test_nan_rows_and_a_tied_row_share_a_stack(self):
        # Row 0 has fewer than k numbers, so NaNs fill in by index; row 1
        # ties at its k-th magnitude; row 2 has no tie; row 3 is all NaN.
        scores = np.array(
            [
                [np.nan, 2.0, np.nan, -1.0, np.nan],
                [1.0, -3.0, 1.0, 1.0, -1.0],
                [0.5, 4.0, -2.0, 0.1, 3.0],
                [np.nan] * 5,
            ]
        )
        got = select_top_k(scores, 3)
        assert got.tolist() == [[0, 1, 3], [0, 1, 2], [1, 2, 4], [0, 1, 2]]
        assert [stable_top_k(row, 3).tolist() for row in scores] == got.tolist()

    def test_a_tied_row_does_not_change_the_others(self):
        scores = np.array([[3.0, 1.0, 2.0, 0.5], [1.0, 1.0, 1.0, 0.0], [0.1, -4.0, 0.2, 4.0]])
        got = select_top_k(scores, 2)
        assert got.tolist() == [[0, 2], [0, 1], [1, 3]]
        assert [top_k_indices(row, 2).tolist() for row in scores] == got.tolist()

    def test_threshold_rows_equal_the_per_row_mask(self, rng):
        tau = 1.5
        xi = rng.standard_normal((9, 30)) * 2.0
        xi[0] = 0.3  # no crossing
        xi[1, :6] = [tau, -tau, np.nextafter(tau, np.inf), -np.nextafter(tau, np.inf), np.nan, -np.inf]
        xi[2] = np.where(np.arange(30) % 2, tau, -tau)  # every entry exactly at tau
        for stack in (xi, xi[1:2], xi[:1]):
            indices, signs = select_threshold(stack, tau)
            assert len(indices) == len(signs) == len(stack)
            for row, idx, sgn in zip(stack, indices, signs):
                want = np.flatnonzero(np.abs(row) > tau)
                assert idx.dtype == sgn.dtype == np.int64
                assert np.array_equal(idx, want)
                assert np.array_equal(sgn, np.sign(row[want]).astype(np.int64))
                assert not idx.flags.writeable and not sgn.flags.writeable
        indices, _ = select_threshold(xi, tau)
        assert indices[0].size == 0 and indices[2].size == 0
        assert indices[1][:3].tolist() == [2, 3, 5]

    def test_makers_match_their_row_of_the_stack(self, rng):
        # Each maker sends its machine's rows as they are, and a one-row
        # stack selects what that row selects within the whole stack.
        xi = rng.standard_normal((6, 25)) * 2.0
        indices, signs = select_threshold(xi, 1.0)
        top = select_top_k(xi, 4)
        top_signs = selected_signs(xi, top)
        for m, row in enumerate(xi):
            assert round1_thresh_votes(m, indices[m]).payload.indices is indices[m]
            sent = round1_thresh_signs(m, indices[m], signs[m])
            assert sent.machine_id == m
            assert sent.payload.indices is indices[m] and sent.payload.signs is signs[m]
            row_top, row_signs = top[m], top_signs[m]
            assert round1_top_L(m, row_top).payload.indices is row_top
            sent = round1_top_L(m, row_top, row_signs).payload
            assert sent.indices is row_top and sent.signs is row_signs
            alone = _thresh_message(round1_thresh_signs, m, row, 1.0).payload
            assert np.array_equal(alone.indices, indices[m]) and np.array_equal(alone.signs, signs[m])
            alone = _top_L_message(m, row, 4, signed=True).payload
            assert np.array_equal(alone.indices, top[m]) and np.array_equal(alone.signs, top_signs[m])

    def test_signed_top_L_refuses_a_nan(self):
        xi = np.array([np.nan, 1.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="machine 0: a NaN"):
                _top_L_message(0, xi, 2, signed=True)
            with pytest.raises(ValueError, match="machine 4: a NaN"):
                _top_L_message(4, xi, 2, signed=True)
            # Unsigned top-L still sends the NaN's index, last in rank.
            assert _top_L_message(0, xi, 2).payload.indices.tolist() == [0, 1]
            assert _top_L_message(0, xi, 1, signed=True).payload.signs.tolist() == [1]
        stack = np.array([[1.0, -2.0], [np.nan, 1.0], [np.nan, 3.0]])
        idx = select_top_k(stack, 2)
        with pytest.raises(ValueError, match="machine 1: a NaN"):
            selected_signs(stack, idx)
        assert selected_signs(stack[:1], idx[:1]).tolist() == [[1, -1]]

    @pytest.mark.parametrize("select", [lambda s: select_top_k(s, 1), lambda s: select_threshold(s, 1.0)])
    def test_stack_must_be_two_dimensional(self, select):
        with pytest.raises(ValueError, match="2-D"):
            select(np.ones(3))


class TestDense:
    def test_sends_a_copy_of_the_machines_row(self):
        theta_hat = np.arange(6.0).reshape(2, 3)
        msg = round1_dense(1, theta_hat[1])
        assert msg.machine_id == 1
        theta_hat[1] = 0.0
        assert list(msg.payload.values) == [3.0, 4.0, 5.0]


class TestRound2:
    def test_true_support_noiseless_exact(self, rng):
        X = rng.standard_normal((30, 8))
        theta = np.zeros(8)
        theta[[1, 4]] = [1.0, -2.0]
        msg = _restricted_message(0, X, X @ theta, [1, 4])
        assert np.abs(msg.payload.values - [1.0, -2.0]).max() <= 1e-9

    def test_single_index_closed_form(self, rng):
        X = rng.standard_normal((20, 3))
        y = rng.standard_normal(20)
        msg = _restricted_message(0, X, y, [2])
        x = X[:, 2]
        assert msg.payload.values[0] == pytest.approx((x @ y) / (x @ x))

    def test_support_larger_than_n_rejected(self, rng):
        X = rng.standard_normal((3, 8))
        with pytest.raises(ValueError):
            _restricted_message(0, X, rng.standard_normal(3), [0, 1, 2, 3])

    def test_gram_single_machine_matches_normal_equations(self, rng):
        X = rng.standard_normal((25, 6))
        y = rng.standard_normal(25)
        support = np.array([0, 3, 5])
        theta = centralized_ls([_gram_message(0, X, y, support)], support, 6)
        beta = normal_equations_ols(X[:, support], y)
        assert np.abs(theta[support] - beta).max() <= 1e-8

    def test_given_rows_are_sent_as_they_are(self):
        support = np.array([1, 4])
        beta, gram, xty = np.array([0.5, -1.0]), np.eye(2), np.array([2.0, 3.0])
        msg = round2_restricted(5, support, beta)
        assert msg.machine_id == 5 and msg.payload.support is support and msg.payload.values is beta
        msg = round2_gram(6, support, gram, xty)
        assert msg.machine_id == 6 and msg.payload.gram is gram and msg.payload.xty is xty
        assert round2_gram(0, [1, 4], gram, xty).payload.support.dtype == np.int64
        for send in (lambda S: round2_restricted(0, S, beta), lambda S: round2_gram(0, S, gram, xty)):
            with pytest.raises(ValueError, match="support must be nonempty"):
                send([])

    def test_stacked_rows_equal_each_machines_own(self, rng):
        X, Y = rng.standard_normal((7, 40, 9)), rng.standard_normal((7, 40))
        support = np.array([0, 2, 3, 8])
        X_S = X[:, :, support]
        inv = restricted_gram_inverse(X_S)
        xty = restricted_xty(X_S, Y)
        beta = (inv @ xty[..., None])[..., 0]
        assert xty.shape == beta.shape == (7, 4)
        for m in range(7):
            assert np.array_equal(xty[m], X_S[m].T @ Y[m])
            assert np.array_equal(beta[m], inv[m] @ (Y[m] @ X_S[m]))

    def test_gram_additivity(self, rng):
        X = rng.standard_normal((15, 4))
        y = rng.standard_normal(15)
        a = _gram_message(0, X, y, [0, 2])
        b = _gram_message(1, X, y, [0, 2])
        assert np.allclose(a.payload.gram + b.payload.gram, 2 * a.payload.gram)

    def test_fused_grams_match_pooled_ols(self, rng):
        support = np.array([1, 3])
        X, Y = rng.standard_normal((3, 20, 5)), rng.standard_normal((3, 20))
        msgs = [_gram_message(m, X[m], Y[m], support) for m in range(3)]
        theta = centralized_ls(msgs, support, 5)
        X_all = X.reshape(-1, 5)
        y_all = Y.reshape(-1)
        beta = normal_equations_ols(X_all[:, support], y_all)
        assert np.abs(theta[support] - beta).max() <= 1e-8


class TestBitCost:
    def test_index_bits_values(self):
        assert index_bits(2) == 1
        assert index_bits(1024) == 10
        assert index_bits(1025) == 11
        assert index_bits(5000) == 13

    def test_index_set_5000(self):
        msg = Message(0, IndexSet(np.arange(5)))
        assert bit_cost(msg, 5000) == 65

    def test_dense_5000(self):
        msg = Message(0, DenseEstimate(np.zeros(5000)))
        assert bit_cost(msg, 5000) == 320000

    def test_empty_set_costs_nothing(self):
        assert bit_cost(Message(0, IndexSet(np.array([], dtype=np.int64))), 5000) == 0

    def test_signed_adds_one_bit_per_index(self):
        idx = np.arange(5)
        unsigned = bit_cost(Message(0, IndexSet(idx)), 5000)
        signed = bit_cost(Message(0, SignedIndexSet(idx, np.ones(5, dtype=np.int64))), 5000)
        assert signed == unsigned + 5

    def test_bit_costs_equal_the_per_message_sum(self):
        # Every payload type, with empty index sets among the messages.
        d, sizes = 5000, [0, 1, 4, 0, 7]
        payloads = {
            IndexSet: lambda k: IndexSet(np.arange(k)),
            SignedIndexSet: lambda k: SignedIndexSet(np.arange(k), np.ones(k, dtype=np.int64)),
            DenseEstimate: lambda k: DenseEstimate(np.zeros(k)),
            RestrictedEstimate: lambda k: RestrictedEstimate(np.arange(k), np.zeros(k)),
            GramSummary: lambda k: GramSummary(np.arange(k), np.zeros((k, k)), np.zeros(k)),
        }
        for make in payloads.values():
            msgs = [Message(m, make(k)) for m, k in enumerate(sizes)]
            bits = bit_costs(msgs, d)
            assert bits == [bit_cost(msg, d) for msg in msgs]
            assert all(type(b) is int for b in bits)
            assert sum(bits) == sum(bit_cost(msg, d) for msg in msgs)
        assert bit_costs([], d) == []

    def test_bit_costs_take_one_known_payload_type(self):
        mixed = [Message(0, IndexSet(np.arange(2))), Message(1, DenseEstimate(np.zeros(3)))]
        with pytest.raises(TypeError, match="one payload type"):
            bit_costs(mixed, 10)
        with pytest.raises(TypeError, match="unknown payload type"):
            bit_costs([Message(0, np.zeros(3))], 10)

    def test_restricted_and_gram_formulas(self):
        k, d = 4, 5000
        rest = Message(0, RestrictedEstimate(np.arange(k), np.zeros(k)))
        assert bit_cost(rest, d) == k * (13 + 64)
        gram = Message(0, GramSummary(np.arange(k), np.zeros((k, k)), np.zeros(k)))
        assert bit_cost(gram, d) == k * 13 + 64 * (k * k + k)


class TestWireFormat:
    def _roundtrip(self, msg):
        out = decode_message(encode_message(msg))
        assert out.machine_id == msg.machine_id
        return out

    def test_index_set(self):
        msg = Message(7, IndexSet(np.array([1, 5, 9], dtype=np.int64)))
        out = self._roundtrip(msg)
        assert np.array_equal(out.payload.indices, msg.payload.indices)

    def test_signed_index_set(self):
        msg = Message(2, SignedIndexSet(np.arange(11), np.where(np.arange(11) % 3 == 0, 1, -1)))
        out = self._roundtrip(msg)
        assert np.array_equal(out.payload.indices, msg.payload.indices)
        assert np.array_equal(out.payload.signs, msg.payload.signs)

    def test_dense(self, rng):
        msg = Message(1, DenseEstimate(rng.standard_normal(17)))
        out = self._roundtrip(msg)
        assert np.array_equal(out.payload.values, msg.payload.values)

    def test_restricted(self, rng):
        msg = Message(4, RestrictedEstimate(np.array([3, 8]), rng.standard_normal(2)))
        out = self._roundtrip(msg)
        assert np.array_equal(out.payload.support, msg.payload.support)
        assert np.array_equal(out.payload.values, msg.payload.values)

    def test_gram(self, rng):
        G = rng.standard_normal((3, 3))
        G = G + G.T
        msg = Message(9, GramSummary(np.array([0, 2, 4]), G, rng.standard_normal(3)))
        out = self._roundtrip(msg)
        assert np.array_equal(out.payload.gram, msg.payload.gram)
        assert np.array_equal(out.payload.xty, msg.payload.xty)

    def test_header_layout(self):
        msg = Message(258, IndexSet(np.array([7], dtype=np.int64)))
        raw = encode_message(msg)
        assert raw[0] == 1  # tag
        assert int.from_bytes(raw[1:5], "little") == 258
        assert int.from_bytes(raw[5:9], "little") == 1
        assert int.from_bytes(raw[9:13], "little") == 7
        assert len(raw) == 13

    def test_short_header_rejected(self):
        raw = encode_message(Message(1, IndexSet(np.array([3]))))
        with pytest.raises(ValueError, match="header"):
            decode_message(raw[:8])

    @pytest.mark.parametrize(
        "payload",
        [
            IndexSet(np.array([1, 5])),
            SignedIndexSet(np.array([1, 5]), np.array([1, -1])),
            DenseEstimate(np.ones(3)),
            RestrictedEstimate(np.array([0, 2]), np.ones(2)),
            GramSummary(np.array([0, 2]), np.eye(2), np.ones(2)),
        ],
    )
    def test_truncated_payload_rejected(self, payload):
        raw = encode_message(Message(1, payload))
        with pytest.raises(ValueError, match="truncated"):
            decode_message(raw[:-1])

    def test_trailing_bytes_rejected(self):
        raw = encode_message(Message(1, SignedIndexSet(np.array([1, 5]), np.array([1, -1]))))
        with pytest.raises(ValueError, match="trailing"):
            decode_message(raw + b"\x00")

    def test_unknown_tag_rejected(self):
        raw = bytearray(encode_message(Message(1, IndexSet(np.array([3])))))
        raw[0] = 99
        with pytest.raises(ValueError, match="unknown wire tag"):
            decode_message(bytes(raw))


# One small message per payload type and its exact wire bytes: tag, machine
# id, count, then the fields in wire order. These pin the format, not the
# code that writes it.
GOLDEN = [
    (Message(7, IndexSet(np.array([1, 5, 300]))), "01" "07000000" "03000000" "01000000" "05000000" "2c010000"),
    (Message(0, IndexSet(np.array([], dtype=np.int64))), "01" "00000000" "00000000"),
    (
        Message(2, SignedIndexSet(np.array([0, 3, 4, 6, 8, 9, 11, 12, 20]), np.array([1, -1, -1, 1, 1, -1, 1, 1, -1]))),
        "02" "02000000" "09000000"
        "00000000" "03000000" "04000000" "06000000" "08000000" "09000000" "0b000000" "0c000000" "14000000"
        "d900",
    ),
    (
        Message(1, DenseEstimate(np.array([1.5, -2.0, 0.0]))),
        "03" "01000000" "03000000" "000000000000f83f" "00000000000000c0" "0000000000000000",
    ),
    (
        Message(258, RestrictedEstimate(np.array([3, 8]), np.array([0.25, -1.0]))),
        "04" "02010000" "02000000" "03000000" "08000000" "000000000000d03f" "000000000000f0bf",
    ),
    (
        Message(9, GramSummary(np.array([0, 2]), np.array([[2.0, 0.5], [0.5, 4.0]]), np.array([1.0, -3.0]))),
        "05" "09000000" "02000000" "00000000" "02000000"
        "0000000000000040" "000000000000e03f" "000000000000e03f" "0000000000001040"
        "000000000000f03f" "00000000000008c0",
    ),
]


@pytest.mark.parametrize("msg, hexbytes", GOLDEN, ids=[type(m.payload).__name__ for m, _ in GOLDEN])
class TestGoldenBytes:
    def test_encodes_to_the_pinned_bytes(self, msg, hexbytes):
        assert encode_message(msg).hex() == hexbytes

    def test_pinned_bytes_decode_to_the_message(self, msg, hexbytes):
        out = decode_message(bytes.fromhex(hexbytes))
        assert out.machine_id == msg.machine_id
        assert type(out.payload) is type(msg.payload)
        for name, value in vars(msg.payload).items():
            got = getattr(out.payload, name)
            assert got.dtype == value.dtype and got.shape == value.shape and np.array_equal(got, value)


class TestEncoderRejects:
    """The encoder refuses every message whose bytes would decode to
    something else, or not decode at all."""

    @pytest.mark.parametrize(
        "payload, message",
        [
            (IndexSet(np.array([-1])), "indices must hold integers in"),
            (IndexSet(np.array([0, 2**32])), "indices must hold integers in"),
            (IndexSet(np.array([1.5])), "indices must hold integers in"),
            (RestrictedEstimate(np.array([-3, 1]), np.zeros(2)), "support must hold integers in"),
            (GramSummary(np.array([2**40]), np.eye(1), np.ones(1)), "support must hold integers in"),
            (SignedIndexSet(np.array([1, 2]), np.array([0, 3])), "signs must hold -1 or \\+1"),
            (SignedIndexSet(np.array([1, 2]), np.array([1, 2])), "signs must hold -1 or \\+1"),
            (SignedIndexSet(np.array([1, 2]), np.array([1])), "signs has shape \\(1,\\), count 2"),
            (RestrictedEstimate(np.array([1, 2]), np.ones(1)), "values has shape \\(1,\\), count 2"),
            (GramSummary(np.array([1, 2]), np.eye(3), np.ones(2)), "gram has shape \\(3, 3\\), count 2"),
            (GramSummary(np.array([1, 2]), np.ones(4), np.ones(2)), "gram has shape \\(4,\\), count 2"),
            (GramSummary(np.array([1, 2]), np.eye(2), np.ones(3)), "xty has shape \\(3,\\), count 2"),
            (IndexSet(np.array([[1, 2]])), "indices has shape \\(1, 2\\)"),
        ],
        ids=[
            "negative_index", "index_2_32", "fractional_index", "negative_support", "huge_support",
            "sign_0_and_3", "sign_2", "sign_count", "restricted_values_count", "gram_side", "gram_flat",
            "xty_count", "2d_indices",
        ],
    )
    def test_payload_the_decoder_cannot_give_back(self, payload, message):
        with pytest.raises(ValueError, match=message):
            encode_message(Message(0, payload))

    @pytest.mark.parametrize("machine_id", [-1, 2**32])
    def test_machine_id_outside_uint32(self, machine_id):
        with pytest.raises(ValueError, match="outside uint32"):
            encode_message(Message(machine_id, IndexSet(np.array([1]))))

    def test_largest_index_and_machine_id_round_trip(self):
        msg = Message(2**32 - 1, IndexSet(np.array([0, 2**32 - 1])))
        out = decode_message(encode_message(msg))
        assert out.machine_id == 2**32 - 1
        assert list(out.payload.indices) == [0, 2**32 - 1]

    def test_unknown_payload_type(self):
        with pytest.raises(TypeError, match="unknown payload type"):
            encode_message(Message(0, np.zeros(3)))
        with pytest.raises(TypeError, match="unknown payload type"):
            bit_cost(Message(0, np.zeros(3)), 10)


# Body bytes of each payload type for a count c, written out from the wire
# format: uint32 indices, one bit per sign padded to a byte, float64 reals.
_BODY = {
    IndexSet: lambda c: 4 * c,
    SignedIndexSet: lambda c: 4 * c + (c + 7) // 8,
    DenseEstimate: lambda c: 8 * c,
    RestrictedEstimate: lambda c: 12 * c,
    GramSummary: lambda c: 12 * c + 8 * c * c,
}


def _random_payload(rng, kind, c):
    idx = np.sort(rng.choice(2**32, size=c, replace=False)).astype(np.int64)
    reals = rng.standard_normal(c) * 10.0 ** rng.integers(-300, 300, size=c)
    if kind is IndexSet:
        return IndexSet(idx)
    if kind is SignedIndexSet:
        return SignedIndexSet(idx, rng.choice([-1, 1], size=c))
    if kind is DenseEstimate:
        return DenseEstimate(np.where(rng.random(c) < 0.1, np.nan, reals))
    if kind is RestrictedEstimate:
        return RestrictedEstimate(idx, reals)
    return GramSummary(idx, rng.standard_normal((c, c)), reals)


def test_seeded_random_messages_round_trip():
    rng = np.random.default_rng(13)
    for _ in range(1000):
        kind = list(_BODY)[rng.integers(len(_BODY))]
        c = int(rng.integers(0, 20))
        msg = Message(int(rng.integers(0, 2**32)), _random_payload(rng, kind, c))
        raw = encode_message(msg)
        assert len(raw) == 9 + _BODY[kind](c)
        out = decode_message(raw)
        assert out.machine_id == msg.machine_id and type(out.payload) is kind
        for name, value in vars(msg.payload).items():
            got = getattr(out.payload, name)
            assert got.dtype == value.dtype and got.shape == value.shape
            assert np.array_equal(got, value, equal_nan=True)
