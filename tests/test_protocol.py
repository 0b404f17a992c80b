import math

import numpy as np
import pytest

from votelasso.datagen import DataShard
from votelasso.debias import LocalFit
from votelasso.protocol import (
    DenseEstimate,
    GramSummary,
    IndexSet,
    Message,
    RestrictedEstimate,
    SignedIndexSet,
    bit_cost,
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
    snr_tau,
)
from votelasso.fusion import centralized_ls
from votelasso.lasso import restricted_ols


def _fit(xi):
    xi = np.asarray(xi, dtype=np.float64)
    d = xi.size
    return LocalFit(
        machine_id=3,
        theta_tilde=np.zeros(d),
        theta_hat=xi.copy(),
        sigma_hat_sq_diag=np.ones(d),
        xi_hat=xi,
    )


class TestThresholds:
    def test_default_tau_frozen(self):
        assert default_tau(5000) == pytest.approx(4.12728, abs=1e-4)

    def test_snr_tau(self):
        assert snr_tau(5000, 0.5) == pytest.approx(default_tau(5000) / math.sqrt(2))

    def test_thresh_votes_filter(self):
        msg = round1_thresh_votes(_fit([3.0, -4.0, 1.0]), tau=2.0)
        assert list(msg.payload.indices) == [0, 1]

    def test_strict_inequality(self):
        msg = round1_thresh_votes(_fit([2.0, -2.0, 2.0000001]), tau=2.0)
        assert list(msg.payload.indices) == [2]

    def test_empty_payload_is_legal(self):
        msg = round1_thresh_votes(_fit([0.5, -0.5]), tau=2.0)
        assert msg.payload.indices.size == 0

    def test_thresh_signs(self):
        msg = round1_thresh_signs(_fit([3.0, -4.0, 1.0]), tau=2.0)
        assert list(msg.payload.indices) == [0, 1]
        assert list(msg.payload.signs) == [1, -1]

    def test_raising_tau_never_adds_indices(self, rng):
        xi = rng.standard_normal(40) * 3
        fit = _fit(xi)
        prev = set(round1_thresh_votes(fit, 0.5).payload.indices)
        for tau in (1.0, 2.0, 3.0, 4.0):
            cur = set(round1_thresh_votes(fit, tau).payload.indices)
            assert cur <= prev
            prev = cur


class TestTopL:
    def test_tie_breaks_to_lower_index(self):
        msg = round1_top_L(_fit([0.1, -5.0, 2.0, 2.0]), L=2)
        assert list(msg.payload.indices) == [1, 2]

    def test_l_equals_d_sends_everything(self):
        msg = round1_top_L(_fit([0.3, -0.1, 2.0]), L=3)
        assert list(msg.payload.indices) == [0, 1, 2]

    def test_signed_variant(self):
        msg = round1_top_L(_fit([-5.0, 3.0]), L=2, signed=True)
        assert list(msg.payload.indices) == [0, 1]
        assert list(msg.payload.signs) == [-1, 1]

    def test_always_exactly_L(self, rng):
        fit = _fit(rng.standard_normal(25))
        for L in (1, 5, 25):
            assert round1_top_L(fit, L).payload.indices.size == L

    def test_bounds_checked(self):
        with pytest.raises(ValueError):
            round1_top_L(_fit([1.0, 2.0]), L=3)


class TestRound2:
    def test_true_support_noiseless_exact(self, rng):
        X = rng.standard_normal((30, 8))
        theta = np.zeros(8)
        theta[[1, 4]] = [1.0, -2.0]
        shard = DataShard(machine_id=0, X=X, y=X @ theta)
        msg = round2_restricted(shard, [1, 4])
        assert np.abs(msg.payload.values - [1.0, -2.0]).max() <= 1e-9

    def test_single_index_closed_form(self, rng):
        X = rng.standard_normal((20, 3))
        y = rng.standard_normal(20)
        msg = round2_restricted(DataShard(0, X, y), [2])
        x = X[:, 2]
        assert msg.payload.values[0] == pytest.approx((x @ y) / (x @ x))

    def test_support_larger_than_n_rejected(self, rng):
        X = rng.standard_normal((3, 8))
        shard = DataShard(0, X, rng.standard_normal(3))
        with pytest.raises(ValueError):
            round2_restricted(shard, [0, 1, 2, 3])

    def test_gram_single_machine_matches_normal_equations(self, rng):
        X = rng.standard_normal((25, 6))
        y = rng.standard_normal(25)
        shard = DataShard(0, X, y)
        support = np.array([0, 3, 5])
        theta = centralized_ls([round2_gram(shard, support)], support, 6)
        beta = restricted_ols(X[:, support], y)
        assert np.abs(theta[support] - beta).max() <= 1e-8

    def test_gram_additivity(self, rng):
        X = rng.standard_normal((15, 4))
        y = rng.standard_normal(15)
        a = round2_gram(DataShard(0, X, y), [0, 2])
        b = round2_gram(DataShard(1, X, y), [0, 2])
        assert np.allclose(a.payload.gram + b.payload.gram, 2 * a.payload.gram)

    def test_fused_grams_match_pooled_ols(self, rng):
        support = np.array([1, 3])
        shards = [
            DataShard(m, rng.standard_normal((20, 5)), rng.standard_normal(20)) for m in range(3)
        ]
        msgs = [round2_gram(s, support) for s in shards]
        theta = centralized_ls(msgs, support, 5)
        X_all = np.vstack([s.X for s in shards])
        y_all = np.concatenate([s.y for s in shards])
        beta = restricted_ols(X_all[:, support], y_all)
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
