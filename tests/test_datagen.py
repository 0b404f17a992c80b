import math
import re

import numpy as np
import pytest

from votelasso.datagen import (
    TAG_DESIGN,
    TAG_NOISE,
    ProblemSpec,
    _SeedWords,
    _stream_states,
    compute_c_omega,
    fill_streams,
    make_theta_star,
    sample_noise,
    sample_responses,
    sample_shards,
    stream,
    theta_min_from_snr,
)

from oracles import loop_shards

# Base seeds and reps around the 32-bit word boundary: SeedSequence splits a
# key of 2**32 or more into several words.
SPLIT_SEEDS = [0, 2**32 - 1, 2**32, 2**40]
SPLIT_REPS = [0, 2**32 + 5]


def _spec(**kw):
    base = dict(d=20, K=3, M=4, n=50, r=0.5, base_seed=7)
    base.update(kw)
    return ProblemSpec(**base)


class TestProblemSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            _spec(d=1)
        with pytest.raises(ValueError):
            _spec(K=0)
        with pytest.raises(ValueError):
            _spec(K=20)  # K must be < d
        with pytest.raises(ValueError):
            _spec(r=0.0)
        with pytest.raises(ValueError):
            _spec(corr_decay=1.0)
        with pytest.raises(ValueError):
            _spec(sigma=-1.0)
        with pytest.raises(ValueError):
            _spec(sigma="weird")

    @pytest.mark.parametrize("sigma", [float("nan"), float("inf"), 0.0])
    def test_nan_infinite_or_zero_sigma_rejected(self, sigma):
        with pytest.raises(ValueError, match="sigma must be positive"):
            _spec(sigma=sigma)

    def test_fewer_pooled_samples_than_K_rejected(self):
        # The pooled oracle solves a K x K system from M * n samples.
        with pytest.raises(ValueError, match="M \\* n must be at least K"):
            _spec(K=5, M=1, n=4)
        with pytest.raises(ValueError, match="M \\* n must be at least K"):
            _spec(M=1, n=4).with_(M=1, n=2)
        assert _spec(K=5, M=1, n=5).n == 5 and _spec(K=5, M=2, n=3).M == 2

    @pytest.mark.parametrize(
        "field, value",
        [("base_seed", 1.5), ("base_seed", 7.0), ("base_seed", True), ("n", 30.5), ("n", 50.0),
         ("d", 40.0), ("K", 2.0), ("M", True), ("M", False), ("K", np.float64(3.0)), ("d", "20")],
    )
    def test_sizes_and_seed_must_be_integers(self, field, value):
        # A float, even a whole one, or a bool is refused at construction
        # and by with_, naming the field, before it can be truncated into a
        # seed or fail later inside the design draw.
        with pytest.raises(ValueError, match=f"^{field} must be an integer"):
            _spec(**{field: value})
        with pytest.raises(ValueError, match=f"^{field} must be an integer"):
            _spec().with_(**{field: value})

    @pytest.mark.parametrize(
        "field, value",
        [("r", True), ("r", np.True_), ("sigma", True), ("corr_decay", False), ("corr_decay", np.False_)],
        ids=["r-True", "r-np.True_", "sigma-True", "corr_decay-False", "corr_decay-np.False_"],
    )
    def test_r_sigma_and_corr_decay_must_not_be_bools(self, field, value):
        # r = True would run as r = 1, sigma = True as sigma = 1, and
        # corr_decay = False as an independent design.
        with pytest.raises(ValueError, match=f"^{field} must be a number"):
            _spec(**{field: value})
        with pytest.raises(ValueError, match=f"^{field} must be a number"):
            _spec().with_(**{field: value})

    def test_numpy_integers_accepted(self):
        spec = _spec(d=np.int64(20), K=np.int32(3), M=np.uint8(4), n=np.int64(50), base_seed=np.uint64(7))
        assert spec == _spec()
        assert np.array_equal(sample_shards(spec), sample_shards(_spec()))

    def test_numpy_integers_are_stored_as_python_ints(self):
        # Records hold the spec's sizes, and JSON writes no NumPy integer.
        spec = _spec(d=np.int64(20), K=np.int32(3), M=np.uint8(4), n=np.int64(50), base_seed=np.uint64(7))
        assert all(type(getattr(spec, f)) is int for f in ("d", "K", "M", "n", "base_seed"))
        assert type(spec.with_(n=np.int64(30)).n) is int

    def test_sigma_from_r(self):
        assert _spec(r=0.25).sigma_value() == pytest.approx(2.0)
        assert _spec(sigma=3.0).sigma_value() == 3.0


class TestSampleShards:
    def test_one_stacked_array(self):
        spec = _spec()
        X = sample_shards(spec)
        assert X.shape == (spec.M, spec.n, spec.d) and X.dtype == np.float64
        assert X.flags.c_contiguous

    def test_deterministic(self):
        spec = _spec()
        assert np.array_equal(sample_shards(spec), sample_shards(spec))

    def test_machines_differ(self):
        X = sample_shards(_spec(M=2))
        assert not np.array_equal(X[0], X[1])

    def test_machine_slab_is_its_own_stream(self):
        # Machine m's rows depend only on (base_seed, rep, m), not on M.
        spec = _spec()
        assert np.array_equal(sample_shards(spec.with_(M=2))[1], sample_shards(spec)[1])
        # Without the AR(1) recursion each slab is its stream's raw draw, for
        # seeds and reps of one word and of several.
        for base_seed in SPLIT_SEEDS:
            for rep in SPLIT_REPS:
                for M in (1, 3):
                    spec = _spec(M=M, n=6, corr_decay=0.0, base_seed=base_seed)
                    X = sample_shards(spec, rep=rep)
                    for m in range(M):
                        want = stream(base_seed, TAG_DESIGN, rep, m).standard_normal((6, spec.d))
                        assert np.array_equal(X[m], want), (base_seed, rep, M, m)

    @pytest.mark.parametrize("corr_decay", [0.5, 0.0])
    @pytest.mark.parametrize("rep", [0, 3])
    def test_stacked_recursion_equals_per_machine_loop(self, corr_decay, rep):
        spec = _spec(M=3, corr_decay=corr_decay)
        X = sample_shards(spec, rep=rep)
        ref = loop_shards(spec, rep=rep)
        assert X.tobytes() == ref.tobytes()

    def test_row_prefix_consistency_across_n(self):
        # Larger draws extend smaller ones row-for-row (needed by n-sweeps).
        spec = _spec()
        small = sample_shards(spec, n=20)
        large = sample_shards(spec, n=50)
        assert np.array_equal(large[:, :20], small)

    def test_column_means_near_zero(self):
        spec = _spec(d=5, M=10, n=10_000, corr_decay=0.0)
        pooled = sample_shards(spec).reshape(-1, spec.d)
        se = 1.0 / math.sqrt(pooled.shape[0])
        assert np.abs(pooled.mean(axis=0)).max() <= 4 * se

    def test_pooled_covariance_converges(self):
        spec = _spec(d=10, M=10, n=10_000)
        pooled = sample_shards(spec).reshape(-1, spec.d)
        emp = pooled.T @ pooled / pooled.shape[0]
        idx = np.arange(10)
        Sigma = 0.5 ** np.abs(idx[:, None] - idx[None, :])
        assert np.abs(emp - Sigma).max() <= 0.05


class TestMakeThetaStar:
    def test_k1_degenerates_to_theta_min(self):
        truth = make_theta_star(_spec(K=1), theta_min=0.37)
        nz = truth.theta_star[truth.theta_star != 0]
        assert nz.size == 1
        assert abs(nz[0]) == pytest.approx(0.37)

    def test_equally_spaced_magnitudes(self):
        truth = make_theta_star(_spec(K=5), theta_min=0.2)
        mags = np.sort(np.abs(truth.theta_star[truth.support]))
        assert np.allclose(mags, [0.20, 0.25, 0.30, 0.35, 0.40])

    def test_construction_invariants(self):
        for seed in range(5):
            spec = _spec(K=4, base_seed=seed)
            truth = make_theta_star(spec, theta_min=0.5)
            assert truth.support.size == spec.K
            assert np.array_equal(np.sort(truth.support), truth.support)
            mags = np.abs(truth.theta_star[truth.support])
            assert mags.min() == pytest.approx(0.5)  # planted at equality
            assert np.all(mags <= 2 * 0.5 + 1e-15)
            assert set(np.flatnonzero(truth.theta_star)) == set(truth.support)


class TestThetaMinFromSnr:
    def test_frozen_value(self):
        # sigma sqrt(2 (c/n) r ln d) at sigma=1, r=0.5, n=250, d=5000, c=1.3
        val = theta_min_from_snr(5000, 1.0, 0.5, 250, 1.3)
        assert val == pytest.approx(0.2104505, abs=5e-6)

    def test_vanishes_with_r(self):
        assert theta_min_from_snr(5000, 1.0, 1e-12, 250, 1.3) < 1e-5

    def test_sqrt_homogeneity_in_c_omega(self):
        base = theta_min_from_snr(100, 1.0, 0.5, 50, 1.0)
        assert theta_min_from_snr(100, 1.0, 0.5, 50, 4.0) == pytest.approx(2 * base)

    def test_monotonicity(self):
        args = dict(d=200, sigma=1.0, r=0.5, n=100, c_omega=1.5)
        base = theta_min_from_snr(**args)
        assert theta_min_from_snr(**{**args, "sigma": 2.0}) > base
        assert theta_min_from_snr(**{**args, "r": 0.9}) > base
        assert theta_min_from_snr(**{**args, "c_omega": 2.5}) > base
        assert theta_min_from_snr(**{**args, "d": 2000}) > base
        assert theta_min_from_snr(**{**args, "n": 400}) < base


class TestSampleResponses:
    def test_noiseless_limit(self):
        spec = _spec()
        X = sample_shards(spec)
        truth = make_theta_star(spec, 0.5)
        Y = sample_responses(X, truth.theta_star, 1e-12, spec.base_seed)
        assert Y.shape == (spec.M, spec.n)
        assert np.abs(Y - X @ truth.theta_star).max() <= 1e-9

    def test_noise_variance(self):
        spec = _spec(d=2, K=1, M=10, n=10_000)
        Y = sample_responses(sample_shards(spec), np.zeros(2), 1.7, spec.base_seed)
        assert abs(Y.var() / 1.7**2 - 1.0) <= 0.05

    def test_deterministic(self):
        spec = _spec()
        X = sample_shards(spec)
        a = sample_responses(X, np.zeros(spec.d), 1.0, spec.base_seed)
        b = sample_responses(X, np.zeros(spec.d), 1.0, spec.base_seed)
        assert np.array_equal(a, b)

    def test_rep_streams_differ(self):
        spec = _spec()
        X = sample_shards(spec)
        a = sample_responses(X, np.zeros(spec.d), 1.0, spec.base_seed, rep=0)
        b = sample_responses(X, np.zeros(spec.d), 1.0, spec.base_seed, rep=1)
        assert not np.array_equal(a[0], b[0])

    def test_each_machine_uses_its_own_noise_stream(self):
        spec = _spec()
        X = sample_shards(spec)
        theta = make_theta_star(spec, 0.5).theta_star
        Y = sample_responses(X, theta, 0.7, spec.base_seed, rep=3)
        for m in range(spec.M):
            w = stream(spec.base_seed, TAG_NOISE, 3, m).standard_normal(spec.n)
            assert np.array_equal(Y[m], X[m] @ theta + 0.7 * w)
        # Every row of sample_noise is its stream's draw, for seeds and reps
        # of one word and of several.
        for base_seed in SPLIT_SEEDS:
            for rep in SPLIT_REPS:
                for M in (1, 3):
                    W = sample_noise(M, 9, base_seed, rep)
                    for m in range(M):
                        want = stream(base_seed, TAG_NOISE, rep, m).standard_normal(9)
                        assert np.array_equal(W[m], want), (base_seed, rep, M, m)

    @pytest.mark.parametrize("n, n_cal", [(60, 100), (80, 100), (1, 7), (33, 250)])
    def test_short_draw_is_prefix_of_calibrated_draw(self, n, n_cal):
        # Grid points below n_cal take the first n rows of the calibrated
        # design; their noise must be the first n values of the n_cal draw.
        # theta* = 0 makes each response exactly sigma times the noise.
        spec = _spec(n=n_cal)
        X = sample_shards(spec)
        full = sample_responses(X, np.zeros(spec.d), 1.3, spec.base_seed, rep=2)
        short = sample_responses(X[:, :n], np.zeros(spec.d), 1.3, spec.base_seed, rep=2)
        assert np.array_equal(short, full[:, :n])

    def test_nonpositive_sigma_rejected(self):
        spec = _spec()
        with pytest.raises(ValueError, match="sigma must be positive"):
            sample_responses(sample_shards(spec), np.zeros(spec.d), 0.0, spec.base_seed)

    @pytest.mark.parametrize("sigma", [float("nan"), float("inf")])
    def test_nonfinite_sigma_rejected(self, sigma):
        spec = _spec()
        with pytest.raises(ValueError, match="sigma must be positive and finite"):
            sample_responses(sample_shards(spec), np.zeros(spec.d), sigma, spec.base_seed)


class TestComputeCOmega:
    def test_identity_machine(self):
        assert compute_c_omega([np.ones(4)]) == 1.0

    def test_max_across_machines(self):
        assert compute_c_omega([np.array([1.0, 1.3]), np.array([0.9, 1.1])]) == 1.3

    def test_dominates_every_entry(self, rng):
        diags = [rng.uniform(0.5, 2.0, size=6) for _ in range(3)]
        c = compute_c_omega(diags)
        for v in diags:
            assert c >= v.max()

    def test_empty_errors(self):
        with pytest.raises(ValueError, match="no machines"):
            compute_c_omega([])


@pytest.mark.parametrize("base_seed", SPLIT_SEEDS)
@pytest.mark.parametrize("keys", [(), (3,), (3, 17), (2**32 + 5, 0)])
def test_stream_draws_equal_list_seed_sequence(base_seed, keys):
    # stream is the reference the stacked draws are checked against: NumPy's
    # list-form SeedSequence, which splits values of 2**32 and above into
    # several 32-bit words.
    ref = np.random.default_rng(np.random.SeedSequence([base_seed, TAG_NOISE, *keys]))
    assert np.array_equal(stream(base_seed, TAG_NOISE, *keys).standard_normal(16), ref.standard_normal(16))


def test_stream_rejects_negative_keys():
    with pytest.raises(ValueError):
        stream(-1, TAG_NOISE)
    with pytest.raises(ValueError):
        sample_noise(2, 3, 0, rep=-1)


def test_streams_are_tag_separated():
    a = stream(5, 1, 0).standard_normal(8)
    b = stream(5, 2, 0).standard_normal(8)
    assert not np.array_equal(a, b)


class TestStreamStates:
    """``_stream_states`` forms the PCG64 seed words of many reps' streams
    in one seeding pass per key width, and ``fill_streams`` draws from them."""

    # Reps of one, two and two 32-bit words, interleaved, in one call.
    REPS = [0, 1, 2**32 - 1, 2**32, 2**40 + 3, 2]

    @pytest.mark.parametrize("base_seed", [0, 2**32])
    @pytest.mark.parametrize("M", [1, 3])
    def test_every_state_is_its_streams(self, base_seed, M):
        states = _stream_states(base_seed, TAG_NOISE, self.REPS, M)
        assert states.shape == (len(self.REPS), M, 4) and states.dtype == np.uint64
        for i, rep in enumerate(self.REPS):
            for m in range(M):
                want = np.random.SeedSequence([base_seed, TAG_NOISE, rep, m]).generate_state(4, np.uint64)
                assert np.array_equal(states[i, m], want), (base_seed, rep, m)
        drawn = fill_streams(np.empty((M, len(self.REPS), 7)), base_seed, TAG_NOISE, self.REPS)
        for i, rep in enumerate(self.REPS):
            for m in range(M):
                want = stream(base_seed, TAG_NOISE, rep, m).standard_normal(7)
                assert np.array_equal(drawn[m, i], want), (base_seed, rep, m)

    def test_one_rep_at_a_time_gives_the_same_states(self):
        together = _stream_states(9, TAG_DESIGN, self.REPS, 3)
        for i, rep in enumerate(self.REPS):
            assert np.array_equal(_stream_states(9, TAG_DESIGN, [rep], 3)[0], together[i])

    def test_no_reps(self):
        assert _stream_states(0, TAG_NOISE, [], 4).shape == (0, 4, 4)

    def test_negative_rep_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            _stream_states(0, TAG_NOISE, [1, -1], 2)


class TestStreams:
    """``fill_streams`` fills row (m, i) with ``stream(base_seed, tag,
    reps[i], m)``, every row of a draw from one seeding pass."""

    REPS = [0, 1, 2, 2**32 + 1]

    @pytest.mark.parametrize("first", [0, 2])
    def test_rows_are_the_streams(self, first):
        # A replication's rows do not depend on the block it is drawn in.
        reps = self.REPS[first:]
        together = fill_streams(np.empty((3, len(reps), 5)), 7, TAG_NOISE, reps)
        for i, rep in enumerate(reps):
            alone = fill_streams(np.empty((3, 1, 5)), 7, TAG_NOISE, [rep])[:, 0]
            assert np.array_equal(alone, together[:, i]), rep
            for m in range(3):
                assert np.array_equal(together[m, i], stream(7, TAG_NOISE, rep, m).standard_normal(5)), (rep, m)

    def test_rows_inside_a_wider_buffer(self):
        # A block shorter than its buffer fills a strided prefix, row by row.
        out = np.zeros((3, 4, 2, 3))
        fill_streams(out[:, :2], 5, TAG_DESIGN, [9, 2**32])
        for i, rep in enumerate((9, 2**32)):
            for m in range(3):
                want = stream(5, TAG_DESIGN, rep, m).standard_normal((2, 3))
                assert np.array_equal(out[m, i], want), (rep, m)
        assert not out[:, 2:].any()

    def test_negative_rep_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            fill_streams(np.empty((2, 1, 4)), 0, TAG_NOISE, [-1])

    def test_seed_words_refuse_any_other_request(self):
        # PCG64 asks for 4 uint64 words; any other request would be handed
        # words that were not formed for it.
        words = _stream_states(7, TAG_NOISE, [5], 1)[0, 0]
        assert _SeedWords(words).generate_state(4, np.uint64) is words
        for n_words, dtype in [(2, np.uint64), (4, np.uint32), (8, np.uint32)]:
            with pytest.raises(ValueError, match="holds 4 uint64 seed words"):
                _SeedWords(words).generate_state(n_words, dtype)

    @pytest.mark.parametrize("shape", [(2, 3, 4), (2, 1, 4)], ids=["three_rows", "one_row"])
    def test_a_buffer_of_another_rep_count_is_refused(self, shape):
        # Two reps in a buffer of three or one rows per machine would fill
        # rows with another machine's streams, or leave rows unfilled.
        out = np.zeros(shape)
        with pytest.raises(ValueError, match=re.escape(f"out of shape {shape} is not (M, 2, ...)")):
            fill_streams(out, 7, 3, [5, 6])
        assert not out.any()
