import contextlib
import dataclasses
import json
import math
import time
from types import SimpleNamespace

import numpy as np
import pytest

from votelasso import _kernels, fusion, harness, lasso, protocol
from votelasso.datagen import ProblemSpec, make_theta_star, sample_noise, sample_responses, sample_shards
from votelasso.debias import SparseRows, debias, estimate_precision, noise_scale, sandwich_diag, standardize
from votelasso.harness import (
    SCHEMES,
    ExperimentConfig,
    _oracle_error,
    _rep_fits,
    build_design,
    check_grid,
    f_measure,
    materialize,
    run_point_rep,
    run_sweep,
)
from votelasso.lasso import kkt_violation, restricted_gram_inverse, restricted_xty

from oracles import (
    dense_rows,
    loop_aggregate,
    loop_oracle_error,
    loop_oracle_gram,
    loop_rep_fits,
    loop_round1_messages,
    loop_second_round,
    loop_tallies,
    loop_xty,
    naive_debias,
    normal_equations_ols,
    svd_gram_inverse,
)

TIMING_FIELDS = ("wall_time", "shared_time")


def _config(**kw):
    spec_kw = dict(d=60, K=3, M=12, n=50, r=0.8, base_seed=5)
    for key in list(kw):
        if key in spec_kw:
            spec_kw[key] = kw.pop(key)
    base = dict(spec=ProblemSpec(**spec_kw), reps=3)
    base.update(kw)
    return ExperimentConfig(**base)


def _at(cfg, **values):
    """``cfg`` at the given grid values, chained through ``cfg.at``; a None
    value leaves its axis at the config's."""
    for axis, value in values.items():
        if value is not None:
            cfg = cfg.at(axis, value)
    return cfg


@pytest.fixture(scope="module")
def small_design():
    cfg = _config()
    return cfg, build_design(cfg)


class TestFMeasure:
    def test_exact_recovery(self):
        assert f_measure([1, 2, 3], [1, 2, 3]) == (1.0, 1.0, 1.0)

    def test_disjoint(self):
        f, p, r = f_measure([4, 5], [1, 2, 3])
        assert (f, p, r) == (0.0, 0.0, 0.0)

    def test_partial_overlap(self):
        f, p, r = f_measure([1, 2, 3, 8, 9], [1, 2, 3, 4, 5])
        assert p == pytest.approx(0.6)
        assert r == pytest.approx(0.6)
        assert f == pytest.approx(0.6)

    def test_empty_estimate_convention(self):
        assert f_measure([], [1, 2]) == (0.0, 0.0, 0.0)

    def test_empty_truth_rejected(self):
        with pytest.raises(ValueError):
            f_measure([1], [])


class TestOracleLs:
    """The oracle of ``_oracle_error``: pooled least squares on the true support."""

    @staticmethod
    def _point(M):
        cfg = _config(d=20, K=2, M=M, n=30)
        return materialize(build_design(cfg), cfg)

    @staticmethod
    def _error(point, beta):
        theta = np.zeros(point.design.spec.d)
        theta[point.design.support] = beta
        return float(np.linalg.norm(theta - point.theta_star))

    def test_noiseless_exact(self):
        point = self._point(M=3)
        X = point.design.X[: point.M, : point.n]
        ys = sample_responses(X, point.theta_star, 1e-12, point.design.spec.base_seed)
        assert _oracle_error(point, restricted_xty(X, ys)) <= 1e-9

    def test_matches_stacked_ols(self):
        point = self._point(M=4)
        *_, xty, ys = _rep_fits(point, 0)
        S = point.design.support
        X_all = point.design.X[: point.M, : point.n].reshape(-1, point.design.spec.d)
        beta = normal_equations_ols(X_all[:, S], ys.reshape(-1))
        assert _oracle_error(point, xty) == pytest.approx(self._error(point, beta), abs=1e-10)

    def test_single_machine_equals_restricted(self):
        point = self._point(M=1)
        *_, xty, ys = _rep_fits(point, 0)
        X = point.design.X[0][: point.n]
        beta = normal_equations_ols(X[:, point.design.support], ys[0])
        assert _oracle_error(point, xty) == pytest.approx(self._error(point, beta), abs=1e-10)


class TestRunReplication:
    def test_bit_identical_repeats(self, small_design):
        cfg, design = small_design
        point = materialize(design, cfg)
        a = run_point_rep(point, ["thresh_votes"], 0)[0]
        b = run_point_rep(point, ["thresh_votes"], 0)[0]
        assert a.to_dict() == b.to_dict() or (
            # the timings differ; compare everything else
            {k: v for k, v in a.to_dict().items() if k not in TIMING_FIELDS}
            == {k: v for k, v in b.to_dict().items() if k not in TIMING_FIELDS}
        )

    def test_standalone_matches_prepared_point(self, small_design):
        # A design built anew gives the shared fixture's record.
        cfg, design = small_design
        point = materialize(design, cfg)
        via_point = run_point_rep(point, ["thresh_votes"], 1)[0]
        standalone = run_point_rep(materialize(build_design(cfg), cfg), ["thresh_votes"], 1)[0]
        assert _untimed(standalone) == _untimed(via_point)

    def test_reps_differ(self, small_design):
        cfg, design = small_design
        point = materialize(design, cfg)
        a = run_point_rep(point, ["thresh_votes"], 0)[0]
        b = run_point_rep(point, ["thresh_votes"], 1)[0]
        assert a.l2_error != b.l2_error

    def test_avg_deblasso_dense_bits(self, small_design):
        cfg, design = small_design
        cfg2 = cfg.with_(second_round="none")
        point = materialize(design, cfg2)
        rec = run_point_rep(point, ["avg_deblasso"], 0)[0]
        assert all(b == 64 * cfg.spec.d for b in rec.bits_round1_per_machine)
        assert rec.bits_round2_total == 0

    def test_round1_ledger_conservation(self, small_design):
        from votelasso.protocol import index_bits

        cfg, design = small_design
        point = materialize(design, cfg)
        rec = run_point_rep(point, ["thresh_votes"], 2)[0]
        assert rec.bits_round1_total == sum(rec.bits_round1_per_machine)
        # every entry is a multiple of the per-index cost
        b = index_bits(cfg.spec.d)
        assert all(v % b == 0 for v in rec.bits_round1_per_machine)

    def test_gram_exact_second_round(self, small_design):
        cfg, design = small_design
        avg_point = materialize(design, cfg)
        gram_point = materialize(design, cfg.with_(second_round="gram_exact"))
        rec_avg = run_point_rep(avg_point, ["thresh_votes"], 0)[0]
        rec_gram = run_point_rep(gram_point, ["thresh_votes"], 0)[0]
        assert rec_gram.S_hat == rec_avg.S_hat
        # pooled LS differs from averaged LS but both are near the truth
        assert rec_gram.l2_error != rec_avg.l2_error
        assert rec_gram.bits_round2_total > rec_avg.bits_round2_total
        # Each rule's point gives its rule's own estimate: the frozen loop's,
        # and a fresh point's record.
        S = np.array(rec_avg.S_hat, dtype=np.int64)
        for point, rec in ((avg_point, rec_avg), (gram_point, rec_gram)):
            theta, bits = loop_second_round(point, 0, S)
            assert rec.l2_error == float(np.linalg.norm(theta - point.theta_star))
            assert rec.bits_round2_total == bits
            alone = run_point_rep(materialize(design, point.config), ["thresh_votes"], 0)[0]
            assert _untimed(rec) == _untimed(alone)

    def test_points_of_one_design_read_only_their_own_configs(self, small_design):
        # Two points of one design whose configs differ in every setting a
        # replication reads, run in turn: each record carries its own
        # point's lam, tau, top-L message size, sparsity rule and round two.
        from votelasso.protocol import index_bits

        cfg, design = small_design
        configs = (
            cfg.with_(lam=0.3, L=4, tau=0.5, sparsity_mode="known", second_round="average"),
            cfg.with_(lam="fixed_8", L=6, tau="sqrt_2r_log_d", sparsity_mode="unknown", second_round="none"),
        )
        points = [materialize(design, c) for c in configs]
        schemes = ["thresh_votes", "top_L_votes", "top_L_signs", "bnm21"]
        records = [[], []]
        for rep in range(3):
            for point, recs in zip(points, records):
                recs += run_point_rep(point, schemes, rep)
        known, unknown = records
        for point, recs in zip(points, records):
            c = point.config
            for rec in recs:
                assert rec.lam == c.lam_at() and rec.fusion_log["tau"] == c.tau_at()
                if rec.scheme == "top_L_votes":
                    assert rec.bits_round1_per_machine == [c.L * index_bits(c.spec.d)] * c.spec.M
        assert configs[0].lam_at() != configs[1].lam_at() and configs[0].tau_at() != configs[1].tau_at()
        rules = [{r.fusion_log["rule"] for r in recs if r.scheme != "bnm21"} for recs in records]
        assert rules == [{"topK"}, {"vote_threshold"}]
        assert any(r.bits_round2_total for r in known)
        assert all(r.bits_round2_total == 0 for r in unknown)
        assert all(r.l2_error is None for r in unknown if r.S_hat)

    def test_exact_recovery_consistency(self, small_design):
        # With S_hat == S and averaging, the error must equal the error of
        # the averaged restricted OLS on the true support (definitional). At
        # lambda = 0.3 every replication recovers the support exactly; at
        # the default lambda none does.
        cfg, design = small_design
        cfg = cfg.with_(lam=0.3)
        point = materialize(design, cfg)
        exact = 0
        for rep in range(5):
            rec = run_point_rep(point, ["thresh_votes"], rep)[0]
            if rec.f_measure != 1.0:
                continue
            exact += 1
            from votelasso.datagen import stream, TAG_NOISE

            spec = cfg.spec
            betas = []
            for m in range(spec.M):
                X = design.X[m]
                w = stream(spec.base_seed, TAG_NOISE, rep, m).standard_normal(design.n_cal)
                y = X @ point.theta_star + point.config.spec.sigma_value() * w
                betas.append(normal_equations_ols(X[:, design.support], y))
            theta = np.zeros(spec.d)
            theta[design.support] = np.mean(betas, axis=0)
            assert rec.l2_error == pytest.approx(
                float(np.linalg.norm(theta - point.theta_star)), rel=1e-12
            )
        assert exact >= 3

    def test_unknown_sparsity_and_empty_support_flag(self, small_design):
        cfg, design = small_design
        # Absurdly high explicit threshold: nobody votes, support is empty.
        cfg2 = cfg.with_(sparsity_mode="unknown", tau=50.0)
        point = materialize(design, cfg2)
        rec = run_point_rep(point, ["thresh_votes"], 0)[0]
        assert rec.flags.empty_support
        assert rec.f_measure == 0.0
        assert rec.l2_error == pytest.approx(float(np.linalg.norm(point.theta_star)))

    def test_second_round_none_reports_no_estimate(self, small_design):
        cfg, design = small_design
        cfg2 = cfg.with_(second_round="none")
        point = materialize(design, cfg2)
        rec = run_point_rep(point, ["thresh_votes"], 0)[0]
        assert rec.l2_error is None


class TestSchemes:
    def test_all_schemes_run(self, small_design):
        cfg, design = small_design
        schemes = ["thresh_votes", "top_L_votes", "top_L_signs", "bnm21", "avg_deblasso", "thresh_signs"]
        point = materialize(design, cfg)
        recs = run_point_rep(point, schemes, 0)
        assert [r.scheme for r in recs] == schemes
        for rec in recs:
            assert 0.0 <= rec.f_measure <= 1.0
            assert rec.bits_round1_total >= 0

    def test_top_l_defaults_to_k(self, small_design):
        cfg, design = small_design
        point = materialize(design, cfg)
        rec = run_point_rep(point, ["top_L_votes"], 0)[0]
        from votelasso.protocol import index_bits

        assert all(
            v == cfg.spec.K * index_bits(cfg.spec.d) for v in rec.bits_round1_per_machine
        )

    def test_config_validation(self):
        with pytest.raises(ValueError, match="unknown scheme 'nope'"):
            run_sweep(_config(), "r", [0.8], ["nope"])
        cfg = _config(L=2)  # L < K is a valid config: only top-L schemes refuse it
        with pytest.raises(ValueError, match="top-L schemes need L >= K"):
            check_grid(cfg, "r", [0.8], ["top_L_votes"])
        # A given L is checked though the config names no scheme.
        for L in (2.5, 3.0, True, np.float64(4.0)):
            # A non-integer L used to pass here and fail mid-run in round1_top_L.
            with pytest.raises(ValueError, match="L must be an integer"):
                _config(L=L)
        for L in (0, 61):
            with pytest.raises(ValueError, match=r"L must lie in \[1, d\]"):
                _config(L=L)
        assert _config(L=np.int64(4)).resolved_L() == 4
        with pytest.raises(ValueError):
            _config(second_round="third")
        for bad in (
            dict(tau="explicit"),  # the former pseudo-rule is no rule
            dict(lam="fixed8"),
            dict(lam="sigma_scaled_8"),
            dict(lam_omega="fixed2"),
        ):
            with pytest.raises(ValueError):
                _config(**bad)
        cfg = _config(n=40, r=0.5)
        assert cfg.lam_at() == 8.0 * math.sqrt(math.log(60) / 40)
        assert cfg.lam_omega_at(50) == 2.0 * math.sqrt(math.log(60) / 50)
        assert cfg.tau_at() == protocol.default_tau(60)
        assert cfg.with_(tau="sqrt_2r_log_d").tau_at() == protocol.snr_tau(60, 0.5)
        assert _config(lam_omega=0.3).lam_omega_at(50) == 0.3
        assert _config(lam=1, tau=np.float64(2.5)).lam_at() == 1.0
        assert _config(tau=np.float64(2.5)).tau_at() == 2.5

    @pytest.mark.parametrize("reps", [2.5, 3.0, math.nan, math.inf, True, False, 0, -1, "3", None, np.float64(2.0)])
    def test_reps_must_be_a_positive_integer(self, reps):
        # A float or NaN used to pass here and fail inside run_sweep with a
        # TypeError, and True ran one replication.
        with pytest.raises(ValueError, match="^reps must be an integer >= 1"):
            _config(reps=reps)

    @pytest.mark.parametrize("reps", [1, 7, np.int64(2)])
    def test_integer_reps_accepted(self, reps):
        assert _config(reps=reps).reps == reps

    @pytest.mark.parametrize("value", [0.0, -1.0, math.nan, math.inf])
    @pytest.mark.parametrize("key", ["tau", "lam", "lam_omega"], ids=["tau", "lambda", "lambda_omega"])
    def test_explicit_value_must_be_finite_and_positive(self, key, value):
        with pytest.raises(ValueError, match=f"^{key} must be one of .* or a finite positive number"):
            _config(**{key: value})

    @pytest.mark.parametrize("key", ["tau", "lam", "lam_omega"])
    @pytest.mark.parametrize("value", [True, False, None, "", "explicit", [1.0], complex(1.0)])
    def test_tuning_field_refuses_a_non_number_or_unknown_rule(self, key, value):
        with pytest.raises(ValueError, match=f"^{key} must be one of"):
            _config(**{key: value})

    @pytest.mark.parametrize(
        "old",
        [dict(tau_mode="explicit", tau_value=1.0), dict(lambda_rule="fixed_8"), dict(lambda_value=0.5),
         dict(lambda_omega_rule="fixed_2"), dict(lambda_omega_value=0.5)],
    )
    def test_former_rule_value_fields_are_refused(self, old):
        with pytest.raises(TypeError, match="unexpected keyword argument"):
            _config(**old)

    @pytest.mark.parametrize("old", [dict(scheme="thresh_votes"), dict(nodewise_residual_scale="n")])
    def test_removed_fields_are_refused(self, old):
        # The schemes are run_sweep's argument, and tau_i^2 has one residual scale.
        with pytest.raises(TypeError, match="unexpected keyword argument"):
            _config(**old)

    def test_explicit_tau_changes_the_records(self, small_design):
        cfg, design = small_design
        runs = {}
        for tau in ("sqrt_2_log_d", 0.01):
            c = cfg.with_(tau=tau)
            runs[tau] = run_point_rep(materialize(design, c), ["thresh_votes"], 0)[0]
        low, default = runs[0.01], runs["sqrt_2_log_d"]
        assert low.fusion_log["tau"] == 0.01 and default.fusion_log["tau"] == protocol.default_tau(60)
        # Nearly every coordinate crosses tau = 0.01 on every machine.
        many = 55 * protocol.index_bits(60)
        assert min(low.bits_round1_per_machine) >= many > max(default.bits_round1_per_machine)
        assert low.S_hat != default.S_hat


def _untimed(rec) -> dict:
    return {k: v for k, v in rec.to_dict().items() if k not in TIMING_FIELDS}


def _untimed_row(row: dict) -> dict:
    """A sweep's record without its timings and grid coordinates."""
    return {k: v for k, v in row.items() if k not in (*TIMING_FIELDS, "axis", "value")}


def _round2_supports(recs) -> set:
    return {tuple(r.S_hat) for r in recs if r.scheme != "avg_deblasso" and r.S_hat}


@contextlib.contextmanager
def _per_machine_loops(monkeypatch):
    """Replace round one, the tallies, round two and the oracle of every
    replication run inside by the per-machine loops of
    ``oracles``. The loops form each machine's X'y from its responses
    themselves (``loop_xty``), so they are handed the replication's number
    in place of its stacked X'y."""
    current = {}
    rep_fits = harness._rep_fits

    def keeping_rep(point, rep):
        current["rep"] = rep
        return rep_fits(point, rep)

    with monkeypatch.context() as mp:
        mp.setattr(harness, "_rep_fits", keeping_rep)
        mp.setattr(
            harness,
            "_round1_messages",
            lambda rule, point, theta_hat, xi, selections: loop_round1_messages(rule, point, theta_hat, xi),
        )
        mp.setattr(harness, "_tallies", loop_tallies)
        mp.setattr(
            harness,
            "_second_round",
            lambda point, xty, support: loop_second_round(point, current["rep"], support),
        )
        mp.setattr(harness, "_oracle_error", lambda point, xty: loop_oracle_error(point, current["rep"]))
        yield


# Scheme subsets that tally one selection: an unsigned rule alone tallies
# its own messages, and beside the signed rule of its selection it reads
# that rule's tally.
TALLY_SUBSETS = (
    ["thresh_votes"],
    ["bnm21"],
    ["thresh_votes", "thresh_signs"],
    ["thresh_signs", "bnm21"],
    ["top_L_votes"],
    ["top_L_votes", "top_L_signs"],
)


class TestSharedWork:
    """The schemes of one replication share round 1, tallies and round 2."""

    @pytest.mark.parametrize("second_round", ["average", "gram_exact"])
    @pytest.mark.parametrize("sparsity_mode", ["known", "unknown"])
    def test_joint_run_equals_single_scheme_runs(self, small_design, second_round, sparsity_mode):
        cfg, design = small_design
        cfg = cfg.with_(second_round=second_round, sparsity_mode=sparsity_mode)
        point = materialize(design, cfg)
        joint = [run_point_rep(point, list(SCHEMES), rep) for rep in (0, 1)]
        # Both replications select a common support, so work kept from the
        # first would change the second's records.
        assert _round2_supports(joint[0]) & _round2_supports(joint[1])
        for rep, recs in zip((0, 1), joint):
            alone = [run_point_rep(point, [s], rep)[0] for s in SCHEMES]
            assert [_untimed(r) for r in recs] == [_untimed(r) for r in alone]

    def test_shared_time_is_counted_once(self, small_design):
        cfg, design = small_design
        point = materialize(design, cfg)
        t0 = time.perf_counter()
        recs = run_point_rep(point, list(SCHEMES), 0)
        elapsed = time.perf_counter() - t0
        assert len({r.shared_time for r in recs}) == 1
        assert all(r.wall_time >= 0.0 for r in recs)
        # Disjoint spans of one call: shared work plus each scheme's own.
        assert recs[0].shared_time + sum(r.wall_time for r in recs) <= elapsed

    def test_time_is_charged_to_the_step_that_spent_it(self, small_design, monkeypatch):
        cfg, design = small_design
        point = materialize(design, cfg)
        schemes = ["thresh_votes", "thresh_signs"]
        pause, slept = 0.02, []

        def sleeping(original, only=None):
            def wrapped(*args):
                if only in (None, args[0]):
                    slept.append(args[0])
                    time.sleep(pause)
                return original(*args)

            return wrapped

        with monkeypatch.context() as mp:
            mp.setattr(harness, "_second_round", sleeping(harness._second_round))
            recs = run_point_rep(point, schemes, 0)
        # One round two, for the one support both schemes selected.
        assert recs[0].S_hat == recs[1].S_hat and len(slept) == 1
        assert all(r.shared_time >= pause and r.wall_time < pause for r in recs)
        with monkeypatch.context() as mp:
            mp.setattr(harness, "_select_support", sleeping(harness._select_support, only="thresh_signs"))
            votes, signs = run_point_rep(point, schemes, 0)
        assert signs.wall_time >= pause
        assert votes.wall_time < pause and votes.shared_time < pause

    def test_one_round2_per_support_and_one_tally_per_selection(self, small_design, monkeypatch):
        cfg, design = small_design
        point = materialize(design, cfg)
        calls = {"round2": 0, "tally": 0}

        def counting(name, fn):
            def wrapped(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapped

        monkeypatch.setattr(protocol, "round2_restricted", counting("round2", protocol.round2_restricted))
        monkeypatch.setattr(fusion, "tally", counting("tally", fusion.tally))
        recs = run_point_rep(point, list(SCHEMES), 0)
        supports = _round2_supports(recs)
        assert 1 < len(supports) < 5
        assert calls["round2"] == point.M * len(supports)
        # One per selection: the thresholded indices (bnm21, thresh_votes
        # and thresh_signs) and the top-L ones (top_L_votes, top_L_signs).
        assert calls["tally"] == 2
        for subset in TALLY_SUBSETS:
            calls["tally"] = 0
            run_point_rep(point, subset, 0)
            assert calls["tally"] == 1, subset

    @pytest.mark.parametrize("second_round", ["average", "gram_exact", "none"])
    def test_one_f_measure_per_distinct_support(self, small_design, monkeypatch, second_round):
        cfg, design = small_design
        cfg = cfg.with_(second_round=second_round)
        point = materialize(design, cfg)
        for rep in (0, 1):
            with _per_machine_loops(monkeypatch):
                loop = [_untimed(r) for r in run_point_rep(point, list(SCHEMES), rep)]
            scored = []

            def counting(S_hat, S):
                scored.append(S_hat.tolist())
                return f_measure(S_hat, S)

            with monkeypatch.context() as mp:
                mp.setattr(harness, "f_measure", counting)
                recs = run_point_rep(point, list(SCHEMES), rep)
            supports = [r.S_hat for r in recs]
            assert sorted(scored) == sorted(map(list, {tuple(S) for S in supports}))
            assert len(scored) < len(supports)
            assert [_untimed(r) for r in recs] == loop

    def test_round2_failure_flags_every_scheme_with_that_support(self, small_design, monkeypatch):
        cfg, design = small_design
        point = materialize(design, cfg)
        failing = run_point_rep(point, ["thresh_votes"], 0)[0].S_hat
        original = protocol.round2_restricted

        def round2(machine_id, support, beta):
            if list(support) == failing:
                raise ValueError("singular restricted design")
            return original(machine_id, support, beta)

        monkeypatch.setattr(protocol, "round2_restricted", round2)
        recs = run_point_rep(point, list(SCHEMES), 0)
        failed = {r.scheme for r in recs if r.flags.round2_failed}
        expected = {r.scheme for r in recs if r.scheme != "avg_deblasso" and r.S_hat == failing}
        assert failed == expected
        assert 2 <= len(expected) < 5
        zero_error = float(np.linalg.norm(point.theta_star))
        assert all(r.l2_error == pytest.approx(zero_error) for r in recs if r.scheme in failed)


class TestOneTallyPerSelection:
    """An unsigned vote rule beside the signed rule of its selection reads
    that rule's tally, whose votes, and so every selection the unsigned
    rule makes, are those ``fusion.tally`` gives for its own messages."""

    VOTE_RULES = ("thresh_votes", "thresh_signs", "top_L_votes", "top_L_signs")

    @pytest.mark.parametrize("M, case", [(7, "mixed"), (7, "all_empty"), (1, "mixed"), (1, "all_empty")])
    def test_unsigned_tally_equals_the_tally_of_its_messages(self, rng, M, case):
        d, tau = 25, 2.0
        empty_rows = set()
        for _ in range(20):
            xi = rng.standard_normal((M, d)) * rng.uniform(0.5, 3.0, (M, 1))
            if case == "all_empty":
                xi[:] = np.where(rng.random((M, d)) < 0.5, 0.0, xi.clip(-tau, tau))
            else:
                xi[rng.random(M) < 0.3] *= 0.1  # rows with nothing above tau
            point = SimpleNamespace(config=_config(d=d, M=M, tau=tau, L=int(rng.integers(1, d + 1))))
            selections = {}
            messages = {rule: harness._round1_messages(rule, point, None, xi, selections) for rule in self.VOTE_RULES}
            empty_rows.update(msg.payload.indices.size == 0 for msg in messages["thresh_votes"])
            tallies = harness._tallies(messages, d)
            assert set(tallies) == set(self.VOTE_RULES)
            for unsigned, signed in (("thresh_votes", "thresh_signs"), ("top_L_votes", "top_L_signs")):
                got, want = tallies[unsigned], fusion.tally(messages[unsigned], d)
                assert got is tallies[signed]
                assert got.votes.dtype == want.votes.dtype == np.int64
                assert np.array_equal(got.votes, want.votes)
                assert got.contributing_machines == want.contributing_machines == M
                assert got.votes_histogram == want.votes_histogram
                assert not (got.votes.flags.writeable or got.sign_sums.flags.writeable)
                # The unsigned rule's selections read only the votes.
                for t_votes in (0, 1, M / 2):
                    chosen = [fusion.select_vote_threshold(t, t_votes).indices for t in (got, want)]
                    assert np.array_equal(*chosen)
                for k in (1, 3):
                    assert np.array_equal(fusion.select_topk(got, k).indices, fusion.select_topk(want, k).indices)
                assert np.array_equal(fusion.select_majority(got, M).indices, fusion.select_majority(want, M).indices)
        # Both empty and nonempty threshold messages occurred, or only empty ones.
        assert empty_rows == ({True} if case == "all_empty" else {True, False})

    @pytest.mark.parametrize("second_round", ["average", "gram_exact"])
    @pytest.mark.parametrize("sparsity_mode", ["known", "unknown"])
    def test_scheme_subsets_equal_the_loop(self, small_design, monkeypatch, second_round, sparsity_mode):
        # A scheme's record is the same whether its rule tallies its own
        # messages or reads its signed rule's tally, and equals the frozen
        # loops'.
        cfg, design = small_design
        cfg = cfg.with_(second_round=second_round, sparsity_mode=sparsity_mode)
        point = materialize(design, cfg)
        for rep in (0, 1):
            with _per_machine_loops(monkeypatch):
                loop = {r.scheme: _untimed(r) for r in run_point_rep(point, list(SCHEMES), rep)}
            assert any(v["bits_round1_total"] for k, v in loop.items() if k.startswith("thresh"))
            for subset in (*TALLY_SUBSETS, list(SCHEMES)):
                recs = run_point_rep(point, subset, rep)
                assert [r.scheme for r in recs] == subset
                for r in recs:
                    assert _untimed(r) == loop[r.scheme], (subset, r.scheme)

    def test_unsigned_twins_share_the_signed_histograms(self, small_design, monkeypatch):
        # A six-scheme replication forms one votes histogram per selection:
        # each unsigned rule's tally holds its signed rule's histogram
        # object. Its records' histograms are those of the tallies of their
        # own messages.
        cfg, design = small_design
        point = materialize(design, cfg)
        kept = []
        tallies = harness._tallies

        def keeping(round1, d):
            kept.append((round1, tallies(round1, d)))
            return kept[-1][1]

        monkeypatch.setattr(harness, "_tallies", keeping)
        for rep in range(3):
            records = run_point_rep(point, list(SCHEMES), rep)
            messages, t = kept[-1]
            for unsigned, signed in (("thresh_votes", "thresh_signs"), ("top_L_votes", "top_L_signs")):
                assert t[unsigned].votes_histogram is t[signed].votes_histogram
            assert len({id(tally.votes_histogram) for tally in t.values()}) == 2
            for rec in records:
                rule = {"bnm21": "thresh_votes"}.get(rec.scheme, rec.scheme)
                want = {} if rule == "avg_deblasso" else fusion.tally(messages[rule], cfg.spec.d).votes_histogram
                assert rec.fusion_log["votes_histogram"] == want


@pytest.fixture
def factor_calls(monkeypatch):
    """The shape of every design stack round two factors, in call order."""
    calls = []
    original = harness.restricted_gram_inverse

    def counting(X_S):
        calls.append(X_S.shape)
        return original(X_S)

    monkeypatch.setattr(harness, "restricted_gram_inverse", counting)
    return calls


class TestRoundTwoFactors:
    """The average rule factors each (grid point, support) once for all machines."""

    def test_one_factorization_per_support_over_replications(self, small_design, factor_calls, monkeypatch):
        cfg, design = small_design
        point = materialize(design, cfg)
        round2_calls = [0]
        original = protocol.round2_restricted

        def counting(*args, **kwargs):
            round2_calls[0] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(protocol, "round2_restricted", counting)
        seen, requests, expected_round2 = set(), 0, 0
        for rep in range(20):
            supports = _round2_supports(run_point_rep(point, list(SCHEMES), rep))
            seen |= supports
            requests += len(supports)
            expected_round2 += point.M * len(supports)
        assert 1 < len(seen) < requests
        assert len(factor_calls) == len(seen)
        assert sorted(factor_calls) == sorted((point.M, point.n, len(S)) for S in seen)
        assert set(point.round2) == {np.array(S, dtype=np.int64).tobytes() for S in seen}
        # The benchmark's probe still sees one message per machine and support.
        assert round2_calls[0] == expected_round2

    def test_stacked_factor_rows_are_each_machines_own(self, small_design):
        cfg, design = small_design
        point = materialize(design, cfg.at("M", 7).at("n", 40))
        run_point_rep(point, list(SCHEMES), 0)
        assert point.round2
        for key, factor in point.round2.items():
            S = np.frombuffer(key, dtype=np.int64)
            assert factor.shape == (7, S.size, S.size) and not factor.flags.writeable
            for m in range(7):
                X_S = design.X[m][:40][:, S]
                assert factor[m].tobytes() == restricted_gram_inverse(X_S).tobytes()

    def test_singular_support_fails_in_every_replication(self, small_design, factor_calls):
        cfg, design = small_design
        S = design.support
        X = design.X.copy()
        X[1][:, S[1]] = X[1][:, S[0]]  # machine 1 cannot tell S[0] from S[1]
        singular_design = dataclasses.replace(design, X=X, grams=None)
        point = materialize(singular_design, cfg)
        selected_in, supports = set(), {}
        for rep in range(20):
            recs = run_point_rep(point, list(SCHEMES), rep)
            supports[rep] = [rec.S_hat for rec in recs]
            for rec in recs:
                if rec.scheme == "avg_deblasso" or not rec.S_hat:
                    continue
                singular = {int(S[0]), int(S[1])} <= set(rec.S_hat)
                assert rec.flags.round2_failed == singular
                if singular:
                    selected_in.add(rep)
        assert len(selected_in) >= 5
        failed = [v for v in point.round2.values() if isinstance(v, ValueError)]
        assert failed and len(failed) < len(point.round2)
        # Each support was factored once, the failing ones included.
        assert len(factor_calls) == len(point.round2)
        # The pooled Gram of gram_exact is not singular there: a gram_exact
        # point of the same design selects the same supports and fails in
        # none of those replications.
        gram_point = materialize(singular_design, cfg.with_(second_round="gram_exact"))
        for rep in selected_in:
            recs = run_point_rep(gram_point, list(SCHEMES), rep)
            assert [rec.S_hat for rec in recs] == supports[rep]
            assert not any(rec.flags.round2_failed for rec in recs)

    def test_every_point_starts_cold(self, small_design, factor_calls):
        cfg, design = small_design
        point = materialize(design, cfg)
        run_point_rep(point, ["thresh_votes"], 0)
        assert point.round2
        assert materialize(design, cfg).round2 == {}
        factor_calls.clear()
        run_sweep(cfg, "r", [cfg.spec.r], schemes=list(SCHEMES), design=design)
        once = len(factor_calls)
        run_sweep(cfg, "r", [cfg.spec.r], schemes=list(SCHEMES), design=design)
        assert once > 0 and len(factor_calls) == 2 * once

    def test_redraw_mode_factors_every_replication(self, factor_calls):
        cfg = _config(d=30, M=4, n=25, reps=3, fixed_design=False)
        res = run_sweep(cfg, "r", [cfg.spec.r], schemes=list(SCHEMES))
        per_rep = {}
        for rec in res.records:
            if rec["scheme"] != "avg_deblasso" and rec["S_hat"]:
                per_rep.setdefault(rec["rep"], set()).add(tuple(rec["S_hat"]))
        assert len(factor_calls) == sum(len(v) for v in per_rep.values()) >= 3

    def test_gram_exact_factors_nothing(self, small_design, factor_calls):
        cfg, design = small_design
        cfg = cfg.with_(second_round="gram_exact")
        point = materialize(design, cfg)
        recs = run_point_rep(point, list(SCHEMES), 0)
        assert _round2_supports(recs) and not factor_calls
        # The one cache holds X_S'X_S instead (TestRoundTwoGrams).
        supports = _round2_supports(recs)
        assert set(point.round2) == {np.array(S, dtype=np.int64).tobytes() for S in supports}


class TestOracleGram:
    """The oracle's pooled Gram is the machine-order sum of the stacked
    Grams X_S'X_S that ``gram_exact`` round two sends on the true support."""

    @pytest.mark.parametrize("n, M", [(None, None), (30, None), (None, 5), (30, 1)])
    def test_equals_the_per_machine_loop_and_the_gram_exact_operand(self, small_design, n, M):
        cfg, design = small_design
        cfg = cfg.with_(second_round="gram_exact")
        point = materialize(design, _at(cfg, n=n, M=M))
        assert (point.n < design.n_cal) == (n is not None) and (point.M < design.spec.M) == (M is not None)
        assert _same_bits(point.oracle_gram, loop_oracle_gram(point))
        operand = harness._round2_operand(point, design.support)
        assert operand.shape == (point.M, cfg.spec.K, cfg.spec.K)
        assert _same_bits(point.oracle_gram, fusion.sum_rows(operand))


class TestCertifiedRoundTwoFactors:
    """Round two's certified Cholesky factors change no record but in the
    last bits of l2_error."""

    @pytest.mark.parametrize("fixed_design", [True, False])
    @pytest.mark.parametrize("lam", ["fixed_8", 0.3])
    def test_records_equal_those_of_the_svd_factor(self, monkeypatch, factor_calls, fixed_design, lam):
        cfg = _config(d=40, K=3, M=6, n=30, reps=4, lam=lam, fixed_design=fixed_design)
        records = run_sweep(cfg, "r", [cfg.spec.r], schemes=list(SCHEMES)).records
        assert factor_calls
        monkeypatch.setattr(harness, "restricted_gram_inverse", svd_gram_inverse)
        expected = run_sweep(cfg, "r", [cfg.spec.r], schemes=list(SCHEMES)).records
        assert len(records) == len(expected) == 4 * len(SCHEMES)
        untimed = lambda r: {k: v for k, v in r.items() if k not in TIMING_FIELDS + ("l2_error",)}
        for got, want in zip(records, expected):
            assert untimed(got) == untimed(want)
            assert abs(got["l2_error"] - want["l2_error"]) <= 1e-12 * want["l2_error"]
        assert any(r["bits_round2_total"] and not r["flags"]["round2_failed"] for r in records)


class TestRoundTwoGrams:
    """gram_exact forms each (grid point, support) X_S'X_S once for all machines."""

    CFG = dict(second_round="gram_exact")

    def test_stacked_gram_rows_are_each_machines_own(self, small_design):
        cfg, design = small_design
        cfg = cfg.with_(**self.CFG)
        point = materialize(design, cfg.at("M", 7).at("n", 40))
        recs = run_point_rep(point, list(SCHEMES), 0)
        supports = _round2_supports(recs)
        assert set(point.round2) == {np.array(S, dtype=np.int64).tobytes() for S in supports}
        for key, gram in point.round2.items():
            S = np.frombuffer(key, dtype=np.int64)
            assert gram.shape == (7, S.size, S.size) and not gram.flags.writeable
            for m in range(7):
                X_S = design.X[m][:40][:, S]
                assert _same_bits(gram[m], X_S.T @ X_S)

    def test_records_equal_with_cold_and_warm_cache(self, small_design):
        cfg, design = small_design
        cfg = cfg.with_(**self.CFG)
        warm = materialize(design, cfg)
        for rep in range(6):
            run_point_rep(warm, list(SCHEMES), rep)
        seen = len(warm.round2)
        assert seen > 1
        for rep in range(6):
            cold = materialize(design, cfg)
            assert cold.round2 == {}
            expected = [_untimed(r) for r in run_point_rep(cold, list(SCHEMES), rep)]
            assert [_untimed(r) for r in run_point_rep(warm, list(SCHEMES), rep)] == expected
        assert len(warm.round2) == seen

    def test_one_message_per_machine_and_support(self, small_design, monkeypatch):
        cfg, design = small_design
        cfg = cfg.with_(**self.CFG)
        point = materialize(design, cfg)
        calls = []
        original = protocol.round2_gram

        def counting(machine_id, *args, **kwargs):
            calls.append(machine_id)
            return original(machine_id, *args, **kwargs)

        monkeypatch.setattr(protocol, "round2_gram", counting)
        supports = 0
        for rep in range(4):
            supports += len(_round2_supports(run_point_rep(point, list(SCHEMES), rep)))
        assert calls == list(range(point.M)) * supports


class TestStackedMessages:
    """Each replication selects and solves once for all machines; every
    record equals the per-machine loop's bit for bit."""

    @staticmethod
    def _loop_records(monkeypatch, cfg, axis, grid):
        with _per_machine_loops(monkeypatch):
            return run_sweep(cfg, axis, grid, schemes=list(SCHEMES)).records

    @pytest.mark.parametrize("second_round", ["average", "gram_exact"])
    @pytest.mark.parametrize(
        "axis, grid, kw",
        [
            ("r", [0.3, 0.8], {}),
            ("n", [20, 30], {}),
            ("M", [2, 5], {"sparsity_mode": "unknown"}),
            ("L", [3, 6], {"sparsity_mode": "unknown"}),
            ("L", [3, 5], {"lam": 0.1}),
            ("n", [20, 30], {"lam": 0.1, "precision_reuse": False}),
            ("r", [0.8], {"fixed_design": False}),
        ],
    )
    def test_sweep_records_equal_the_per_machine_loop(self, monkeypatch, second_round, axis, grid, kw):
        cfg = _config(d=40, K=3, M=5, n=30, reps=2, second_round=second_round, **kw)
        records = run_sweep(cfg, axis, grid, schemes=list(SCHEMES)).records
        expected = self._loop_records(monkeypatch, cfg, axis, grid)
        strip = lambda recs: [{k: v for k, v in r.items() if k not in TIMING_FIELDS} for r in recs]
        assert strip(records) == strip(expected)
        assert any(r["bits_round2_total"] for r in records)
        if "lam" in kw:
            assert max(r["flags"]["max_sweeps"] for r in records) > 1  # nonzero fits

    @pytest.mark.parametrize("second_round", ["average", "gram_exact"])
    def test_round_two_rows_are_each_machines_own(self, small_design, monkeypatch, second_round):
        cfg, design = small_design
        cfg = cfg.with_(second_round=second_round)
        point = materialize(design, cfg.at("M", 7).at("n", 40))
        name = "round2_gram" if second_round == "gram_exact" else "round2_restricted"
        sent = []
        original = getattr(protocol, name)

        def capture(machine_id, support, *payload):
            sent.append((machine_id, support, payload))
            return original(machine_id, support, *payload)

        monkeypatch.setattr(protocol, name, capture)
        fits = []
        fit = harness.fit_lasso
        monkeypatch.setattr(harness, "fit_lasso", lambda *a, **kw: fits.append(fit(*a, **kw)) or fits[-1])
        run_point_rep(point, list(SCHEMES), 0)
        xtys = loop_xty(point, 0)
        assert len(sent) >= 2 * point.M
        for m, S, payload in sent:
            xty_S = xtys[m][S]
            # The machine's X_S'y is column S of the X'y its fit formed.
            assert _same_bits(fits[0].xty[m, S], xty_S)
            operand = point.round2[S.tobytes()][m]
            if second_round == "gram_exact":
                gram, xty = payload
                assert _same_bits(gram, operand)
                assert _same_bits(xty, xty_S)
            else:
                (beta,) = payload
                assert _same_bits(beta, operand @ xty_S)

    def test_selections_are_shared_and_read_only(self, small_design, monkeypatch):
        cfg, design = small_design
        point = materialize(design, cfg)
        calls = []
        for name in ("select_threshold", "select_top_k", "selected_signs"):
            original = getattr(protocol, name)
            monkeypatch.setattr(
                protocol, name, lambda a, *r, _f=original, _n=name: calls.append((_n, len(a))) or _f(a, *r)
            )
        run_point_rep(point, list(SCHEMES), 0)
        # One stacked call per selection for all machines; the fusion
        # center's top-K selections take their own 1-D path.
        assert sorted(calls) == [(name, point.M) for name in ("select_threshold", "select_top_k", "selected_signs")]
        monkeypatch.undo()
        _, theta_hat, xi, *_ = _rep_fits(point, 0)
        selections = {}
        payloads = {
            rule: [msg.payload for msg in harness._round1_messages(rule, point, theta_hat, xi, selections)]
            for rule in ("thresh_votes", "thresh_signs", "top_L_votes", "top_L_signs")
        }
        # The paired rules send views of one stacked selection.
        for a, b in (("thresh_votes", "thresh_signs"), ("top_L_votes", "top_L_signs")):
            for p, q in zip(payloads[a], payloads[b]):
                assert np.array_equal(p.indices, q.indices)
                assert p.indices.size == 0 or np.shares_memory(p.indices, q.indices)
        sent = [p.indices for ps in payloads.values() for p in ps]
        sent += [p.signs for rule in ("thresh_signs", "top_L_signs") for p in payloads[rule]]
        assert all(not a.flags.writeable for a in sent)


class _TouchedArray(np.ndarray):
    """A view of a design that records every index into it and every NumPy
    operation taking it, products included."""

    def __array_finalize__(self, obj):
        self.touched = getattr(obj, "touched", None)

    def __getitem__(self, key):
        self.touched.append("index")
        return super().__getitem__(key)

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        self.touched.append(ufunc.__name__)
        inputs = [x.view(np.ndarray) if isinstance(x, _TouchedArray) else x for x in inputs]
        return getattr(ufunc, method)(*inputs, **kwargs)

    def __array_function__(self, func, types, args, kwargs):
        self.touched.append(func.__name__)
        return super().__array_function__(func, types, args, kwargs)


class TestRoundTwoReadsTheFitsXty:
    """Round two and the oracle read every X_S'y off the replication's X'y,
    the product its lasso fits formed (``LassoFit.xty``)."""

    @pytest.mark.parametrize("lam", ["fixed_8", 0.3])
    @pytest.mark.parametrize("n", [None, 30], ids=["n_cal", "below_n_cal"])
    def test_exact_support_gram_records_equal_the_oracle(self, lam, n):
        # Pooled least squares on S from the machines' Gram summaries is the
        # oracle's estimate: the same sums in the same order, bit for bit.
        # A strong signal makes exact supports common at the default lambda.
        cfg = _config(d=30, K=2, n=60, r=1.0, second_round="gram_exact", lam=lam)
        design = build_design(cfg)
        point = materialize(design, _at(cfg, n=n))
        exact = 0
        for rep in range(6):
            for rec in run_point_rep(point, list(SCHEMES), rep):
                if rec.scheme != "avg_deblasso" and rec.S_hat == design.support.tolist():
                    exact += 1
                    assert rec.l2_error == rec.l2_error_oracle, (rep, rec.scheme)
        assert exact >= 6

    @pytest.mark.parametrize("second_round", ["average", "gram_exact"])
    def test_known_supports_and_the_oracle_touch_no_design(self, small_design, monkeypatch, second_round):
        cfg, design = small_design
        cfg = cfg.with_(second_round=second_round)
        point = materialize(design, cfg.at("n", 40))
        log = []

        def spying(fn, new_operand):
            def spied(*args):
                kept = point.design
                touched = []
                X = kept.X.view(_TouchedArray)
                X.touched = touched
                point.design = dataclasses.replace(kept, X=X)
                try:
                    new = new_operand(*args)
                    out = fn(*args)
                finally:
                    point.design = kept
                log.append((fn.__name__, new, bool(touched)))
                return out

            return spied

        monkeypatch.setattr(
            harness,
            "_second_round",
            spying(harness._second_round, lambda p, xty, S: S.tobytes() not in p.round2),
        )
        monkeypatch.setattr(harness, "_oracle_error", spying(harness._oracle_error, lambda p, xty: False))
        for rep in range(8):
            run_point_rep(point, list(SCHEMES), rep)
        rounds = [(new, touched) for name, new, touched in log if name == "_second_round"]
        assert sum(new for new, _ in rounds) == len(point.round2) < len(rounds)
        # A support's first replication gathers its designs; no later one does.
        assert all(new == touched for new, touched in rounds)
        assert [entry for entry in log if entry[0] == "_oracle_error"] == [("_oracle_error", False, False)] * 8


class TestRunSweep:
    def test_record_keys_in_order(self, small_design, tmp_path):
        # records.jsonl writes each record's fields in their declaration
        # order, the flags last but the fusion log, then the grid value.
        cfg, design = small_design
        run_sweep(cfg.with_(reps=1), "r", [0.8], ["thresh_votes"], out_dir=tmp_path, design=design)
        rec = json.loads((tmp_path / "records.jsonl").read_text().splitlines()[0])
        assert list(rec) == [
            "rep", "scheme", "S_hat", "f_measure", "precision", "recall", "l2_error",
            "l2_error_oracle", "bits_round1_per_machine", "bits_round1_total", "bits_round2_total",
            "lam", "wall_time", "shared_time", "flags", "fusion_log", "axis", "value",
        ]
        assert list(rec["flags"]) == ["empty_support", "nonconverged_fits", "max_sweeps", "max_kkt", "round2_failed"]

    @pytest.mark.parametrize(
        "spec_kw, axis, grid, python_grid",
        [
            ({"K": np.int64(2)}, "n", [20, 30], [20, 30]),
            ({}, "n", np.array([20, 30]), [20, 30]),
            ({}, "M", np.arange(2, 4), [2, 3]),
            ({}, "r", np.array([0.5, 1.0], dtype=np.float32), [0.5, 1.0]),
        ],
        ids=["int64_K", "n_grid_array", "M_grid_arange", "r_grid_float32"],
    )
    def test_numpy_inputs_write_the_records_of_python_inputs(self, tmp_path, spec_kw, axis, grid, python_grid):
        # NumPy scalars reach the records as the fusion log's K and as the
        # grid value; each is written as the Python number it holds.
        def written(kw, values, out):
            spec = ProblemSpec(**{**dict(d=40, K=2, M=3, n=30, r=0.8, base_seed=1), **kw})
            run_sweep(ExperimentConfig(spec, lam=0.5, reps=2), axis, values, ["thresh_votes", "top_L_votes"], tmp_path / out)
            lines = (tmp_path / out / "records.jsonl").read_text().splitlines()
            records = [{k: v for k, v in json.loads(line).items() if k not in TIMING_FIELDS} for line in lines]
            return records, (tmp_path / out / "summary.csv").read_text()

        assert written(spec_kw, grid, "numpy") == written({}, python_grid, "python")

    def test_single_point_equals_replication_aggregate(self, small_design):
        cfg, design = small_design
        res = run_sweep(cfg, "r", [cfg.spec.r], ["thresh_votes"], design=design)
        assert len(res.rows) == 1
        row = res.rows[0]
        point = materialize(design, cfg)
        recs = [run_point_rep(point, ["thresh_votes"], rep)[0] for rep in range(cfg.reps)]
        assert row["f_mean"] == pytest.approx(np.mean([r.f_measure for r in recs]))
        assert row["l2_mean"] == pytest.approx(np.mean([r.l2_error for r in recs]))
        assert row["reps"] == cfg.reps

    def test_csv_columns_and_jsonl(self, small_design, tmp_path):
        cfg, design = small_design
        res = run_sweep(cfg, "r", [0.4, 0.8], schemes=["thresh_votes", "bnm21"], out_dir=tmp_path, design=design)
        header = (tmp_path / "summary.csv").read_text().splitlines()[0]
        assert header == "axis,value,scheme,f_mean,f_se,l2_mean,l2_se,oracle_l2_mean,bits_r1_mean,bits_r2_mean,reps"
        lines = (tmp_path / "records.jsonl").read_text().splitlines()
        assert len(lines) == 2 * 2 * cfg.reps
        rec = json.loads(lines[0])
        assert rec["axis"] == "r" and rec["scheme"] in ("thresh_votes", "bnm21")

    def test_deterministic_rows(self, small_design):
        cfg, design = small_design
        a = run_sweep(cfg, "r", [0.6], ["thresh_votes"], design=design).rows
        b = run_sweep(cfg, "r", [0.6], ["thresh_votes"], design=design).rows
        assert a == b

    def test_L_axis(self, small_design):
        cfg, design = small_design
        res = run_sweep(cfg, "L", [3, 6], ["top_L_signs"], design=design)
        assert [row["value"] for row in res.rows] == [3, 6]
        # larger L, more bits
        bits = [row["bits_r1_mean"] for row in res.rows]
        assert bits[1] > bits[0]

    def test_oracle_dominance(self, small_design):
        cfg, design = small_design
        res = run_sweep(cfg, "r", [0.5, 0.9], ["thresh_votes"], design=design)
        for row in res.rows:
            se = row["l2_se"] if not math.isnan(row["l2_se"]) else 0.0
            assert row["l2_mean"] >= row["oracle_l2_mean"] - 2 * se

    def test_m_axis_uses_prefix_machines(self, small_design):
        cfg, _ = small_design
        res = run_sweep(cfg.with_(reps=2), "M", [4, 12], ["thresh_votes"])
        assert [row["value"] for row in res.rows] == [4, 12]

    def test_n_axis_with_precision_reuse(self):
        cfg = _config(n=40, reps=2)
        res = run_sweep(cfg, "n", [20, 40], ["thresh_votes"])
        assert len(res.rows) == 2

    def test_n_axis_without_precision_reuse(self):
        cfg = _config(n=40, reps=2, precision_reuse=False)
        res = run_sweep(cfg, "n", [20, 40], ["thresh_votes"])
        assert len(res.rows) == 2

    @pytest.mark.parametrize("axis, grid", [("r", [0.8]), ("n", [30, 50])])
    def test_records_carry_solver_certificates(self, axis, grid):
        # A small explicit lambda keeps the replication fits nonzero; the n
        # sweep also runs them below n_cal.
        cfg = _config(M=4, reps=2, lam=0.1)
        res = run_sweep(cfg, axis, grid, ["thresh_votes"])
        for rec in res.records:
            flags = rec["flags"]
            assert 0.0 <= flags["max_kkt"] <= 1e-7
            assert flags["max_sweeps"] >= 2
            assert flags["nonconverged_fits"] == 0

    def test_bad_axis_rejected(self, small_design):
        cfg, _ = small_design
        with pytest.raises(ValueError):
            run_sweep(cfg, "sigma", [1.0], ["thresh_votes"])
        with pytest.raises(ValueError):
            run_sweep(cfg, "r", [], ["thresh_votes"])

    @pytest.mark.parametrize(
        "axis, grid, message",
        [("r", [0.5, 1.5], "r must lie"), ("r", [0.0], "r must lie"),
         ("n", [0], "must be positive"), ("M", [-1], "must be positive"), ("L", [0], "L must lie")],
    )
    def test_bad_grid_values_rejected(self, small_design, axis, grid, message):
        # Every grid value is checked as the problem flags are, before any work.
        cfg, design = small_design
        with pytest.raises(ValueError, match=message):
            run_sweep(cfg, axis, grid, ["thresh_votes"], design=design)
        with pytest.raises(ValueError, match=message):
            materialize(design, cfg.at(axis, grid[-1]))

    @pytest.mark.parametrize("schemes", [["top_L_votes"], ["thresh_votes", "top_L_signs"]])
    def test_L_below_K_rejected_for_top_L_under_known_sparsity(self, small_design, schemes):
        # The same rule as the configured L's: no L grid value below K.
        cfg, design = small_design
        with pytest.raises(ValueError, match="top-L schemes need L >= K under known sparsity"):
            run_sweep(cfg, "L", [cfg.spec.K, cfg.spec.K - 1], schemes=schemes, design=design)

    @pytest.mark.parametrize(
        "L, message",
        [
            (1, "top-L schemes need L >= K under known sparsity"),
            (0, "L must lie in"),
            (500, "L must lie in"),
        ],
    )
    @pytest.mark.parametrize("axis, grid", [("r", [0.8]), ("n", [30, 50]), ("M", [6])])
    def test_L_of_a_later_top_L_scheme_checked(self, small_design, L, message, axis, grid):
        # The config refuses an L outside [1, d] whatever the schemes; an L
        # below K passes it, and the top-L scheme listed second must not run
        # with it.
        cfg, design = small_design
        if L in (0, 500):
            with pytest.raises(ValueError, match=message):
                cfg.with_(L=L)
            return
        cfg = cfg.with_(L=L)
        schemes = ["thresh_votes", "top_L_votes"]
        with pytest.raises(ValueError, match=message):
            check_grid(cfg, axis, grid, schemes)
        with pytest.raises(ValueError, match=message):
            run_sweep(cfg, axis, grid, schemes=schemes, design=design)
        check_grid(cfg, axis, grid, ["thresh_votes", "bnm21"])

    def test_point_L_resolves_once(self, small_design):
        # Every point's config gives the L its top-L schemes use: the L grid
        # value, else the configured L, else K.
        cfg, design = small_design
        assert materialize(design, cfg).config.resolved_L() == cfg.spec.K
        assert materialize(design, cfg.with_(L=7)).config.resolved_L() == 7
        assert materialize(design, cfg.with_(L=7).at("L", 9)).config.resolved_L() == 9

    @pytest.mark.parametrize("bad", [0, 61, 2.5, True, -3])
    def test_materialize_checks_a_given_L(self, small_design, bad, monkeypatch):
        # A given L is held to an integer in [1, d] by the config, so before
        # materialize does any work; it used to fail only later, inside
        # protocol.select_top_k.
        cfg, design = small_design
        assert cfg.spec.d == 60
        monkeypatch.setattr(harness, "gram_diagonal", lambda X: pytest.fail("materialize did work"))
        with pytest.raises(ValueError, match="L must"):
            materialize(design, cfg.with_(L=bad))

    def test_materialize_leaves_L_below_K_to_check_grid(self, small_design):
        # Only check_grid knows the schemes, so only it holds a top-L
        # scheme's L to at least K under known sparsity.
        cfg, design = small_design
        assert materialize(design, cfg.at("L", 1)).config.resolved_L() == 1
        with pytest.raises(ValueError, match="L >= K"):
            check_grid(cfg, "L", [1], ["top_L_votes"])

    @pytest.mark.parametrize("axis, grid", [("n", [True, 30]), ("M", [True, 3]), ("L", [True]), ("L", [3, False])])
    def test_bool_grid_values_rejected(self, small_design, axis, grid):
        # A bool is not a size: ProblemSpec and the config refuse it, and a
        # grid value is never converted to get past them.
        cfg, design = small_design
        with pytest.raises(ValueError, match=f"{axis} must be an integer"):
            check_grid(cfg, axis, grid, ["thresh_votes"])
        with pytest.raises(ValueError, match=f"{axis} must be an integer"):
            run_sweep(cfg, axis, grid, ["thresh_votes"], design=design)
        with pytest.raises(ValueError, match=f"{axis} must be an integer"):
            run_sweep(cfg.with_(fixed_design=False, reps=1), axis, grid, ["thresh_votes"])

    def test_grid_value_config(self, small_design):
        # r, n and M go into the spec, L and lam into the config; whole
        # floats become ints.
        cfg, _ = small_design
        assert cfg.at("r", 0.5).spec == cfg.spec.with_(r=0.5)
        n = cfg.at("n", 30.0).spec.n
        assert n == 30 and type(n) is int
        assert cfg.at("M", np.float64(4.0)).spec == cfg.spec.with_(M=4)
        assert cfg.at("L", 7.0) == cfg.with_(L=7) and type(cfg.at("L", 7.0).L) is int
        assert cfg.at("lam", "fixed_8") == cfg and cfg.at("lam", 0.5) == cfg.with_(lam=0.5)
        with pytest.raises(ValueError, match="sweep_axis must be one of"):
            cfg.at("sigma", 1.0)

    @pytest.mark.parametrize(
        "field, value", [("d", 30), ("K", 3), ("base_seed", 7), ("corr_decay", 0.3), ("lam_omega", 0.5)]
    )
    def test_design_of_another_problem_refused(self, field, value, monkeypatch):
        # The design's draws, signal and precision estimates belong to its
        # own problem: a config of another one is refused before any work,
        # by materialize and by run_sweep given the design, naming the field.
        spec = ProblemSpec(d=20, K=2, M=3, n=30, r=0.8, base_seed=1)
        config = ExperimentConfig(spec=spec, reps=1)
        design = build_design(config)
        if field == "lam_omega":
            other = config.with_(lam_omega=value)
        else:
            other = config.with_(spec=spec.with_(**{field: value}))
        monkeypatch.setattr(harness, "gram_diagonal", lambda X: pytest.fail("materialize did work"))
        with pytest.raises(ValueError, match=f"config's {field} "):
            materialize(design, other)
        with pytest.raises(ValueError, match=f"config's {field} "):
            run_sweep(other, "r", [0.8], ["thresh_votes"], design=design)

    def test_point_reads_r_and_sigma_from_the_config(self):
        # A design does not depend on r or sigma, so a config of the same
        # problem at another r is a valid grid point of it, at its own r.
        spec = ProblemSpec(d=20, K=2, M=3, n=30, r=0.5, base_seed=1)
        design = build_design(ExperimentConfig(spec=spec, reps=1))
        point = materialize(design, ExperimentConfig(spec=spec.with_(r=0.9), reps=1))
        assert point.config.spec.sigma_value() == 1 / math.sqrt(0.9)
        with pytest.raises(ValueError, match="config's base_seed 7 is not the design's 1"):
            materialize(design, ExperimentConfig(spec=spec.with_(r=0.9, base_seed=7), reps=1))

    @pytest.mark.parametrize("axis, value", [("n", 51), ("M", 13)])
    def test_point_beyond_the_calibrated_design_refused(self, small_design, axis, value):
        cfg, design = small_design
        with pytest.raises(ValueError, match=f"grid point {axis} = {value} exceeds the calibrated design"):
            materialize(design, cfg.at(axis, value))
        with pytest.raises(ValueError, match=f"grid point {axis} = {value} exceeds the calibrated design"):
            run_sweep(cfg, axis, [value], ["thresh_votes"], design=design)

    def test_L_below_K_allowed_under_unknown_sparsity(self, small_design):
        cfg, design = small_design
        cfg = cfg.with_(sparsity_mode="unknown", reps=1)
        res = run_sweep(cfg, "L", [1], schemes=["top_L_votes"], design=design)
        assert res.rows[0]["value"] == 1

    def test_whole_float_L_grid_values_run(self, small_design):
        cfg, design = small_design
        res = run_sweep(cfg.with_(reps=1), "L", [3.0, 4.0], schemes=["top_L_votes"], design=design)
        assert [len(rec["S_hat"]) for rec in res.records] == [3, 3]

    def test_whole_float_n_grid_values_run(self, small_design):
        # ProblemSpec takes only integer sizes, so a whole float n reaches
        # it as an int: the records are those of the int grid.
        cfg, design = small_design
        cfg = cfg.with_(reps=2)
        floats = run_sweep(cfg, "n", [30.0, 50.0], schemes=list(SCHEMES), design=design).records
        ints = run_sweep(cfg, "n", [30, 50], schemes=list(SCHEMES), design=design).records
        assert [rec["value"] for rec in floats] == [30.0] * 12 + [50.0] * 12
        untimed = lambda r: {k: v for k, v in r.items() if k not in TIMING_FIELDS + ("value",)}
        assert [untimed(r) for r in floats] == [untimed(r) for r in ints]

    @pytest.mark.parametrize("axis, grid", [("n", [20.7, 30]), ("M", [1.5, 2]), ("L", [3, 4.5])])
    def test_fractional_integer_axis_values_rejected(self, small_design, axis, grid):
        cfg, design = small_design
        with pytest.raises(ValueError, match=f"{axis} grid values must be whole numbers"):
            run_sweep(cfg, axis, grid, ["top_L_votes"], design=design)

    def test_redraw_design_mode(self):
        cfg = _config(d=30, M=4, n=25, reps=2, fixed_design=False)
        res = run_sweep(cfg, "r", [0.8], ["thresh_votes"])
        assert res.rows[0]["reps"] == 2

    def test_redraw_records_equal_standalone_replications(self):
        cfg = _config(d=30, M=4, n=25, reps=3, fixed_design=False)
        res = run_sweep(cfg, "r", [cfg.spec.r], ["thresh_votes"])
        assert [rec["rep"] for rec in res.records] == [0, 1, 2]
        for rec in res.records:
            r = rec["rep"]
            alone = run_point_rep(materialize(build_design(cfg, rep=r), cfg), ["thresh_votes"], r)[0].to_dict()
            for key, value in alone.items():
                if key not in TIMING_FIELDS:
                    assert rec[key] == value, key


class TestRoundOnePaths:
    def test_warm_and_cold_column_stores_and_local_fit_agree(self, small_design):
        # A replication whose machines read Gram columns an earlier
        # replication formed gives the local fit of a point whose stores
        # start empty, on the design's stored precision rows.
        cfg, design = small_design
        cfg = cfg.with_(lam=0.1)
        point = materialize(design, cfg)
        _rep_fits(point, rep=0)
        assert all(store.kept for store in point.columns)
        theta_warm, _, xi_warm, conv_warm, *_, ys = _rep_fits(point, rep=1)
        theta_cold, _, xi_cold, conv_cold, *_, ys_cold = _rep_fits(materialize(design, cfg), rep=1)
        rows = estimate_precision(design.X[0], design.lam_omega).omega_hat
        assert _same_rows(_machine_rows(point, 0), rows)
        sigma = point.config.spec.sigma_value()
        assert _same_bits(point.xi_scale[0], noise_scale(sandwich_diag(rows, design.X[0]), sigma))
        assert np.array_equal(ys, ys_cold) and theta_warm.any()
        assert np.array_equal(theta_warm != 0, theta_cold != 0)
        assert np.abs(xi_warm - xi_cold).max() <= 1e-8
        assert conv_warm.all() and conv_cold.all()

    def test_below_n_cal_sandwich_matches_dense_product(self):
        # Below the calibration size the sandwich comes from the first n
        # rows, for reused and for refitted precision rows alike; the rows
        # are the design's under reuse and the first n rows' own estimate
        # otherwise.
        for reuse in (True, False):
            cfg = _config(d=50, M=3, n=40, precision_reuse=reuse)
            design = build_design(cfg)
            point = materialize(design, cfg.at("n", 25))
            for m in range(3):
                X = design.X[m][:25]
                rows = _machine_rows(point, m)
                refit = estimate_precision(X, cfg.lam_omega_at(25)).omega_hat
                assert _same_rows(rows, design.omegas[m] if reuse else refit)
                assert _same_rows(rows, design.omegas[m]) == reuse
                omega = dense_rows(rows)
                dense = np.einsum("ij,ij->i", omega @ (X.T @ X / 25), omega)
                c_diag = (point.xi_scale[m] / point.config.spec.sigma_value()) ** 2
                assert np.abs(c_diag / dense - 1.0).max() <= 1e-12


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _machine_rows(point, m):
    """Machine m's d x d precision rows, cut out of the point's
    block-diagonal ``omega``."""
    d = point.design.spec.d
    indptr = point.omega.indptr[m * d : (m + 1) * d + 1]
    lo, hi = indptr[0], indptr[-1]
    return SparseRows(indptr - lo, point.omega.indices[lo:hi] - m * d, point.omega.data[lo:hi])


def _same_rows(a, b) -> bool:
    """The same sparsity pattern and the same stored bits; the index
    arrays' dtypes may differ."""
    return (
        np.array_equal(a.indptr, b.indptr)
        and np.array_equal(a.indices, b.indices)
        and _same_bits(a.data, b.data)
    )


class TestStackedRoundOne:
    """The batched replication pass equals the per-machine loop bit for bit."""

    # A small explicit lambda keeps the lasso fits, hence the debiasing
    # residuals, nonzero.
    LAM = dict(lam=0.1)

    @staticmethod
    def _assert_matches_loop(point, reps=(0, 3)):
        for rep in reps:
            fits = _rep_fits(point, rep)
            ref_fits = loop_rep_fits(point, rep)
            names = ("theta_tilde", "theta_hat", "xi", "converged", "sweeps", "kkt", "xty", "Y")
            assert len(fits) == len(ref_fits) == len(names)
            assert fits[-1].shape == (point.M, point.n)
            for name, rows, ref_rows in zip(names, fits, ref_fits):
                assert len(rows) == len(ref_rows) == point.M
                for m in range(point.M):
                    assert _same_bits(rows[m], ref_rows[m]), (m, name)
            assert np.count_nonzero(fits[0])
            assert _oracle_error(point, fits[-2]) == loop_oracle_error(point, rep)

    def test_at_n_cal(self, small_design):
        cfg, design = small_design
        cfg = cfg.with_(**self.LAM)
        point = materialize(design, cfg)
        assert point.n == design.n_cal
        self._assert_matches_loop(point)

    @pytest.mark.parametrize("reuse", [True, False])
    def test_covariance_free_branch_below_n_cal(self, reuse):
        cfg = _config(d=50, M=4, n=40, precision_reuse=reuse, **self.LAM)
        design = build_design(cfg)
        point = materialize(design, cfg.at("n", 25))
        assert point.n < design.n_cal
        self._assert_matches_loop(point)

    @pytest.mark.parametrize("M", [3, 1])
    def test_machine_prefix(self, small_design, M):
        cfg, design = small_design
        cfg = cfg.with_(**self.LAM)
        point = materialize(design, cfg.at("M", M))
        assert point.M < design.spec.M
        self._assert_matches_loop(point)

    @pytest.mark.parametrize("n, lam", [(None, 1.3), (30, 1.8)])
    def test_zero_and_nonzero_fits_in_one_replication(self, small_design, n, lam):
        # Zero fits take X'r from the replication's X'y and store no Gram
        # column; the others read their machine's column store. Both kinds
        # must match the loop, at n_cal and below it.
        cfg, design = small_design
        cfg = cfg.with_(lam=lam)
        point = materialize(design, _at(cfg, n=n))
        assert (point.n == design.n_cal) == (n is None)
        for rep in (0, 3):
            live = _rep_fits(point, rep)[0].any(axis=1)
            assert live.any() and not live.all()
            kept = np.array([store.kept for store in point.columns])
            assert (kept[live] > 0).all()
        self._assert_matches_loop(point)

    def test_zero_fits_certified_from_the_replications_xty(self, monkeypatch):
        # Below n_cal as at it, a zero fit's certificate is read off its
        # row of the stacked X'y/n, a nonzero fit's off the
        # solver's last gradient; no fit forms X'r again, and every
        # certificate equals the from-scratch one.
        cfg = _config(M=6, lam=1.8)
        design = build_design(cfg)
        point = materialize(design, cfg.at("n", 40))
        assert point.n < design.n_cal
        calls = []

        def counting(*args):
            calls.append(args)
            return kkt_violation(*args)

        monkeypatch.setattr(lasso, "kkt_violation", counting)
        for rep in range(4):
            calls.clear()
            theta_t, _, _, converged, _, kkt, _, Y = _rep_fits(point, rep)
            live = theta_t.any(axis=1)
            assert live.any() and not live.all() and converged.all()
            assert not calls
            for m in range(point.M):
                want = kkt_violation(design.X[m][: point.n], Y[m], point.config.lam_at(), theta_t[m])
                assert kkt[m] == pytest.approx(want, rel=0.0, abs=1e-12), (rep, m)

    @pytest.mark.parametrize("n, lam", [(None, 1.3), (30, 1.8)], ids=["n_cal", "below_n_cal"])
    def test_debiasing_and_certificates_equal_their_from_scratch_values(
        self, small_design, monkeypatch, n, lam
    ):
        # Each machine's theta_hat and KKT certificate come from its solver's
        # last gradient, with no residual formed and no kkt_violation call.
        # They must equal the naive debiasing of the residual y - X theta and
        # the from-scratch certificate: bit for bit at a zero fit, whose
        # gradient is its row of X'y/n, and to roundoff at a nonzero fit,
        # whose gradient is X'y/n - G theta from the stored Gram columns.
        cfg, design = small_design
        point = materialize(design, _at(cfg, lam=lam, n=n))
        calls = []
        monkeypatch.setattr(lasso, "kkt_violation", lambda *args: calls.append(args))
        for rep in (0, 3):
            theta_t, theta_h, _, converged, _, kkt, _, Y = _rep_fits(point, rep)
            live = theta_t.any(axis=1)
            assert live.any() and not live.all() and converged.all()
            assert not calls
            for m in range(point.M):
                X = design.X[m][: point.n]
                omega = dense_rows(_machine_rows(point, m))
                want = naive_debias(X, Y[m], theta_t[m], omega)
                assert np.abs(theta_h[m] - want).max() <= 1e-12, (rep, m)
                cert = kkt_violation(X, Y[m], point.config.lam_at(), theta_t[m])
                if live[m]:
                    assert kkt[m] == pytest.approx(cert, rel=0.0, abs=1e-12), (rep, m)
                else:
                    assert kkt[m] == cert, (rep, m)

    @staticmethod
    def _assert_block_matches_machines(point, omegas, rng):
        # The block-diagonal mat-vec gives each machine's own bits.
        v = rng.standard_normal((point.M, point.design.spec.d))
        out = point.omega.matvec(v.ravel()).reshape(v.shape)
        assert len(omegas) == point.M
        for m in range(point.M):
            assert _same_rows(_machine_rows(point, m), omegas[m])
            assert _same_bits(out[m], omegas[m].matvec(v[m]))

    def test_block_diagonal_omega_at_machine_prefix(self, small_design, rng):
        cfg, design = small_design
        point = materialize(design, cfg.at("M", 5))
        assert point.M < design.spec.M
        self._assert_block_matches_machines(point, design.omegas[:5], rng)

    def test_block_diagonal_omega_below_n_cal_without_reuse(self, rng):
        cfg = _config(d=50, M=4, n=40, precision_reuse=False)
        design = build_design(cfg)
        point = materialize(design, cfg.at("n", 25))
        refits = [estimate_precision(X[:25], cfg.lam_omega_at(25)).omega_hat for X in design.X]
        assert not any(_same_rows(a, b) for a, b in zip(refits, design.omegas))
        self._assert_block_matches_machines(point, refits, rng)

    def test_oracle_sum_over_one_support_column(self):
        # With |S| = 1 a NumPy axis-0 sum over 12 machines adds pairwise;
        # the oracle must still add the machines in order.
        cfg = _config(K=1, **self.LAM)
        point = materialize(build_design(cfg), cfg)
        assert point.design.support.size == 1 and point.M >= 9
        for rep in range(4):
            xty = _rep_fits(point, rep)[-2]
            assert _oracle_error(point, xty) == loop_oracle_error(point, rep)

    @pytest.mark.parametrize("n", [None, 30])
    def test_point_gram_diagonal_rows_are_the_machines(self, small_design, n):
        # Every point holds its machines' column sums of squares over n, at
        # n_cal and below it alike.
        cfg, design = small_design
        point = materialize(design, _at(cfg, n=n, M=7))
        assert point.gram_diag.shape == (7, cfg.spec.d)
        for m in range(7):
            Xm = design.X[m][: point.n]
            assert _same_bits(point.gram_diag[m], np.einsum("ij,ij->j", Xm, Xm) / point.n)

    def test_design_is_one_stacked_array(self, small_design):
        cfg, design = small_design
        spec = cfg.spec
        assert design.X.shape == (spec.M, spec.n, spec.d) and design.X.flags.c_contiguous
        assert np.array_equal(sample_shards(spec), design.X)

    def test_aggregate_round2_equals_sequential_sum(self, rng):
        for _ in range(200):
            d = 20
            k = int(rng.integers(1, 6))
            M = int(rng.integers(1, 40))
            support = np.sort(rng.choice(d, k, replace=False))
            values = rng.standard_normal((M, k)) * 10.0 ** rng.integers(-3, 4, size=(M, 1))
            msgs = [protocol.Message(m, protocol.RestrictedEstimate(support, v)) for m, v in enumerate(values)]
            shuffled = [msgs[i] for i in rng.permutation(M)]
            assert _same_bits(fusion.aggregate_round2(shuffled, support, d), loop_aggregate(values, support, d))


class TestColumnStores:
    """Each grid point keeps one store of Gram columns per machine across its
    replications, bounded in all by ``GRAM_CACHE_BYTES``."""

    @staticmethod
    def _assert_certified(point, rep):
        # Every fit converged and its certificate, read off the gradient the
        # solver formed from stored columns, is the from-scratch one.
        theta_t, _, _, converged, _, kkt, _, Y = _rep_fits(point, rep)
        assert converged.all() and theta_t.any()
        for m in range(point.M):
            X = point.design.X[m][: point.n]
            cert = kkt_violation(X, Y[m], point.config.lam_at(), theta_t[m])
            assert cert <= 1e-7 and abs(kkt[m] - cert) <= 1e-12, (rep, m)
        return theta_t

    @pytest.mark.parametrize("n", [None, 30])
    def test_nonzero_fits_certified_and_columns_kept_across_replications(self, small_design, n):
        cfg, design = small_design
        point = materialize(design, _at(cfg, lam=0.1, n=n, M=4))
        held = []
        for rep in range(4):
            theta_t = self._assert_certified(point, rep)
            for store, row in zip(point.columns, theta_t):
                assert (store.slot[row != 0] >= 0).all()
            held.append([store.kept for store in point.columns])
        # Grow-only: a later replication keeps every column an earlier one formed.
        assert all(a <= b for a, b in zip(held, held[1:]))
        assert all(store.rows.shape == (store.kept, cfg.spec.d) for store in point.columns)

    def test_budget_bounds_a_points_columns(self, small_design, monkeypatch):
        # Room for five columns in all: the machines fit as with unbounded
        # stores in the first replication and stay certified after it.
        cfg, design = small_design
        cfg = cfg.with_(lam=0.1)
        free = materialize(design, cfg.at("M", 4))
        monkeypatch.setattr(harness, "GRAM_CACHE_BYTES", 5 * 8 * cfg.spec.d)
        point = materialize(design, cfg.at("M", 4))
        first, first_free = _rep_fits(point, 0), _rep_fits(free, 0)
        for name, a, b in zip(("theta_tilde", "theta_hat", "xi"), first, first_free):
            assert _same_bits(a, b), name
        for rep in range(1, 4):
            self._assert_certified(point, rep)
            assert sum(store.rows.nbytes for store in point.columns) == 5 * 8 * cfg.spec.d
        assert sum(store.kept for store in free.columns) > 5

    def test_zero_fits_store_nothing(self, small_design):
        cfg, design = small_design
        point = materialize(design, cfg.at("M", 4))
        for rep in range(3):
            assert not _rep_fits(point, rep)[0].any()
        assert all(store.rows.size == 0 and (store.slot == -1).all() for store in point.columns)

    def test_redraw_mode_starts_every_replication_cold(self, monkeypatch):
        cfg = _config(d=30, M=3, n=25, reps=3, fixed_design=False, lam=0.1)
        points = []
        build = harness.materialize

        def keeping(*args, **kwargs):
            points.append(build(*args, **kwargs))
            assert not any(store.kept for store in points[-1].columns)
            return points[-1]

        monkeypatch.setattr(harness, "materialize", keeping)
        records = run_sweep(cfg, "r", [cfg.spec.r], ["thresh_votes"]).records
        assert len(points) == 3 and len({id(p.columns[0]) for p in points}) == 3
        assert all(rec["flags"]["max_sweeps"] > 1 for rec in records)


class TestNoiseStates:
    """No point holds seed words: each block of replications seeds and
    draws its own noise (``datagen.fill_streams``), and every replication,
    in an aligned block or a block of one, draws ``sample_noise``."""

    @staticmethod
    def _assert_noise(point, rep):
        spec = point.config.spec
        want = point.x_theta + spec.sigma_value() * sample_noise(point.M, point.n, spec.base_seed, rep)
        assert _same_bits(_rep_fits(point, rep)[-1], want), rep

    @pytest.mark.parametrize("n", [None, 30], ids=["gram", "covariance_free"])
    def test_reps_inside_and_outside_the_points_range(self, small_design, n):
        cfg, design = small_design
        point = materialize(design, _at(cfg, n=n, M=5))
        for rep in range(cfg.reps):
            self._assert_noise(point, rep)
        # A rep past the count is a block of one.
        for rep in (cfg.reps, cfg.reps + 4, 2**32 + 1):
            self._assert_noise(point, rep)
        with pytest.raises(ValueError, match="nonnegative"):
            _rep_fits(point, -1)

    def test_redraw_mode_point_holds_no_states(self):
        cfg = _config(d=30, M=4, n=25, fixed_design=False)
        point = materialize(build_design(cfg, rep=2), cfg)
        assert not hasattr(point, "noise")
        assert point.block.Y.shape == (4, 1, 25)
        self._assert_noise(point, 2)

    def test_points_of_a_machine_sweep_hold_their_own_states(self):
        cfg = _config(d=30, M=4, n=25)
        design = build_design(cfg)
        points = [materialize(design, cfg.at("M", M)) for M in (1, 4, 2)]
        for point in points:
            assert point.block.Y.shape[0] == point.M
            for rep in range(cfg.reps):
                self._assert_noise(point, rep)

    def test_one_fit_call_per_replication(self, monkeypatch):
        cfg = _config(d=30, M=4, n=40, lam=0.1)
        point = materialize(build_design(cfg), cfg.at("n", 25))
        calls = []

        def counting(X, *args, **kwargs):
            calls.append(X.shape)
            return lasso.fit_lasso(X, *args, **kwargs)

        monkeypatch.setattr(harness, "fit_lasso", counting)
        theta_t = _rep_fits(point, 1)[0]
        assert calls == [(4, 25, 30)] and theta_t.any()


class TestScaleInvariance:
    def test_round1_payloads_invariant_under_joint_scaling(self):
        # Scaling y and sigma by the same constant (with lambda following
        # sigma) leaves every standardized vote unchanged.
        from votelasso.lasso import fit_lasso
        from votelasso.protocol import round1_thresh_votes, select_threshold

        spec = ProblemSpec(d=40, K=2, M=1, n=60, r=0.5, base_seed=8)
        X = sample_shards(spec)[0]
        truth = make_theta_star(spec, 0.6)
        y = sample_responses(X[None], truth.theta_star, 1.0, spec.base_seed)[0]
        omega = estimate_precision(X, 0.3).omega_hat
        c_diag = sandwich_diag(omega, X)

        def standardized(y, lam, sigma):
            fit = fit_lasso(X, y, lam)
            theta_hat = debias(fit.coefficients[None], fit.gradient[None], omega)[0]
            return standardize(theta_hat, noise_scale(c_diag, sigma), X.shape[0])

        lam, c = 0.4, 3.7
        xi1 = standardized(y, lam, sigma=1.0)
        xi2 = standardized(c * y, c * lam, sigma=c)
        m1 = round1_thresh_votes(0, select_threshold(xi1[None], 2.0)[0][0])
        m2 = round1_thresh_votes(0, select_threshold(xi2[None], 2.0)[0][0])
        assert np.array_equal(m1.payload.indices, m2.payload.indices)
        assert np.allclose(xi1, xi2)


class TestReplicationBlocks:
    """Every replication is a row of exactly one block: a fixed-design
    point's replications 0 to reps - 1 come in aligned blocks of
    ``REP_BLOCK``, and any other replication is a block of one. One seeding
    pass, one noise fill and one X'Y product per block."""

    # 20 replications: one full block and a tail block of 4.
    @staticmethod
    def _point(**kw):
        cfg = _config(d=30, K=2, M=4, n=25, reps=20, **kw)
        design = build_design(cfg)
        return cfg, design, materialize(design, cfg)

    def test_a_replication_alone_equals_its_sweep_record(self):
        # At the default lambda every fit is zero, so a record reads the
        # replication's X'y bits through xi, round two and the oracle, and no
        # Gram column formed by an earlier replication. A replication in
        # the middle of a block and one in the tail block, each asked for
        # first on a fresh point, get their sweep records bit for bit.
        cfg, design, _ = self._point()
        assert harness.REP_BLOCK == 16
        records = run_sweep(cfg, "r", [cfg.spec.r], list(SCHEMES), design=design).records
        assert any(r["bits_round2_total"] for r in records)
        for rep in (7, 18):
            point = materialize(design, cfg)
            alone = [_untimed(r) for r in run_point_rep(point, list(SCHEMES), rep)]
            assert point.block.start == rep - rep % 16
            swept = [_untimed_row(r) for r in records if r["rep"] == rep]
            assert alone == swept, rep
            assert all(r["flags"]["max_sweeps"] == 1 for r in swept)

    def test_full_and_tail_blocks_equal_the_per_machine_loop(self, monkeypatch):
        # The loop forms each machine's X'y from its own aligned block, cut
        # at the replication count, so a replication of the full block and
        # one of the tail block match it bit for bit, with nonzero fits.
        # Each block draws its own replications' noise once.
        cfg, _, point = self._point(lam=0.1)
        drawn = []
        fill = harness.fill_streams
        monkeypatch.setattr(harness, "fill_streams", lambda out, *a: drawn.append(list(a[-1])) or fill(out, *a))
        TestStackedRoundOne._assert_matches_loop(point, reps=(5, 17))
        assert point.block.start == 16 and drawn == [list(range(16)), list(range(16, 20))]

    def test_one_seeding_pass_per_block(self, monkeypatch):
        from votelasso import datagen

        cfg, _, point = self._point()
        seeded = []
        states = datagen._stream_states
        monkeypatch.setattr(datagen, "_stream_states", lambda *a: seeded.append(list(a[2])) or states(*a))
        run_point_rep(point, ["thresh_votes"], 0)
        for rep in range(cfg.reps):
            _rep_fits(point, rep)
        assert seeded == [list(range(16)), list(range(16, 20))]

    def test_blocked_xty_within_the_dot_product_bound(self):
        # Each entry of X'y is a length-n dot product; two evaluations of it
        # differ by at most n eps (|X_m|'|y|), twice the first-order error
        # bound of either (Higham 2002, section 3.1).
        _, design, point = self._point()
        n = point.n
        eps = np.finfo(np.float64).eps
        for rep in (0, 7, 15, 16, 19):
            *_, xty, Y = _rep_fits(point, rep)
            for m in range(point.M):
                X = design.X[m][:n]
                bound = n * eps * (np.abs(X).T @ np.abs(Y[m]))
                assert (np.abs(xty[m] - Y[m] @ X) <= bound).all(), (rep, m)

    def test_every_fit_of_a_block_converges_with_one_kernel_call(self, monkeypatch):
        cfg, design, point = self._point(lam=0.3)
        calls = []
        kernel = _kernels.cd_residual

        def counting(*args):
            calls.append(1)
            return kernel(*args)

        monkeypatch.setattr(_kernels, "cd_residual", counting)
        blocks = set()
        for rep in range(cfg.reps):
            calls.clear()
            theta_t, _, _, converged, _, kkt, _, Y = _rep_fits(point, rep)
            blocks.add((point.block.start, id(point.block.Y), id(point.block.XY)))
            assert len(calls) == point.M, rep
            assert converged.all() and kkt.max() <= lasso.KKT_TOL and theta_t.any(), rep
            for m in range(point.M):
                cert = kkt_violation(design.X[m][: point.n], Y[m], point.config.lam_at(), theta_t[m])
                assert cert <= lasso.KKT_TOL, (rep, m)
        # Two blocks, both in the buffers the first one allocated.
        assert len(blocks) == 2 and len({(y, xy) for _, y, xy in blocks}) == 1
        assert point.block.Y.shape == (point.M, 16, point.n)

    def test_redraw_mode_and_reps_past_the_count_are_blocks_of_one(self, monkeypatch):
        # Every fit is handed its block's (M, d) X'y. Inside the aligned
        # blocks that is a row of the block's product; outside them each row
        # has the bits of y @ X_m, and the block of one takes the buffers.
        given = []
        fit = harness.fit_lasso
        monkeypatch.setattr(harness, "fit_lasso", lambda *a, **kw: given.append(kw["xty"]) or fit(*a, **kw))
        redraw_cfg = _config(d=30, K=2, M=4, n=25, reps=20, fixed_design=False)
        redraw = materialize(build_design(redraw_cfg, rep=5), redraw_cfg)
        cfg, _, point = self._point()
        assert redraw.block.Y.shape[1] == 1 and point.block.Y.shape[1] == 16
        for p, rep in ((redraw, 5), (point, 3), (point, 20), (point, 2**32 + 1), (point, 17)):
            *_, xty, Y = _rep_fits(p, rep)
            assert given[-1] is xty and xty.shape == (p.M, p.design.spec.d), rep
            start = rep - rep % 16 if p is point and rep < cfg.reps else rep
            assert p.block.start == start, rep
            if start == rep:
                X = p.design.X[: p.M, : p.n]
                assert all(_same_bits(xty[m], Y[m] @ X[m]) for m in range(p.M)), rep
        assert len(given) == 5


class TestLambdaAxis:
    """lam is a sweep axis: every value is its own grid point on one design."""

    def test_sweep_records_equal_single_value_runs(self):
        cfg = _config(d=30, K=2, M=4, n=25, reps=2)
        design = build_design(cfg)
        grid = [0.3, 0.6, "fixed_8"]
        records = run_sweep(cfg, "lam", grid, ["thresh_votes", "top_L_votes"], design=design).records
        for value in grid:
            alone = run_sweep(cfg.with_(lam=value), "r", [cfg.spec.r], ["thresh_votes", "top_L_votes"], design=design)
            swept = [_untimed_row(r) for r in records if r["value"] == value]
            assert swept == [_untimed_row(r) for r in alone.records], value
        assert [r["lam"] for r in records[:4]] == [0.3] * 4
        assert max(r["flags"]["max_sweeps"] for r in records if r["value"] == 0.3) > 1

    def test_each_value_gets_fresh_column_stores_and_the_designs_lam_omega(self, monkeypatch):
        cfg = _config(d=30, K=2, M=4, n=25, reps=2, lam_omega=0.4)
        points = []
        build = harness.materialize
        monkeypatch.setattr(harness, "materialize", lambda *a, **kw: points.append(build(*a, **kw)) or points[-1])
        run_sweep(cfg, "lam", [0.3, 0.2], ["thresh_votes"])
        assert [p.config.lam_at() for p in points] == [0.3, 0.2]
        assert points[0].design is points[1].design and points[0].design.lam_omega == 0.4
        assert not {id(s) for s in points[0].columns} & {id(s) for s in points[1].columns}

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf, True, "fixed_9"])
    def test_invalid_value_raises(self, small_design, bad):
        cfg, design = small_design
        with pytest.raises(ValueError, match="lam must be"):
            check_grid(cfg, "lam", [0.5, bad], ["thresh_votes"])
        with pytest.raises(ValueError, match="lam must be"):
            materialize(design, cfg.at("lam", bad))


class TestCalibration:
    """With lam_omega -> 0 at n >> d, Omega_hat is Sigma_hat^-1 to the
    nodewise solver's tolerance, debiasing lands on OLS from any lasso
    start, and xi is OLS's known-sigma z-statistic
    sqrt(n) beta_k / (sigma sqrt((Sigma_hat^-1)_kk))."""

    @pytest.mark.parametrize("lam", ["fixed_8", 0.02])
    def test_xi_is_the_ols_z_statistic(self, lam):
        lam_omega = 1e-6
        spec = ProblemSpec(d=20, K=2, M=2, n=2000, r=0.8, base_seed=1)
        cfg = ExperimentConfig(spec=spec, lam=lam, lam_omega=lam_omega, reps=3)
        design = build_design(cfg)
        point = materialize(design, cfg)
        theta_t, theta_h, xi, converged, *_, Y = _rep_fits(point, 1)
        assert point.block.start == 0 and converged.all()
        assert theta_t.any() == (lam == 0.02)
        n, d, sigma = spec.n, spec.d, spec.sigma_value()
        for m in range(spec.M):
            X = design.X[m]
            S_inv = np.linalg.inv(X.T @ X / n)
            s = np.diag(S_inv)
            beta = np.linalg.solve(X.T @ X, X.T @ Y[m])
            z = math.sqrt(n) * beta / (sigma * np.sqrt(s))
            # The bound, fixed before the first run. Row k of Omega_hat is
            # (e_k - g_k) / tau_k^2 with g_k the nodewise lasso at lam_omega,
            # certified to KKT_TOL (build_design raises otherwise). So
            # E = Omega_hat Sigma_hat - I has |E_kj| <= (lam_omega + KKT_TOL)
            # / tau_k^2 off the diagonal (the gradient bound) and |E_kk| <=
            # ||g_k||_1 KKT_TOL / tau_k^2 (tau_k^2's identity): eps_k.
            omega = dense_rows(design.omegas[m])
            tau2 = 1.0 / np.diag(omega)
            g_l1 = tau2 * (np.abs(omega).sum(axis=1) - np.diag(omega))
            eps_k = (lam_omega + lasso.KKT_TOL * np.maximum(1.0, g_l1)) / tau2
            # theta_hat = Omega_hat X'y/n + (I - Omega_hat Sigma_hat) theta_tilde,
            # so theta_hat - beta = E (beta - theta_tilde): at most
            # eps_k ||beta - theta_tilde||_1.
            gap = eps_k * np.abs(beta - theta_t[m]).sum()
            assert (np.abs(theta_h[m] - beta) <= gap).all(), m
            # c = (I + E) Sigma_hat^-1 (I + E)': |c_kk - s_kk| <= delta_k =
            # 2 eps_k ||S_inv_k||_1 + d eps_k^2 lambda_max(S_inv), and
            # |xi_k - z_k| <= sqrt(n)/sigma (gap_k / sqrt(s_kk - delta_k)
            # + |beta_k| (1/sqrt(s_kk - delta_k) - 1/sqrt(s_kk))), plus the
            # roundoff of forming either side, 1e-10 (1 + |z_k|) at
            # cond(Sigma_hat) < 10.
            delta = 2 * eps_k * np.abs(S_inv).sum(axis=1) + d * eps_k**2 * np.linalg.eigvalsh(S_inv)[-1]
            low = np.sqrt(s - delta)
            bound = math.sqrt(n) / sigma * (gap / low + np.abs(beta) * (1 / low - 1 / np.sqrt(s)))
            bound += 1e-10 * (1 + np.abs(z))
            assert bound.max() <= 1e-3  # tight enough to tell lam_omega = 1e-3's 1.9e-2 apart
            assert (np.abs(xi[m] - z) <= bound).all(), (m, np.abs(xi[m] - z).max(), bound.min())
