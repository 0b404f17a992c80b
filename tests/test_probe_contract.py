"""The names the benchmark instruments (perfbench/probes.py) must exist.

The benchmark patches module attributes to count solver work and check KKT
certificates; a renamed call site would silently drop out of its counts.
"""

from pathlib import Path

import numpy as np
import pytest

from votelasso import _kernels, debias, fusion, harness, protocol
from votelasso.datagen import ProblemSpec, sample_shards

from oracles import _where_kkt_residual, dense_rows, loop_round1_messages, loop_second_round

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def probes():
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(PERFBENCH))
        import probes

        yield probes


@pytest.fixture(scope="module")
def bench_run():
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(PERFBENCH))
        import run

        yield run


def test_every_span_site_exists(probes):
    for name, sites in probes.SPANS.items():
        for owner, attr in sites:
            assert callable(getattr(owner, attr, None)), f"{name}: {owner.__name__}.{attr}"
    assert callable(harness.run_point_rep)
    assert isinstance(_kernels.USING_NUMBA, bool)
    # Nodewise fits are counted through this name: (theta, u, sweeps, kkt, converged).
    assert len(debias.fit_lasso_gram(np.eye(3), np.array([[1.0, 0.0, -0.5]]), 0.1, np.array([-1]))) == 5


def test_every_replication_fit_goes_through_a_patched_name(monkeypatch):
    # One cd_residual call per machine, at n_cal and below it, for zero
    # fits (the default lambda) and nonzero ones; the Gram-matrix fit the
    # benchmark still wraps is never called.
    spec = ProblemSpec(d=20, K=2, M=3, n=30, r=0.8, base_seed=1)
    design = harness.build_design(harness.ExperimentConfig(spec=spec))
    calls = []

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            out = fn(*args, **kwargs)
            calls.append((name, len(out)))
            return out

        return wrapped

    monkeypatch.setattr(harness, "fit_lasso_gram", counting("gram", harness.fit_lasso_gram))
    monkeypatch.setattr(_kernels, "cd_residual", counting("columns", _kernels.cd_residual))
    for lam in ("fixed_8", 0.3):
        config = harness.ExperimentConfig(spec=spec, lam=lam)
        for n in (None, 20):
            calls.clear()
            theta = harness._rep_fits(harness.materialize(design, config, n=n), rep=0)[0]
            assert theta.any() == (lam != "fixed_8")
            assert calls == [("columns", 3)] * spec.M  # (sweeps, kkt, converged)


def test_covariance_free_fits_pass_the_benchmark_probe(probes):
    # The probe wraps cd_residual as counted(X, y, lam, w, *rest): the
    # precomputed Gram diagonal, X'y/n and the machine's column store must
    # reach it positionally, or every fit raises TypeError under the benchmark.
    spec = ProblemSpec(d=20, K=2, M=3, n=30, r=0.8, base_seed=1)
    config = harness.ExperimentConfig(spec=spec, lam=0.3)
    point = harness.materialize(harness.build_design(config), config, n=20)
    checks = probes.Checks()
    with probes.Patches() as patches:
        checks.install_replication(patches)
        theta, _, _, converged, sweeps, kkt, *_ = harness._rep_fits(point, rep=0)
    assert converged.all() and theta.any()
    assert checks.counts["residual_sweeps"] == sweeps.sum() > spec.M
    assert checks.max_kkt["replication"] == kkt.max()


# The round-one rule whose message a maker call sends: top-L runs unsigned
# (two arguments) and signed (three).
ROUND1_RULE = {
    "round1_thresh_votes": lambda args: "thresh_votes",
    "round1_thresh_signs": lambda args: "thresh_signs",
    "round1_dense": lambda args: "avg_deblasso",
    "round1_top_L": lambda args: "top_L_signs" if len(args) == 3 else "top_L_votes",
}


def _loop_round2_messages(mp, config, point, ys, support):
    """The messages ``oracles.loop_second_round`` builds machine by machine,
    caught at its fusion-center fold (patched through ``mp``)."""
    caught = []
    for name in ("centralized_ls", "aggregate_round2"):
        fold = getattr(fusion, name)
        mp.setattr(fusion, name, lambda msgs, *rest, _f=fold: caught.extend(msgs) or _f(msgs, *rest))
    loop_second_round(config, point, ys, support)
    return caught


@pytest.mark.parametrize("second_round", ["average", "gram_exact"])
def test_makers_run_once_per_machine_and_send_the_loops_messages(monkeypatch, probes, second_round):
    # The benchmark counts and round-trips messages at the makers: each one
    # still runs once per machine, per round-one rule and per round-two
    # support, takes only its payload, and sends the message the frozen
    # per-machine loop builds for that machine.
    spec = ProblemSpec(d=30, K=2, M=4, n=30, r=0.8, base_seed=1)
    config = harness.ExperimentConfig(spec=spec, second_round=second_round, L=3)
    point = harness.materialize(harness.build_design(config), config)
    originals = {name: getattr(protocol, name) for name in probes.ROUND1_MAKERS + probes.ROUND2_MAKERS}
    M = spec.M
    for rep in range(3):
        calls = []

        def counting(name):
            def wrapped(*args, **kwargs):
                msg = originals[name](*args, **kwargs)
                calls.append((name, args, kwargs, msg))
                return msg

            return wrapped

        with monkeypatch.context() as mp:
            for name in originals:
                mp.setattr(protocol, name, counting(name))
            recs = harness.run_point_rep(point, config, list(harness.SCHEMES), rep)
        supports = {tuple(r.S_hat) for r in recs if r.scheme != "avg_deblasso" and r.S_hat}
        round2 = "round2_gram" if second_round == "gram_exact" else "round2_restricted"
        ids = lambda name: [args[0] for n, args, _, _ in calls if n == name]
        # bnm21 shares the thresholded votes; top-L runs unsigned and signed.
        assert ids("round1_thresh_votes") == ids("round1_thresh_signs") == ids("round1_dense") == list(range(M))
        assert ids("round1_top_L") == list(range(M)) * 2
        assert supports and ids(round2) == list(range(M)) * len(supports)
        _, theta_hat, xi, *_, ys = harness._rep_fits(point, rep)
        for name, args, kwargs, msg in calls:
            assert not kwargs, name
            m = args[0]
            if name in ROUND1_RULE:
                want = loop_round1_messages(ROUND1_RULE[name](args), point, theta_hat, xi)[m]
            else:
                with monkeypatch.context() as mp:
                    want = _loop_round2_messages(mp, config, point, ys, args[1])[m]
            assert probes.same_message(msg, want), (name, m)


def test_every_nodewise_solve_goes_through_the_patched_name(monkeypatch, probes):
    # The gate's kkt_nodewise is the largest KKT residual that calls of
    # debias.fit_lasso_gram report. Each call must cover its rows' fits and
    # report the largest residual of any of them, or the gate reads too little.
    X = sample_shards(ProblemSpec(d=40, K=2, M=1, n=50, r=0.8, base_seed=3))[0]
    lam = 0.15
    calls = []
    fit = debias.fit_lasso_gram

    def recording(G, C, lam, **kwargs):
        out = fit(G, C, lam, **kwargs)
        calls.append((G, C.copy(), kwargs["skip"].copy(), out))
        return out

    monkeypatch.setattr(debias, "NODEWISE_CHUNK_ENTRIES", 16 * 40)
    monkeypatch.setattr(debias, "fit_lasso_gram", recording)
    est = debias.estimate_precision(X, lam)
    assert len(calls) == 3
    assert np.concatenate([skip for _, _, skip, _ in calls]).tolist() == list(range(40))
    for G, C, skip, (theta, u, sweeps, kkt, converged) in calls:
        assert sweeps > 0 and converged
        assert np.abs(u - theta @ G).max() <= 1e-12
        per_row = [
            _where_kkt_residual(C[r] - G @ theta[r], theta[r], lam, int(skip[r]))
            for r in range(skip.size)
        ]
        assert kkt == pytest.approx(max(per_row), rel=1e-6, abs=1e-15)
    assert est.nodewise_kkt == max(out[3] for _, _, _, out in calls) > 0.0
    assert est.nodewise_sweeps == sum(out[2] for _, _, _, out in calls)
    # The benchmark's own probe reads the same certificate and sweeps.
    monkeypatch.undo()
    checks = probes.Checks()
    with probes.Patches() as patches:
        checks.install_nodewise(patches)
        est = debias.estimate_precision(X, lam)
    assert checks.max_kkt["nodewise"] == est.nodewise_kkt > 0.0
    assert checks.counts["nodewise_sweeps"] == est.nodewise_sweeps


def test_design_state_reads_the_precision_layout(bench_run):
    # ``--trace 1`` reports Omega_hat's nonzeros per row and bytes through
    # ``(o != 0).sum()`` and ``o.nbytes`` of each ``design.omegas`` entry.
    spec = ProblemSpec(d=30, K=2, M=3, n=40, r=0.8, base_seed=2)
    design = harness.build_design(harness.ExperimentConfig(spec=spec))
    state = bench_run.design_state(design)
    nnz = sum(np.count_nonzero(dense_rows(o)) for o in design.omegas)
    assert nnz > 30 * 3  # the rows hold more than their diagonal
    assert state["omega_nnz_per_row"] == nnz / (30 * 3)
    layout = sum(o.indptr.nbytes + o.indices.nbytes + o.data.nbytes for o in design.omegas)
    assert state["omega_bytes"] == layout
    # No design keeps Gram matrices; a grid point keeps Gram columns.
    assert design.grams is None and state["gram_cache_bytes"] == 0
