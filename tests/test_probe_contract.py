"""The names the benchmark instruments (perfbench/probes.py) must exist.

The benchmark patches module attributes to count solver work and check KKT
certificates; a renamed call site would silently drop out of its counts.
"""

import dataclasses
from pathlib import Path

import numpy as np
import pytest

from votelasso import _kernels, debias, harness
from votelasso.datagen import ProblemSpec, sample_shards

from oracles import dense_rows

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
    assert len(debias.fit_lasso_gram(np.eye(3), np.array([1.0, 0.0, -0.5]), 0.1)) == 5


def test_every_replication_fit_goes_through_a_patched_name(monkeypatch):
    spec = ProblemSpec(d=20, K=2, M=3, n=30, r=0.8, base_seed=1)
    config = harness.ExperimentConfig(spec=spec)
    point = harness.materialize(harness.build_design(config), config)
    calls = []

    def counting(fn):
        def wrapped(*args, **kwargs):
            out = fn(*args, **kwargs)
            calls.append(len(out))
            return out

        return wrapped

    monkeypatch.setattr(harness, "fit_lasso_gram", counting(harness.fit_lasso_gram))
    monkeypatch.setattr(_kernels, "cd_residual", counting(_kernels.cd_residual))
    harness._rep_fits(point, rep=0)
    assert calls == [5] * spec.M  # Gram branch: (theta, u, sweeps, kkt, converged)
    calls.clear()
    harness._rep_fits(dataclasses.replace(point, grams=None), rep=0)
    assert calls == [3] * spec.M  # covariance-free branch: (sweeps, kkt, converged)


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
            _kernels.kkt_residual(C[r] - G @ theta[r], theta[r], lam, int(skip[r]))
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
    assert state["gram_cache_bytes"] == 3 * 30 * 30 * 8
