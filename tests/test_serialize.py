import json

import numpy as np
import pytest

from votelasso.datagen import (
    DataShard,
    ProblemSpec,
    make_theta_star,
    sample_responses,
    sample_shards,
)
from votelasso.serialize import dump_jsonl, load_jsonl, save_shards, shard_to_csv


@pytest.fixture
def bundle(tmp_path):
    spec = ProblemSpec(d=8, K=2, M=3, n=12, r=0.5, base_seed=4)
    X = sample_shards(spec)
    truth = make_theta_star(spec, theta_min=0.4)
    truth.c_omega = 1.25
    Y = sample_responses(X, truth.theta_star, 1.0, spec.base_seed)
    shards = [DataShard(machine_id=m, X=X[m], y=Y[m]) for m in range(spec.M)]
    return tmp_path, spec, shards, truth


class TestNpzContainer:
    def test_shard_roundtrip(self, bundle):
        # The documented keys, read back with plain np.load.
        tmp, spec, shards, truth = bundle
        path = tmp / "bundle.npz"
        save_shards(path, shards, truth, meta={"d": spec.d, "seed": spec.base_seed})
        with np.load(path, allow_pickle=False) as data:
            per_machine = [f"{k}_{m}" for m in range(spec.M) for k in ("X", "y")]
            truth_keys = ["theta_star", "support", "theta_min", "c_omega", "meta"]
            assert sorted(data.files) == sorted(["machine_ids", *per_machine, *truth_keys])
            assert np.array_equal(data["machine_ids"], np.arange(spec.M))
            for shard in shards:
                assert np.array_equal(data[f"X_{shard.machine_id}"], shard.X)
                assert np.array_equal(data[f"y_{shard.machine_id}"], shard.y)
            assert np.array_equal(data["theta_star"], truth.theta_star)
            assert np.array_equal(data["support"], truth.support)
            assert float(data["theta_min"]) == truth.theta_min
            assert float(data["c_omega"]) == 1.25
            assert json.loads(str(data["meta"])) == {"d": 8, "seed": 4}

    def test_designs_only_roundtrip(self, bundle):
        tmp, spec, shards, _ = bundle
        xonly = [DataShard(machine_id=s.machine_id, X=s.X) for s in shards]
        path = tmp / "designs.npz"
        save_shards(path, xonly)
        with np.load(path, allow_pickle=False) as data:
            assert sorted(data.files) == sorted(["machine_ids"] + [f"X_{m}" for m in range(spec.M)])
            for shard in shards:
                assert np.array_equal(data[f"X_{shard.machine_id}"], shard.X)


class TestCsv:
    def test_header_and_roundtrip(self, bundle):
        tmp, spec, shards, _ = bundle
        path = tmp / "shard0.csv"
        shard_to_csv(shards[0], path)
        header = path.read_text().splitlines()[0]
        assert header == ",".join([f"x_{j}" for j in range(1, 9)] + ["y"])
        rows = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        assert np.array_equal(rows[:, :-1], shards[0].X)
        assert np.array_equal(rows[:, -1], shards[0].y)

    def test_missing_response_rejected(self, bundle):
        tmp, spec, shards, _ = bundle
        with pytest.raises(ValueError, match="no response"):
            shard_to_csv(DataShard(machine_id=0, X=shards[0].X), tmp / "x.csv")


def test_jsonl_roundtrip(tmp_path):
    rows = [{"a": 1, "b": [1, 2]}, {"a": 2, "b": None}]
    path = tmp_path / "records.jsonl"
    dump_jsonl(path, rows)
    assert load_jsonl(path) == rows
