import numpy as np
import pytest

from votelasso.datagen import GroundTruth, ProblemSpec, make_theta_star, sample_responses, sample_shards
from votelasso.serialize import (
    dump_jsonl,
    load_jsonl,
    load_shards,
    save_shards,
    shard_from_csv,
    shard_to_csv,
)


@pytest.fixture
def bundle(tmp_path):
    spec = ProblemSpec(d=8, K=2, M=3, n=12, r=0.5, base_seed=4)
    shards = sample_shards(spec)
    truth = make_theta_star(spec, theta_min=0.4)
    truth.c_omega = 1.25
    shards = sample_responses(shards, truth.theta_star, 1.0, spec.base_seed)
    return tmp_path, spec, shards, truth


class TestNpzContainer:
    def test_shard_roundtrip(self, bundle):
        tmp, spec, shards, truth = bundle
        path = tmp / "bundle.npz"
        save_shards(path, shards, truth, meta={"d": spec.d, "seed": spec.base_seed})
        loaded, truth2, meta = load_shards(path)
        assert len(loaded) == len(shards)
        for a, b in zip(shards, loaded):
            assert a.machine_id == b.machine_id
            assert np.array_equal(a.X, b.X)
            assert np.array_equal(a.y, b.y)
        assert np.array_equal(truth2.theta_star, truth.theta_star)
        assert np.array_equal(truth2.support, truth.support)
        assert truth2.theta_min == truth.theta_min
        assert truth2.c_omega == 1.25
        assert meta == {"d": 8, "seed": 4}

    def test_designs_only_roundtrip(self, bundle):
        tmp, spec, _, _ = bundle
        xonly = sample_shards(spec)
        path = tmp / "designs.npz"
        save_shards(path, xonly)
        loaded, truth, meta = load_shards(path)
        assert truth is None and meta is None
        assert loaded[0].y is None


class TestCsv:
    def test_header_and_roundtrip(self, bundle):
        tmp, spec, shards, _ = bundle
        path = tmp / "shard0.csv"
        shard_to_csv(shards[0], path)
        header = path.read_text().splitlines()[0]
        assert header == ",".join([f"x_{j}" for j in range(1, 9)] + ["y"])
        back = shard_from_csv(path, machine_id=0)
        assert np.array_equal(back.X, shards[0].X)
        assert np.array_equal(back.y, shards[0].y)

    def test_missing_response_rejected(self, bundle):
        tmp, spec, _, _ = bundle
        xonly = sample_shards(spec)[0]
        with pytest.raises(ValueError, match="no response"):
            shard_to_csv(xonly, tmp / "x.csv")


def test_jsonl_roundtrip(tmp_path):
    rows = [{"a": 1, "b": [1, 2]}, {"a": 2, "b": None}]
    path = tmp_path / "records.jsonl"
    dump_jsonl(path, rows)
    assert load_jsonl(path) == rows
