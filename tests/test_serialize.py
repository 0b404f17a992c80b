import json
import re

import numpy as np
import pytest

from votelasso.datagen import (
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
    return tmp_path, spec, X, Y, truth


class TestNpzContainer:
    def test_shard_roundtrip(self, bundle):
        # The documented keys, read back with plain np.load.
        tmp, spec, X, Y, truth = bundle
        path = tmp / "bundle.npz"
        save_shards(path, X, Y, truth, meta={"d": spec.d, "seed": spec.base_seed})
        with np.load(path, allow_pickle=False) as data:
            per_machine = [f"{k}_{m}" for m in range(spec.M) for k in ("X", "y")]
            truth_keys = ["theta_star", "support", "theta_min", "c_omega", "meta"]
            assert sorted(data.files) == sorted(["machine_ids", *per_machine, *truth_keys])
            assert np.array_equal(data["machine_ids"], np.arange(spec.M))
            for m in range(spec.M):
                assert np.array_equal(data[f"X_{m}"], X[m])
                assert np.array_equal(data[f"y_{m}"], Y[m])
            assert np.array_equal(data["theta_star"], truth.theta_star)
            assert np.array_equal(data["support"], truth.support)
            assert float(data["theta_min"]) == truth.theta_min
            assert float(data["c_omega"]) == 1.25
            assert json.loads(str(data["meta"])) == {"d": 8, "seed": 4}

    def test_mismatched_responses_rejected(self, bundle):
        tmp, spec, X, Y, _ = bundle
        with pytest.raises(ValueError, match="do not match"):
            save_shards(tmp / "bad.npz", X, Y[:, :-1])
        assert not (tmp / "bad.npz").exists()


class TestCsv:
    def test_header_and_roundtrip(self, bundle):
        tmp, spec, X, Y, _ = bundle
        path = tmp / "shard0.csv"
        shard_to_csv(X[0], Y[0], path)
        header = path.read_text().splitlines()[0]
        assert header == ",".join([f"x_{j}" for j in range(1, 9)] + ["y"])
        rows = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        assert np.array_equal(rows[:, :-1], X[0])
        assert np.array_equal(rows[:, -1], Y[0])


def test_jsonl_roundtrip(tmp_path):
    rows = [{"a": 1, "b": [1, 2]}, {"a": 2, "b": None}]
    path = tmp_path / "records.jsonl"
    dump_jsonl(path, rows)
    assert load_jsonl(path) == rows


@pytest.mark.parametrize(
    "text, message",
    [('{"a": 1}\n\nnot json\n', r":3: not JSON \("), ('{"a": 1}\n[1, 2]\n', ":2: not a JSON object$")],
    ids=["not_json", "not_object"],
)
def test_jsonl_bad_line_names_path_and_line(tmp_path, text, message):
    path = tmp_path / "records.jsonl"
    path.write_text(text)
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}{message}"):
        load_jsonl(path)
