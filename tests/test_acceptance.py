"""The paper's claims, checked on one seeded design at the working lambda.

The Theorem 3 design (d=500, n=100, K=5, r=0.9) with the low-machine-count
threshold tau = sqrt(2 r ln d) and lambda = 2 sqrt(2 ln d / n), where the
replication lasso is nonzero. One design is calibrated at M = 150 and swept
down to M = 1, 10 replications per grid point, under thresholded votes and
the averaged debiased lasso (64 d bits per machine). The seed and the
bounds were fixed before the first run; a failure is a finding about the
method, not a bound to loosen.
"""

import math

import pytest

from votelasso.datagen import ProblemSpec
from votelasso.harness import ExperimentConfig, build_design, run_sweep

D, N, K, R, SEED, REPS = 500, 100, 5, 0.9, 3, 10
MACHINES = (1, 150)
SCHEMES = ["thresh_votes", "avg_deblasso"]


@pytest.fixture(scope="module")
def sweep():
    spec = ProblemSpec(d=D, K=K, M=max(MACHINES), n=N, r=R, base_seed=SEED)
    config = ExperimentConfig(
        spec=spec, tau="sqrt_2r_log_d", lam=2.0 * math.sqrt(2.0 * math.log(D) / N), reps=REPS
    )
    result = run_sweep(config, "M", list(MACHINES), schemes=SCHEMES, design=build_design(config))
    rows = {(row["value"], row["scheme"]): row for row in result.rows}
    return rows, result.records


def test_votes_of_many_machines_recover_the_exact_support(sweep):
    # (a) At M = 150, thresholded votes find the exact support in at least 9 of 10 reps.
    _, records = sweep
    votes = [r for r in records if r["value"] == 150 and r["scheme"] == "thresh_votes"]
    assert len(votes) == REPS
    assert sum(r["f_measure"] == 1.0 for r in votes) >= 9


def test_one_machine_alone_does_not(sweep):
    # (b) A single machine's vote recovers the support poorly: mean F <= 0.5.
    rows, _ = sweep
    assert rows[(1, "thresh_votes")]["f_mean"] <= 0.5


def test_two_rounds_approach_the_oracle_and_beat_the_dense_average(sweep):
    # (d) At M = 150, the two-round l2 error is within 1.5 times the pooled
    # oracle's and below that of the averaged debiased lasso.
    rows, _ = sweep
    votes, dense = rows[(150, "thresh_votes")], rows[(150, "avg_deblasso")]
    assert votes["l2_mean"] <= 1.5 * votes["oracle_l2_mean"]
    assert votes["l2_mean"] < dense["l2_mean"]
