"""The paper's claims, checked on one seeded design at the working lambda.

The Theorem 3 design (d=500, n=100, K=5, r=0.9) with the low-machine-count
threshold tau = sqrt(2 r ln d) and lambda = 2 sqrt(2 ln d / n), where the
replication lasso is nonzero. One design is calibrated at M = 150 and swept
down the grid M = 150, 20, 5 and 1, with 10 replications per grid point,
under thresholded votes, signed or not, top-L votes (L = K), signed or not,
and the averaged debiased lasso (64 d bits per machine). The same design at
M = 150 with theta* = 0 gives the null statistics. The seed and the bounds
were fixed before the first run; a failure is a finding about the method,
not a bound to loosen.
"""

import dataclasses
import math

import numpy as np
import pytest

from votelasso import harness
from votelasso.datagen import ProblemSpec
from votelasso.harness import ExperimentConfig, build_design, materialize, run_sweep

D, N, K, R, SEED, REPS = 500, 100, 5, 0.9, 3, 10
MACHINES = (1, 5, 20, 150)
NULL_REPS = 20
SCHEMES = ["thresh_votes", "avg_deblasso", "top_L_votes", "top_L_signs", "thresh_signs"]


@pytest.fixture(scope="module")
def design():
    spec = ProblemSpec(d=D, K=K, M=max(MACHINES), n=N, r=R, base_seed=SEED)
    config = ExperimentConfig(
        spec=spec, tau="sqrt_2r_log_d", lam=2.0 * math.sqrt(2.0 * math.log(D) / N), reps=REPS
    )
    return config, build_design(config)


@pytest.fixture(scope="module")
def sweep(design):
    config, built = design
    result = run_sweep(config, "M", list(MACHINES), schemes=SCHEMES, design=built)
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


def test_round_one_sends_its_stated_bits(sweep):
    # (c), the exact part: an index costs ceil(log2 d) bits and a sign one
    # bit, so every machine sends L ceil(log2 d) bits under top-L votes,
    # L (ceil(log2 d) + 1) signed, and 64 d under the dense average; the
    # signed threshold rule sends the unsigned one's indices plus a bit each.
    _, records = sweep
    index_bits = math.ceil(math.log2(D))
    want = {"top_L_votes": K * index_bits, "top_L_signs": K * (index_bits + 1), "avg_deblasso": 64 * D}
    by_key = {(r["value"], r["rep"], r["scheme"]): r for r in records}
    for (value, rep, scheme), r in by_key.items():
        bits = r["bits_round1_per_machine"]
        assert len(bits) == value
        if scheme in want:
            assert bits == [want[scheme]] * value, (value, rep, scheme)
        elif scheme == "thresh_signs":
            votes = by_key[(value, rep, "thresh_votes")]["bits_round1_per_machine"]
            assert all(v % index_bits == 0 for v in votes)
            assert bits == [v + v // index_bits for v in votes], (value, rep)
    assert {scheme for _, _, scheme in by_key} == set(SCHEMES)
    assert any(any(r["bits_round1_per_machine"]) for k, r in by_key.items() if k[2] == "thresh_votes")


def test_exact_recovery_does_not_fall_along_the_machine_grid(sweep):
    # (e) From one grid value of M to the next, the number of reps in which
    # thresholded votes find the exact support falls by at most two standard
    # errors of the difference of two binomial counts, 2 sqrt(2 REPS p (1 - p))
    # at the pair's mean rate p.
    _, records = sweep
    exact = [
        sum(r["f_measure"] == 1.0 for r in records if r["value"] == M and r["scheme"] == "thresh_votes")
        for M in MACHINES
    ]
    for a, b in zip(exact, exact[1:]):
        p = (a + b) / (2 * REPS)
        assert a - b <= 2.0 * math.sqrt(2 * REPS * p * (1 - p)), exact


def test_null_statistics_are_standard_normal(design):
    # (f) Under theta* = 0 every standardized statistic xi is N(0, 1): pooled
    # over 20 replications of 150 machines (1.5 M values), |mean| <= 0.01 and
    # |var - 1| <= 0.02, and the count of |xi| > tau = sqrt(2 r ln d) lies
    # within 4 binomial standard deviations of N P(|Z| > tau) = N erfc(tau / sqrt 2).
    config, built = design
    point = materialize(built, config)
    point = dataclasses.replace(point, theta_star=0, x_theta=np.zeros_like(point.x_theta))
    xi = np.concatenate([harness._rep_fits(point, rep)[2].ravel() for rep in range(NULL_REPS)])
    assert xi.size == NULL_REPS * max(MACHINES) * D
    assert abs(xi.mean()) <= 0.01
    assert abs(xi.var() - 1.0) <= 0.02
    tau = math.sqrt(2.0 * R * math.log(D))
    assert point.config.tau_at() == pytest.approx(tau)
    rate = math.erfc(tau / math.sqrt(2.0))
    count = int((np.abs(xi) > tau).sum())
    assert abs(count - xi.size * rate) <= 4.0 * math.sqrt(xi.size * rate * (1 - rate)), (count, xi.size * rate)
