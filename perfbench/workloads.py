"""Benchmark workloads: fixed problem sizes for the votelasso pipeline.

Every workload uses K=5, r=0.8, corr_decay=0.5, a fixed design, all six
schemes and the default lambda rules. One run builds ``DESIGNS`` designs,
each from its own base seed derived from the workload seed, so that set-up
is timed several times and the statistical outputs average over more than
one design.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

K = 5
R = 0.8
CORR_DECAY = 0.5
DESIGNS = 3


@dataclass(frozen=True)
class Workload:
    name: str
    d: int
    n: int
    M: int
    axis: str
    grid: tuple
    reps: int
    second_round: str
    why: str

    @property
    def n_cal(self) -> int | None:
        """Sample size the design is calibrated at (the largest n on an n sweep)."""
        return max(self.grid) if self.axis == "n" else None

    def design_seeds(self, seed: int) -> list[int]:
        return [seed * DESIGNS + i for i in range(DESIGNS)]

    def config(self, base_seed: int):
        from votelasso.datagen import ProblemSpec
        from votelasso.harness import ExperimentConfig

        spec = ProblemSpec(
            d=self.d, K=K, M=self.M, n=self.n, r=R, corr_decay=CORR_DECAY, base_seed=base_seed
        )
        return ExperimentConfig(spec=spec, second_round=self.second_round, reps=self.reps)

    def tiny(self) -> "Workload":
        """The same workload shape at a size that runs in about a second."""
        grid = tuple(int(v) * 50 // self.n for v in self.grid) if self.axis == "n" else self.grid
        return replace(self, d=40, n=50, M=3, grid=grid, reps=4)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "fixed_reps",
            d=200, n=100, M=20, axis="r", grid=(0.8,), reps=100, second_round="average",
            why="the replication loop dominates: Gram lasso, round-1 messages, restricted lstsq",
        ),
        Workload(
            "sweep_n",
            d=200, n=100, M=10, axis="n", grid=(60, 80, 100), reps=34, second_round="gram_exact",
            why="below n_cal the covariance-free lasso runs, materialize recomputes, round 2 is gram_exact",
        ),
    )
}
