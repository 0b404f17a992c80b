"""Machine-speed reference: a fixed task timed beside the pipeline.

On a shared host the CPU speed this process gets changes by up to 2x, in
stretches from a fraction of a second to minutes, as other guests load the
host, and CPU time counts the slowdown. So the run also times this task, in
the same process and right before each piece of work it measures, and
reports the work's time at reference speed:

    reported = measured * REF_S / (the task's time just before it)

The task does not touch votelasso, so a change to the pipeline moves the
reported times exactly as it moves the measured ones. It mixes what the
pipeline spends its time on: a Python loop of small NumPy vector operations
(one coordinate-descent sweep of a lasso) and a small LAPACK least-squares
solve, so that contention slows it about as much as it slows the pipeline.
"""

from __future__ import annotations

import time

import numpy as np

# The task's median time on an idle stretch of a 2-vCPU KVM guest on an
# Intel Xeon host (Python 3.11, NumPy 2.4, single-threaded OpenBLAS), in
# seconds. Reported times are on that machine's scale.
REF_S = 0.85e-3

_rng = np.random.default_rng(20230110)
_X = _rng.standard_normal((100, 200))
_y = _rng.standard_normal(100)
_A = _rng.standard_normal((100, 20))


def task() -> None:
    r = _y.copy()
    w = np.zeros(_X.shape[1])
    for j in range(_X.shape[1]):
        xj = _X[:, j]
        z = xj @ r / _X.shape[0] + w[j]
        new = np.sign(z) * max(abs(z) - 0.05, 0.0)
        if new != w[j]:
            r -= (new - w[j]) * xj
            w[j] = new
    np.linalg.lstsq(_A, _y, rcond=None)


def timed_task() -> float:
    """CPU seconds of one run of the task."""
    t0 = time.process_time()
    task()
    return time.process_time() - t0


def before_calls(samples: list[float]):
    """Wrapper factory: time the task before each call, into ``samples``."""

    def wrapper(fn):
        def calibrated(*args, **kwargs):
            samples.append(timed_task())
            return fn(*args, **kwargs)

        return calibrated

    return wrapper


def to_reference(measured, task_s):
    """``measured`` seconds at reference speed, given the task's time beside it."""
    return measured * REF_S / task_s
