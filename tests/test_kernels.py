"""Coordinate-descent kernel edge cases and the shared KKT certificate."""

import numpy as np
import pytest

from votelasso import _kernels


@pytest.fixture
def problem(rng):
    n, d = 40, 15
    X = rng.standard_normal((n, d))
    theta = np.zeros(d)
    theta[[1, 7]] = [1.0, -0.6]
    y = X @ theta + 0.3 * rng.standard_normal(n)
    return X, y


def test_skip_coordinate_stays_zero(problem):
    X, y = problem
    n = X.shape[0]
    G = X.T @ X / n
    for skip in (0, 7, 14):
        w = np.full(G.shape[0], 0.3)
        _kernels.cd_gram(G, G[skip].copy(), 0.05, w, skip, 1000, 1e-9, 1e-7)
        assert w[skip] == 0.0


def test_zero_column_forced_to_zero(rng):
    X = rng.standard_normal((20, 4))
    X[:, 2] = 0.0
    y = rng.standard_normal(20)
    w = np.ones(4)
    _kernels.cd_residual(np.asfortranarray(X), y.copy(), 0.1, w, 1000, 1e-9, 1e-7)
    assert w[2] == 0.0



def _kkt_loop(g, w, lam, skip=-1):
    worst = 0.0
    for j in range(g.size):
        if j == skip:
            continue
        if w[j] > 0:
            v = abs(g[j] - lam)
        elif w[j] < 0:
            v = abs(g[j] + lam)
        else:
            v = max(abs(g[j]) - lam, 0.0)
        worst = max(worst, v)
    return worst


def test_kkt_residual_matches_coordinate_loop(rng):
    for _ in range(50):
        g = rng.standard_normal(9)
        w = rng.standard_normal(9) * (rng.random(9) < 0.5)
        lam = float(rng.uniform(0.1, 2.0))
        skip = int(rng.integers(-1, 9))
        assert _kernels.kkt_residual(g, w, lam, skip) == _kkt_loop(g, w, lam, skip)

