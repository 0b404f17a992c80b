"""Seeded synthesis of the sparse linear model on an AR(1) Gaussian design.

Per-machine data are drawn from independent, reproducible streams derived by
hashing (base_seed, stream_tag, replication, machine) through NumPy's
SeedSequence, so shards can be generated in any order, in parallel, or
re-generated bit-identically.

The machines are stacked: ``sample_shards`` returns one C-contiguous
(M, n, d) array whose slab ``X[m]`` is machine m's design, and
``sample_responses`` turns such a stack into the (M, n) responses, one row
per machine. Every consumer (the harness, the protocol's message makers,
the bundle and CSV writers, ``cli generate``) reads this layout, and a
single machine's view is its row: the slab ``X[m]`` and the response row
``Y[m]``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

# Stream tags keep design, coefficient and noise draws independent.
TAG_DESIGN = 1
TAG_THETA = 2
TAG_NOISE = 3


@dataclass(frozen=True)
class ProblemSpec:
    """Full generative configuration of one distributed regression problem.

    ``sigma`` is either an explicit noise level or the string ``"from_r"``,
    meaning sigma = 1/sqrt(r) so that the planted signal strength is held
    fixed while the SNR parameter r varies.
    """

    d: int
    K: int
    M: int
    n: int
    r: float
    corr_decay: float = 0.5
    sigma: float | str = "from_r"
    base_seed: int = 0

    def __post_init__(self):
        if self.d < 2:
            raise ValueError("d must be at least 2")
        if not 1 <= self.K < self.d:
            raise ValueError("K must satisfy 1 <= K < d")
        if self.M < 1 or self.n < 1:
            raise ValueError("M and n must be positive")
        if self.M * self.n < self.K:
            # The pooled oracle solves a K x K system from M*n samples.
            raise ValueError("M * n must be at least K")
        if not 0 < self.r <= 1:
            raise ValueError("r must lie in (0, 1]")
        if not 0 <= self.corr_decay < 1:
            raise ValueError("corr_decay must lie in [0, 1)")
        if isinstance(self.sigma, str):
            if self.sigma != "from_r":
                raise ValueError("sigma must be a positive number or 'from_r'")
        elif not 0 < self.sigma < math.inf:
            raise ValueError("sigma must be positive and finite")
        if self.base_seed < 0:
            raise ValueError("base_seed must be a nonnegative integer")

    def sigma_value(self, r: float | None = None) -> float:
        """Resolve the noise level, honoring the 'from_r' convention."""
        if isinstance(self.sigma, str):
            return 1.0 / math.sqrt(self.r if r is None else r)
        return float(self.sigma)

    def with_(self, **kwargs) -> "ProblemSpec":
        return replace(self, **kwargs)


@dataclass
class GroundTruth:
    """Planted coefficient vector and its calibration constants."""

    theta_star: np.ndarray
    support: np.ndarray
    theta_min: float
    c_omega: float | None = None


def stream(base_seed: int, tag: int, *keys: int) -> np.random.Generator:
    """Independent generator for (base_seed, tag, *keys)."""
    return np.random.default_rng(np.random.SeedSequence([int(base_seed), int(tag), *map(int, keys)]))


def _ar1_rows(rng: np.random.Generator, s: float, out: np.ndarray) -> None:
    """Fill the (n, d) slab ``out`` with i.i.d. N(0, Sigma) rows via the
    AR(1) recursion (O(n d)), in place over the standard normal draw."""
    rng.standard_normal(out=out)
    if s == 0.0:
        return
    q = math.sqrt(1.0 - s * s)
    for j in range(1, out.shape[1]):
        out[:, j] = s * out[:, j - 1] + q * out[:, j]


def sample_shards(spec: ProblemSpec, rep: int = 0, n: int | None = None) -> np.ndarray:
    """Draw the M design matrices as one C-contiguous (M, n, d) array.

    Machine m's rows come from ``stream(base_seed, TAG_DESIGN, rep, m)``
    and are written straight into ``X[m]``. ``rep`` enters the seed
    derivation so non-fixed-design experiments can redraw designs per
    replication; the default 0 is the fixed-design stream. A draw at a
    larger n extends a smaller one row for row.
    """
    n = spec.n if n is None else n
    X = np.empty((spec.M, n, spec.d))
    for m in range(spec.M):
        _ar1_rows(stream(spec.base_seed, TAG_DESIGN, rep, m), spec.corr_decay, X[m])
    return X


def theta_min_from_snr(d: int, sigma: float, r: float, n: int, c_omega: float) -> float:
    """Minimum planted magnitude for SNR parameter r:
    sigma * sqrt(2 * (c_omega / n) * r * ln d)."""
    if min(sigma, r, n, c_omega) <= 0 or d < 2:
        raise ValueError("all arguments must be positive, d >= 2")
    return sigma * math.sqrt(2.0 * (c_omega / n) * r * math.log(d))


def make_theta_star(
    spec: ProblemSpec, theta_min: float, rng: np.random.Generator | None = None
) -> GroundTruth:
    """Plant K nonzeros: uniform support, equally spaced magnitudes in
    [theta_min, 2*theta_min] assigned in random order, Rademacher signs."""
    if theta_min <= 0:
        raise ValueError("theta_min must be positive")
    if rng is None:
        rng = stream(spec.base_seed, TAG_THETA)
    d, K = spec.d, spec.K
    support = np.sort(rng.choice(d, size=K, replace=False))
    if K == 1:
        mags = np.array([theta_min])
    else:
        mags = theta_min * (1.0 + np.arange(K) / (K - 1))
    rng.shuffle(mags)
    signs = rng.choice([-1.0, 1.0], size=K)
    theta = np.zeros(d)
    theta[support] = signs * mags
    return GroundTruth(theta_star=theta, support=support, theta_min=float(theta_min))


def sample_responses(
    X: np.ndarray,
    theta_star: np.ndarray,
    sigma: float,
    base_seed: int,
    rep: int = 0,
) -> np.ndarray:
    """(M, n) responses y_m = X_m theta* + w_m of the stacked designs X.

    Machine m's noise w_m ~ N(0, sigma^2 I_n) comes from
    ``stream(base_seed, TAG_NOISE, rep, m)``. A length-n draw equals the
    first n values of a longer draw from the same stream (checked for
    NumPy 2.4 at n/n_cal = 60/100, 80/100, 1/7 and 33/250), so a grid point
    at n below the calibrated size sees the prefix of the full-size noise.
    """
    if not 0 < sigma < math.inf:
        raise ValueError("sigma must be positive and finite")
    M, n = X.shape[:2]
    W = np.empty((M, n))
    for m in range(M):
        stream(base_seed, TAG_NOISE, rep, m).standard_normal(out=W[m])
    return X @ theta_star + sigma * W


def compute_c_omega(sandwich_diags) -> float:
    """Largest per-coordinate variance scale over all machines.

    Accepts an iterable of length-d arrays (one per machine) of the diagonal
    of Omega_hat Sigma_hat Omega_hat'.
    """
    diags = [np.asarray(v, dtype=np.float64) for v in sandwich_diags]
    if not diags:
        raise ValueError("no machines")
    return float(max(v.max() for v in diags))
