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

Only the streams are per machine. ``sample_shards`` fills each slab from
its machine's stream and then runs the AR(1) column recursion once over
the whole stack; ``sample_noise`` draws each machine's noise row from its
own stream. Both draw through ``fill_streams``, the one function that
positions streams: instead of running a SeedSequence per stream, it forms
the PCG64 seed words of every stream of a draw, all M machines times every
replication asked for, in one vectorized pass of SeedSequence's hash over
their entropy keys (``_stream_states``), and draws each row from a PCG64
that NumPy seeds from its stream's words. The pass reproduces NumPy's
SeedSequence hash word for word, and the tests check every row against
``stream``, which seeds through NumPy itself. The responses are
X theta* + sigma W, and the noise W is the only part that changes between
replications of a fixed design, so the harness forms X theta* once per
grid point and draws the noise of a block of replications with one
``fill_streams`` call, while ``cli generate`` calls ``sample_responses``:
both draw the same W as ``sample_noise``. No object holds seed words
between draws.
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
    fixed while the SNR parameter r varies. The sizes d, K, M, n and
    ``base_seed`` are integers (Python or NumPy, not bools), stored as
    Python ints; r, ``corr_decay`` and ``sigma`` are not bools. Any other
    value raises a ValueError that names the field.
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
        for name in ("d", "K", "M", "n", "base_seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, not {value!r}")
            object.__setattr__(self, name, int(value))
        for name in ("r", "corr_decay", "sigma"):
            if isinstance(getattr(self, name), (bool, np.bool_)):
                raise ValueError(f"{name} must be a number, not {getattr(self, name)!r}")
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

    def sigma_value(self) -> float:
        """Resolve the noise level, honoring the 'from_r' convention."""
        if isinstance(self.sigma, str):
            return 1.0 / math.sqrt(self.r)
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
    """Independent generator for (base_seed, tag, *keys): NumPy's PCG64
    seeded by ``SeedSequence([base_seed, tag, *keys])``, which splits a
    value of 2**32 or more into 32-bit words. ``fill_streams`` positions
    the streams of all machines and replications of a draw at once."""
    return np.random.default_rng(np.random.SeedSequence([int(base_seed), int(tag), *map(int, keys)]))


def _words(value: int) -> list[int]:
    """A nonnegative integer as SeedSequence splits it: 32-bit words, least
    significant first, and one zero word for 0."""
    value = int(value)
    if value < 0:
        raise ValueError("stream keys must be nonnegative integers")
    words = [value & 0xFFFFFFFF]
    while value >> 32:
        value >>= 32
        words.append(value & 0xFFFFFFFF)
    return words


def _hash_constants(init: int, mult: int, calls: int) -> np.ndarray:
    """SeedSequence's running hash constant before each of ``calls`` hash
    calls and after the last: h_0 = init, h_{i+1} = h_i * mult mod 2**32.
    Call i XORs its value with h_i and multiplies it by h_{i+1}."""
    h = [init]
    for _ in range(calls):
        h.append(h[-1] * mult & 0xFFFFFFFF)
    return np.array(h, dtype=np.uint32)


# NumPy's SeedSequence (numpy/random/bit_generator.pyx): its pool of 4
# words and the constants of its entropy hash, pool mix and output hash.
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
# The entropy hash's first 16 calls fill the pool (calls 0-3) and mix it:
# pool word s hashes into every other word t in turn, as call
# 4 + 3s + t (t < s) or 4 + 3s + t - 1 (t > s). Row s of the mix tables
# holds the XOR and multiplier constants of those calls by t; their column
# s, which no call uses, repeats a valid constant.
_HASH_A = _hash_constants(_INIT_A, _MULT_A, 4 * _POOL)
_MIX_CALLS = (
    _POOL
    + (_POOL - 1) * np.arange(_POOL)[:, None]
    + np.arange(_POOL)
    - (np.arange(_POOL) >= np.arange(_POOL)[:, None])
)
_MIX_XOR, _MIX_MUL = _HASH_A[_MIX_CALLS], _HASH_A[_MIX_CALLS + 1]
# generate_state(4, uint64) hashes the pool read twice: 8 calls.
_HASH_B = _hash_constants(_INIT_B, _MULT_B, 2 * _POOL)


def _hashmix(value: np.ndarray, xor: np.ndarray, mul: np.ndarray) -> np.ndarray:
    value = value ^ xor
    value *= mul
    value ^= value >> 16
    return value


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    x = x * _MIX_MULT_L
    x -= y * _MIX_MULT_R
    x ^= x >> 16
    return x


def _stream_states(base_seed: int, tag: int, reps, M: int) -> np.ndarray:
    """The PCG64 seed words of ``stream(base_seed, tag, rep, m)`` for every
    rep in ``reps`` and every machine m < M, as one (len(reps), M, 4) uint64
    array: row (i, m) is ``SeedSequence([base_seed, tag, reps[i], m])
    .generate_state(4, np.uint64)``, the 128-bit seed and increment words
    from which NumPy's PCG64 seeds itself (``fill_streams``).

    ``SeedSequence`` hashes the keys' 32-bit words into a pool of four words
    with a running constant that does not depend on the data, and the seed
    words are a hash of the pool. So the pools of all rows are one (rows, 4)
    uint32 array, hashed with the same constants in one pass. A pass needs
    keys of one length: reps are grouped by how many 32-bit words
    SeedSequence splits them into, and each group hashes in its own pass,
    so reps of 2**32 and above keep working.
    """
    words = [_words(rep) for rep in reps]
    out = np.empty((len(words), M, 4), dtype=np.uint64)
    groups: dict[int, list[int]] = {}
    for i, rep_words in enumerate(words):
        groups.setdefault(len(rep_words), []).append(i)
    prefix = _words(base_seed) + _words(tag)
    for width, at in groups.items():
        L = len(prefix) + width + 1  # machine ids below 2**32 are one word
        entropy = np.empty((len(at), M, L), dtype=np.uint32)
        entropy[..., : len(prefix)] = prefix
        entropy[..., len(prefix) : -1] = np.array([words[i] for i in at], dtype=np.uint32)[:, None]
        entropy[..., -1] = np.arange(M, dtype=np.uint32)
        out[at] = _seed_words(entropy.reshape(-1, L)).reshape(len(at), M, 4)
    return out


def _seed_words(entropy: np.ndarray) -> np.ndarray:
    """(rows, 4) uint64 ``generate_state(4, np.uint64)`` of the
    SeedSequence of each row of the (rows, L) uint32 ``entropy``."""
    L = entropy.shape[1]
    pool = _hashmix(entropy[:, :_POOL], _HASH_A[:_POOL], _HASH_A[1 : _POOL + 1])
    for s in range(_POOL):
        mixed = _mix(pool, _hashmix(pool[:, s : s + 1], _MIX_XOR[s], _MIX_MUL[s]))
        mixed[:, s] = pool[:, s]
        pool = mixed
    # Entropy words past the pool's size hash into every pool word, with the
    # constants that follow.
    h = _hash_constants(int(_HASH_A[-1]), _MULT_A, _POOL * (L - _POOL))
    for i in range(L - _POOL):
        lo = _POOL * i
        pool = _mix(pool, _hashmix(entropy[:, _POOL + i, None], h[lo : lo + _POOL], h[lo + 1 : lo + _POOL + 1]))
    # The pool read twice and hashed, then paired into little-endian 64-bit
    # words: seed high, seed low, increment high, increment low.
    state = np.concatenate([pool, pool], axis=1)
    state ^= _HASH_B[:-1]
    state *= _HASH_B[1:]
    state ^= state >> 16
    return state.astype("<u4", copy=False).view("<u8")


class _SeedWords(np.random.bit_generator.ISeedSequence):
    """The seed sequence of one stream, holding its four PCG64 seed words
    (``_stream_states``): PCG64 asks it for exactly those, and NumPy's own
    seeding sets the generator from them."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or np.dtype(dtype) != np.uint64:
            raise ValueError(f"holds 4 uint64 seed words, not {n_words} {np.dtype(dtype)}")
        return self.words


def fill_streams(out: np.ndarray, base_seed: int, tag: int, reps) -> np.ndarray:
    """Fill each ``out[m, i]`` with the standard normals of
    ``stream(base_seed, tag, reps[i], m)``, bit for bit, for every machine
    m < len(out) and every rep of ``reps``, and return ``out``.

    ``out`` is (M, len(reps), ...) and each ``out[m, i]`` is C-contiguous;
    any other second axis raises ValueError, as does a negative rep. The
    seed words of all M * len(reps) streams come from one
    ``_stream_states`` pass, and each row is drawn from a PCG64 that NumPy
    seeds from its stream's words.
    """
    if out.shape[1:2] != (len(reps),):
        raise ValueError(f"out of shape {out.shape} is not (M, {len(reps)}, ...) for {len(reps)} reps")
    for i, words in enumerate(_stream_states(base_seed, tag, reps, len(out))):
        for row, seed_words in zip(out[:, i], words):
            np.random.Generator(np.random.PCG64(_SeedWords(seed_words))).standard_normal(out=row)
    return out


def sample_shards(spec: ProblemSpec, rep: int = 0, n: int | None = None) -> np.ndarray:
    """Draw the M design matrices as one C-contiguous (M, n, d) array.

    Machine m's standard normal draw comes from
    ``stream(base_seed, TAG_DESIGN, rep, m)`` and is written straight into
    ``X[m]``; the AR(1) recursion (rows i.i.d. N(0, Sigma),
    Sigma_jk = corr_decay^|j-k|) then runs column by column over all
    machines at once, the same arithmetic on every element as a
    per-machine recursion. ``rep`` enters the seed derivation so
    non-fixed-design experiments can redraw designs per replication; the
    default 0 is the fixed-design stream. A draw at a larger n extends a
    smaller one row for row.
    """
    n = spec.n if n is None else n
    X = np.empty((spec.M, n, spec.d))
    fill_streams(X[:, None], spec.base_seed, TAG_DESIGN, [rep])
    s = spec.corr_decay
    if s != 0.0:
        q = math.sqrt(1.0 - s * s)
        for j in range(1, spec.d):
            X[:, :, j] = s * X[:, :, j - 1] + q * X[:, :, j]
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


def sample_noise(M: int, n: int, base_seed: int, rep: int = 0) -> np.ndarray:
    """(M, n) standard normal noise; row m comes from
    ``stream(base_seed, TAG_NOISE, rep, m)``.

    A length-n draw equals the first n values of a longer draw from the
    same stream (checked for NumPy 2.4 at n/n_cal = 60/100, 80/100, 1/7 and
    33/250), so a grid point at n below the calibrated size sees the prefix
    of the full-size noise.
    """
    W = np.empty((M, n))
    fill_streams(W[:, None], base_seed, TAG_NOISE, [rep])
    return W


def sample_responses(
    X: np.ndarray,
    theta_star: np.ndarray,
    sigma: float,
    base_seed: int,
    rep: int = 0,
) -> np.ndarray:
    """(M, n) responses y_m = X_m theta* + sigma w_m of the stacked designs
    X, with the noise w of ``sample_noise``."""
    if not 0 < sigma < math.inf:
        raise ValueError("sigma must be positive and finite")
    M, n = X.shape[:2]
    return X @ theta_star + sigma * sample_noise(M, n, base_seed, rep)


def compute_c_omega(sandwich_diags) -> float:
    """Largest per-coordinate variance scale over all machines.

    Accepts an iterable of length-d arrays (one per machine) of the diagonal
    of Omega_hat Sigma_hat Omega_hat'.
    """
    diags = [np.asarray(v, dtype=np.float64) for v in sandwich_diags]
    if not diags:
        raise ValueError("no machines")
    return float(max(v.max() for v in diags))
