"""Executable closed-form bounds: Gaussian and binomial tails, the bias
envelope of the debiased estimator, worst-case CDF approximation error, and
the machine-count ranges under which voting recovers the support.

Several constants in these bounds are never pinned down numerically by the
underlying theory; ``TheoryConstants`` carries user-supplied values with
illustrative defaults (see the docstring there). Infeasibility of a regime
is reported, never raised, so sweep tooling can chart feasible regions.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass


@dataclass(frozen=True)
class TheoryConstants:
    """User-supplied constants for the non-explicit bounds.

    Defaults are illustrative only: C_bias = rho = 1, exponents 0.25, and
    K_omega = 2 (the AR(1) precision matrix is tridiagonal, so each row has
    two off-diagonal nonzeros). All overridable.
    """

    C_bias: float = 1.0
    rho: float = 1.0
    K_omega: int = 2
    c_star: float = 0.25
    c_small: float = 0.25

    def __post_init__(self):
        for name, value in asdict(self).items():
            if value <= 0:
                raise ValueError(f"{name} must be positive")


@dataclass
class RegimeReport:
    """Feasibility report for one (d, r, epsilon) operating point."""

    snr_floor: float
    m_lower: float
    m_upper: float
    feasible: bool
    epsilon_tau: float
    delta_R: float | None = None

    def to_dict(self) -> dict:
        return asdict(self)


def gaussian_tail_bounds(t: float) -> tuple[float, float]:
    """Two-sided envelope of the standard Gaussian upper tail at t > 0:

    t/(sqrt(2 pi)(t^2+1)) e^{-t^2/2}  <=  1 - Phi(t)  <=  1/(sqrt(2 pi) t) e^{-t^2/2}
    """
    if t <= 0:
        raise ValueError("t must be positive")
    core = math.exp(-0.5 * t * t) / math.sqrt(2.0 * math.pi)
    return t * core / (t * t + 1.0), core / t


def binomial_tail_bound(M: int, p: float, a: float) -> float:
    """Chernoff-type bound on Pr(Bin(M, p) > M a) for 0 < p <= a < 1:
    exp(M * F(a, p)) with F(a, p) = a ln(p/a) + (1-a) ln((1-p)/(1-a))."""
    if M < 1:
        raise ValueError("M must be a positive integer")
    if not 0 < p < 1:
        raise ValueError("p must lie in (0, 1)")
    if a < p:
        raise ValueError("bound requires a >= p")
    if a >= 1:
        raise ValueError("a must be strictly below 1")
    F = a * math.log(p / a) + (1.0 - a) * math.log((1.0 - p) / (1.0 - a))
    return math.exp(M * F)


def delta_R_bound(consts: TheoryConstants, sigma: float, d: int, n: int, K: int) -> float:
    """Envelope of the debiasing remainder:
    C sigma (ln d / sqrt(n)) (rho sqrt(K) + min(K, K_omega))."""
    if min(sigma, d, n, K) <= 0:
        raise ValueError("all arguments must be positive")
    return (
        consts.C_bias
        * sigma
        * (math.log(d) / math.sqrt(n))
        * (consts.rho * math.sqrt(K) + min(K, consts.K_omega))
    )


def vartheta(theta_star_k: float, n: int, sigma: float, sandwich_diag_kk: float) -> float:
    """Normalized signal of one coordinate: sqrt(n) theta*_k / (sigma sqrt(c_kk))."""
    if sigma <= 0 or sandwich_diag_kk <= 0:
        raise ValueError("sigma and the sandwich diagonal must be positive")
    return math.sqrt(n) * theta_star_k / (sigma * math.sqrt(sandwich_diag_kk))


def _phi(x: float) -> float:
    return math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)


def epsilon_tau(
    consts: TheoryConstants,
    sigma: float,
    d: int,
    n: int,
    K: int,
    tau: float,
    sandwich_diag_min: float,
    vartheta_values,
) -> float:
    """Worst-case Gaussian-CDF approximation error of the standardized
    estimator at threshold tau, maximized over the supplied normalized
    signals (0 must be included to cover non-support coordinates):

    max_k delta_R phi(tau - vartheta_k) / (sigma sqrt(c_min))
        + 2 d e^{-c* n / K} + d e^{-c n} + 6 / d^2
    """
    if sandwich_diag_min <= 0:
        raise ValueError("sandwich_diag_min must be positive")
    values = list(vartheta_values)
    if not values:
        raise ValueError("vartheta_values must be nonempty")
    dr = delta_R_bound(consts, sigma, d, n, K)
    peak = max(_phi(tau - v) for v in values)
    tails = (
        2.0 * d * math.exp(-consts.c_star * n / K)
        + d * math.exp(-consts.c_small * n)
        + 6.0 / d**2
    )
    return dr * peak / (sigma * math.sqrt(sandwich_diag_min)) + tails


def thm2_constant(r: float, d: int) -> float:
    """C(r, d) = sqrt(2 (1-sqrt r)^2 ln d) / (sqrt(2 pi) (2 (1-sqrt r)^2 ln d + 1))."""
    a = 2.0 * (1.0 - math.sqrt(r)) ** 2 * math.log(d)
    return math.sqrt(a) / (math.sqrt(2.0 * math.pi) * (a + 1.0))


def thm2_regime(d: int, r: float, eps: float) -> RegimeReport:
    """Machine-count range for exact recovery with threshold sqrt(2 ln d).

    m_lower = 8 ln d * d^{(1-sqrt r)^2} / (C(r,d) - eps * d^{(1-sqrt r)^2}),
    m_upper = d / 3. A nonpositive denominator reports m_lower = inf.
    """
    if d < 2 or not 0 < r < 1 or eps < 0:
        raise ValueError("need d >= 2, r in (0, 1), eps >= 0")
    ln_d = math.log(d)
    snr_floor = 0.25 * math.log(48.0 * math.sqrt(math.pi) * ln_d**1.5) ** 2 / ln_d**2
    growth = d ** ((1.0 - math.sqrt(r)) ** 2)
    denom = thm2_constant(r, d) - eps * growth
    m_lower = math.inf if denom <= 0 else 8.0 * ln_d * growth / denom
    m_upper = d / 3.0
    feasible = m_lower <= m_upper and snr_floor < r < 1
    return RegimeReport(
        snr_floor=snr_floor,
        m_lower=m_lower,
        m_upper=m_upper,
        feasible=feasible,
        epsilon_tau=eps,
    )


def thm3_regime(d: int, r: float, eps: float) -> RegimeReport:
    """Machine-count range for the low-machine regime, threshold sqrt(2 r ln d).

    m_lower = 16 ln d / (1 - 2 eps), m_upper = d^r, SNR floor
    ln(16 ln d)/ln d; requires eps < 1/(4 d^r).
    """
    if d < 2 or not 0 < r < 1 or eps < 0:
        raise ValueError("need d >= 2, r in (0, 1), eps >= 0")
    ln_d = math.log(d)
    snr_floor = math.log(16.0 * ln_d) / ln_d
    m_upper = d**r
    m_lower = math.inf if eps >= 0.5 else 16.0 * ln_d / (1.0 - 2.0 * eps)
    feasible = eps < 1.0 / (4.0 * m_upper) and snr_floor < r < 1 and m_lower <= m_upper
    return RegimeReport(
        snr_floor=snr_floor,
        m_lower=m_lower,
        m_upper=m_upper,
        feasible=feasible,
        epsilon_tau=eps,
    )


def lemma2_condition(p_min: float, d: int, M: int) -> bool:
    """Support coordinates are sent often enough: p_min >= 8 ln d / M."""
    return p_min >= 8.0 * math.log(d) / M


def lemma3_condition(p_max_nonsupport: float, M: int) -> bool:
    """Non-support coordinates are sent rarely enough: p <= 1 / M."""
    return p_max_nonsupport <= 1.0 / M
