"""Closed-form regime calculators: the machine-count ranges and SNR floors
under which thresholded voting recovers the support (Theorems 2 and 3), as
``votelasso theory`` prints them.

Infeasibility of a regime is reported, never raised, so sweep tooling can
chart feasible regions.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass


@dataclass
class RegimeReport:
    """Feasibility report for one (d, r, epsilon) operating point."""

    snr_floor: float
    m_lower: float
    m_upper: float
    feasible: bool
    epsilon: float

    def to_dict(self) -> dict:
        return asdict(self)


def thm2_constant(r: float, d: int) -> float:
    """C(r, d) = sqrt(2 (1-sqrt r)^2 ln d) / (sqrt(2 pi) (2 (1-sqrt r)^2 ln d + 1))."""
    a = 2.0 * (1.0 - math.sqrt(r)) ** 2 * math.log(d)
    return math.sqrt(a) / (math.sqrt(2.0 * math.pi) * (a + 1.0))


def thm2_regime(d: int, r: float, eps: float) -> RegimeReport:
    """Machine-count range for exact recovery with threshold sqrt(2 ln d).

    m_lower = 8 ln d * d^{(1-sqrt r)^2} / (C(r,d) - eps * d^{(1-sqrt r)^2}),
    m_upper = d / 3. A nonpositive denominator reports m_lower = inf.
    """
    # Negated comparisons, so that a NaN r or eps is rejected too.
    if d < 2 or not 0 < r < 1 or not eps >= 0:
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
        epsilon=eps,
    )


def thm3_regime(d: int, r: float, eps: float) -> RegimeReport:
    """Machine-count range for the low-machine regime, threshold sqrt(2 r ln d).

    m_lower = 16 ln d / (1 - 2 eps), m_upper = d^r, SNR floor
    ln(16 ln d)/ln d; requires eps < 1/(4 d^r).
    """
    # Negated comparisons, so that a NaN r or eps is rejected too.
    if d < 2 or not 0 < r < 1 or not eps >= 0:
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
        epsilon=eps,
    )
