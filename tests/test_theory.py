import math

import pytest

from votelasso.theory import RegimeReport, thm2_constant, thm2_regime, thm3_regime


class TestThm2Regime:
    def test_frozen_point(self):
        rep = thm2_regime(5000, 0.5, 0.0)
        assert rep.m_lower == pytest.approx(722, abs=2)
        assert rep.m_upper == pytest.approx(5000 / 3)
        assert rep.feasible

    def test_constant_value(self):
        assert thm2_constant(0.5, 5000) == pytest.approx(0.19593, abs=2e-5)

    def test_snr_floor_value(self):
        rep = thm2_regime(5000, 0.5, 0.0)
        # 0.25 * ln^2(48 sqrt(pi) ln^1.5 d) / ln^2 d
        ln_d = math.log(5000)
        floor = 0.25 * math.log(48 * math.sqrt(math.pi) * ln_d**1.5) ** 2 / ln_d**2
        assert rep.snr_floor == pytest.approx(floor)
        assert 0.19 < rep.snr_floor < 0.21

    def test_epsilon_kills_denominator(self):
        growth = 5000 ** ((1 - math.sqrt(0.5)) ** 2)
        eps = thm2_constant(0.5, 5000) / growth
        rep = thm2_regime(5000, 0.5, eps * 1.001)
        assert not rep.feasible
        assert rep.m_lower == math.inf

    def test_m_lower_decreasing_on_grid(self):
        # Monotone decrease holds across the grid where the regime is
        # feasible; near r -> 1 the bound constant degrades and m_lower
        # turns back up, so the grid stops at 0.7.
        grid = [0.35, 0.4, 0.5, 0.6, 0.7]
        vals = [thm2_regime(5000, r, 0.0).m_lower for r in grid]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_infeasible_is_reported_not_raised(self):
        rep = thm2_regime(1000, 0.8, 0.0)
        assert isinstance(rep, RegimeReport)
        # Desk-scale d: the bound's machine range is empty (m_lower > d/3).
        assert rep.m_lower > rep.m_upper
        assert not rep.feasible


class TestThm3Regime:
    def test_frozen_point(self):
        rep = thm3_regime(5000, 0.9, 0.0)
        assert rep.m_lower == pytest.approx(136.3, abs=0.5)
        assert rep.m_upper == pytest.approx(2131, abs=5)
        assert rep.feasible

    def test_snr_floor(self):
        rep = thm3_regime(5000, 0.9, 0.0)
        assert rep.snr_floor == pytest.approx(0.577, abs=1e-3)

    def test_epsilon_boundary_infeasible(self):
        eps = 0.25 / 5000**0.9
        rep = thm3_regime(5000, 0.9, eps)
        assert not rep.feasible

    def test_below_floor_infeasible(self):
        rep = thm3_regime(5000, 0.5, 0.0)
        assert not rep.feasible


@pytest.mark.parametrize("regime", [thm2_regime, thm3_regime])
def test_nan_epsilon_rejected(regime):
    # A NaN epsilon fails every comparison, so it must be rejected up front
    # rather than reported as a NaN machine range.
    with pytest.raises(ValueError, match="eps >= 0"):
        regime(100, 0.5, math.nan)


class TestVartheta:
    def test_algebraic_identity_with_theta_min(self):
        # With theta* = theta_min(d, sigma, r, n, c) and sandwich diagonal c,
        # the normalized signal vartheta = sqrt(n) theta* / (sigma sqrt(c))
        # collapses to sqrt(2 r ln d), the threshold of Theorem 3's regime.
        from votelasso.datagen import theta_min_from_snr

        d, sigma, r, n, c = 800, 1.7, 0.45, 130, 1.9
        tmin = theta_min_from_snr(d, sigma, r, n, c)
        vartheta = math.sqrt(n) * tmin / (sigma * math.sqrt(c))
        assert vartheta == pytest.approx(math.sqrt(2 * r * math.log(d)))
