"""Waterfilling: the quadrature oracle's frozen values and guarantees, and the
closed-form kernel's inversion checked against that oracle."""

import functools
import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracle import (ConstantDensity, QuadratureError, ce_integral,
                    distortion_at_theta, integrate, integrate_density,
                    integrate_unit, rate_at_theta)
from wienerdr import drf, waterfill
from wienerdr.spectral import SAMPLED_WIENER, SHIFTED_SAMPLED_WIENER
from wienerdr.waterfill import (MAX_RBAR, MIN_RBAR, solve_theta_for_rate,
                                water_levels)

BORDER_RATE = 0.5 * (1.0 + np.log2(np.sqrt(3.0) + 2.0))  # ~1.44998
#: where the Newton start changes branch, for the walk (border rate 1) and
#: the interpolator (BORDER_RATE)
BRANCH_EDGES = (1.0 - 1e-9, waterfill._SERIES_SHARE, BORDER_RATE - 1e-9,
                waterfill._SERIES_SHARE * BORDER_RATE)


class TestDistortion:
    def test_saturates_below_floor(self):
        # density >= theta everywhere, so the integrand is identically theta
        assert distortion_at_theta(SHIFTED_SAMPLED_WIENER, 1.0 / 12.0) == \
            pytest.approx(1.0 / 12.0, abs=1e-12)
        assert distortion_at_theta(SAMPLED_WIENER, 0.25) == \
            pytest.approx(0.25, abs=1e-12)
        theta = 0.01
        assert distortion_at_theta(SAMPLED_WIENER, theta) / theta == \
            pytest.approx(1.0, abs=1e-12)

    def test_constant_stub(self):
        c = ConstantDensity(0.7)
        assert distortion_at_theta(c, 0.2) == pytest.approx(0.2, abs=1e-12)
        assert distortion_at_theta(c, 1.5) == pytest.approx(0.7, abs=1e-12)

    def test_rejects_bad_theta(self):
        with pytest.raises(ValueError):
            distortion_at_theta(SAMPLED_WIENER, 0.0)

    def test_result_bounded_by_theta(self):
        for theta in (0.3, 1.0, 7.0):
            val = distortion_at_theta(SAMPLED_WIENER, theta)
            assert 0.0 < val <= theta


class TestRate:
    def test_unshifted_identities(self):
        # integral of log2 of the unshifted density vanishes, so for theta
        # at or below the floor the rate is exactly -log2(theta)/2
        assert rate_at_theta(SAMPLED_WIENER, 0.25) == pytest.approx(1.0, abs=1e-10)
        assert rate_at_theta(SAMPLED_WIENER, 2.0 ** -4) == \
            pytest.approx(2.0, abs=1e-10)

    def test_one_ulp_above_the_floor(self):
        # the crossing lies within 1e-8 of phi = 1 there; the rate must not
        # drop to 0
        theta = float(np.nextafter(0.25, 1.0))
        assert rate_at_theta(SAMPLED_WIENER, theta) == pytest.approx(1.0, abs=1e-12)

    def test_border_point(self):
        assert rate_at_theta(SHIFTED_SAMPLED_WIENER, 1.0 / 12.0) == \
            pytest.approx(BORDER_RATE, abs=1e-10)

    def test_positive_for_large_theta(self):
        assert rate_at_theta(SAMPLED_WIENER, 1e6) > 0.0

    def test_constant_stub(self):
        c = ConstantDensity(0.7)
        assert rate_at_theta(c, 0.35) == pytest.approx(0.5, abs=1e-12)
        assert rate_at_theta(c, 0.7) == 0.0
        assert rate_at_theta(c, 2.0) == 0.0

    @given(st.floats(min_value=-4.0, max_value=3.0),
           st.floats(min_value=0.05, max_value=2.0))
    @settings(max_examples=25, deadline=None)
    def test_monotone_in_theta(self, log10_theta, factor):
        t1 = 10.0 ** log10_theta
        t2 = t1 * (1.0 + factor)
        for density in (SAMPLED_WIENER, SHIFTED_SAMPLED_WIENER):
            assert rate_at_theta(density, t1) > rate_at_theta(density, t2)
            assert distortion_at_theta(density, t1) < \
                distortion_at_theta(density, t2)


class TestSolve:
    def test_border_inversion(self):
        point = solve_theta_for_rate(SHIFTED_SAMPLED_WIENER, BORDER_RATE)
        assert point.theta == pytest.approx(1.0 / 12.0, abs=1e-9)
        assert point.distortion == pytest.approx(1.0 / 12.0, abs=1e-9)

    def test_unshifted_one_bit(self):
        point = solve_theta_for_rate(SAMPLED_WIENER, 1.0)
        assert point.theta == pytest.approx(0.25, abs=1e-9)
        assert point.distortion == pytest.approx(0.25, abs=1e-9)

    @pytest.mark.parametrize("rate", [0.1, 0.5, 1.0, 2.0, 4.0])
    def test_round_trip(self, rate):
        for density in (SAMPLED_WIENER, SHIFTED_SAMPLED_WIENER):
            point = solve_theta_for_rate(density, rate)
            assert rate_at_theta(density, point.theta) == \
                pytest.approx(rate, abs=1e-10)

    def test_point_is_consistent_triple(self):
        point = solve_theta_for_rate(SAMPLED_WIENER, 0.7)
        assert point.rate == pytest.approx(
            rate_at_theta(SAMPLED_WIENER, point.theta), abs=1e-14)
        assert point.distortion == pytest.approx(
            distortion_at_theta(SAMPLED_WIENER, point.theta), abs=1e-14)

    @pytest.mark.parametrize("rate", [0.0, -1.0])
    def test_rejects_non_positive_rate(self, rate):
        with pytest.raises(ValueError):
            solve_theta_for_rate(SAMPLED_WIENER, rate)

    def test_bracket_expansion_reaches_far_theta(self):
        # tiny rate puts theta far above the saturated start of the solve
        point = solve_theta_for_rate(SHIFTED_SAMPLED_WIENER, 2e-4)
        assert point.theta > 1e4
        assert rate_at_theta(SHIFTED_SAMPLED_WIENER, point.theta) == \
            pytest.approx(2e-4, abs=1e-10)


class TestKernel:
    """The closed-form kernel against the quadrature oracle and exact forms."""

    @given(st.floats(min_value=np.log(1e-4), max_value=np.log(250.0)))
    @example(math.log(BRANCH_EDGES[0]))
    @example(math.log(BRANCH_EDGES[1]))
    @example(math.log(BRANCH_EDGES[2]))
    @example(math.log(BRANCH_EDGES[3]))
    @settings(max_examples=30, deadline=None)
    def test_matches_oracle(self, log_rbar):
        rbar = float(np.exp(log_rbar))
        for density in (SAMPLED_WIENER, SHIFTED_SAMPLED_WIENER):
            levels = water_levels(density, rbar)
            theta = float(levels.theta)
            assert rate_at_theta(density, theta) == \
                pytest.approx(rbar, abs=1e-10)
            assert waterfill.rate_at_theta(density, theta) == \
                pytest.approx(rbar, abs=1e-10)
            assert distortion_at_theta(density, theta) == \
                pytest.approx(levels.distortion, rel=1e-11)
            assert waterfill.distortion_at_theta(density, theta) == \
                pytest.approx(levels.distortion, rel=1e-11)
        sampled = water_levels(SAMPLED_WIENER, rbar)
        theta = float(sampled.theta)
        g = integrate_density(SAMPLED_WIENER, "reciprocal-weighted",
                              theta=theta)
        assert g == pytest.approx(sampled.g, rel=1e-11)
        assert ce_integral(theta) == pytest.approx(sampled.ce, rel=1e-11)

    @pytest.mark.parametrize("rbar", [300.0, 400.0, 510.0])
    def test_saturated_forms_to_the_edge(self, rbar):
        # past rbar 267 the oracle fails; the exact saturated forms hold
        power = 2.0 ** (-2.0 * rbar)
        shifted = water_levels(SHIFTED_SAMPLED_WIENER, rbar)
        low_rate_coef = (2.0 + np.sqrt(3.0)) / 6.0
        assert shifted.theta == pytest.approx(low_rate_coef * power, rel=1e-12)
        assert shifted.distortion == pytest.approx(low_rate_coef * power,
                                                   rel=1e-12)
        sampled = water_levels(SAMPLED_WIENER, rbar)
        assert sampled.theta == pytest.approx(power, rel=1e-12)
        assert sampled.distortion == pytest.approx(power, rel=1e-12)
        assert sampled.g == pytest.approx(2.0 * power, rel=1e-12)
        assert sampled.ce == pytest.approx(2.0 / 3.0 * power, rel=1e-12)

    def test_array_matches_scalar_solves(self):
        rbars = np.array([1e-4, 0.03, 0.7, 1.2, 5.0, 300.0])
        levels = water_levels(SHIFTED_SAMPLED_WIENER, rbars)
        for i, rbar in enumerate(rbars):
            point = solve_theta_for_rate(SHIFTED_SAMPLED_WIENER, rbar)
            assert levels.theta[i] == point.theta
            assert levels.distortion[i] == point.distortion

    @pytest.mark.parametrize("density", [SAMPLED_WIENER, SHIFTED_SAMPLED_WIENER])
    def test_crossing_is_the_density_crossing(self, density):
        levels = water_levels(density, np.geomspace(1e-4, 500.0, 3000))
        assert np.array_equal(density.crossing(levels.theta), levels.crossing)

    @pytest.mark.parametrize("density", [SAMPLED_WIENER, SHIFTED_SAMPLED_WIENER,
                                         None], ids=["density0", "density1",
                                                     "both"])
    def test_at_most_four_rate_evaluations(self, density, monkeypatch):
        # None: the one pass of drf.sections over both densities
        calls = []
        rate = waterfill._two_ln2_rate

        def counted(*args):
            calls.append(None)
            return rate(*args)

        monkeypatch.setattr(waterfill, "_two_ln2_rate", counted)
        solve = (drf.sections if density is None
                 else functools.partial(water_levels, density))
        rbars = np.geomspace(MIN_RBAR, waterfill.MAX_RBAR, 3000)
        solve(rbars)
        assert len(calls) <= 4
        worst = 0
        for rbar in rbars:
            calls.clear()
            solve(rbar)
            worst = max(worst, len(calls))
        assert worst <= 4

    def test_refuses_past_the_underflow_edge(self):
        with pytest.raises(FloatingPointError, match="510.9.*510.658"):
            water_levels(SAMPLED_WIENER, np.array([1.0, 510.9]))
        water_levels(SHIFTED_SAMPLED_WIENER, waterfill.MAX_RBAR)

    def test_refuses_past_the_overflow_edge(self):
        assert MIN_RBAR == pytest.approx(6.8501e-155, rel=1e-5)
        with pytest.raises(FloatingPointError,
                           match="6.8e-155 .*below .* 6.8501e-155"):
            water_levels(SHIFTED_SAMPLED_WIENER, np.array([1.0, 6.8e-155]))
        with pytest.raises(ValueError, match="rate must be > 0"):
            water_levels(SAMPLED_WIENER, np.array([MIN_RBAR, math.nan]))
        water_levels(SAMPLED_WIENER, MIN_RBAR)

    @pytest.mark.parametrize("density", [SAMPLED_WIENER, SHIFTED_SAMPLED_WIENER])
    def test_strictly_decreasing_over_the_whole_range(self, density):
        levels = water_levels(density, np.geomspace(MIN_RBAR, MAX_RBAR, 20000))
        assert np.all(np.diff(levels.theta) < 0)
        assert np.all(np.diff(levels.distortion) < 0)


def series_theta(rbar: float, shift: float):
    """The exact water level at small rbar, from the small-phic series
    pi ln2 rbar = x (1 -+ x**2/36) in x = pi phic (- for the walk, + for the
    interpolator), theta = S(x / pi); its O(x**5) error is far below an ulp
    for rbar <= 1e-6."""
    with mpmath.workdps(40):
        y = mpmath.pi * mpmath.log(2) * mpmath.mpf(rbar)
        sign = 1 if shift else -1
        x = mpmath.findroot(lambda x: x * (1 + sign * x * x / 36) - y, y)
        return 1 / (4 * mpmath.sin(x / 2) ** 2) - mpmath.mpf(shift)


@given(st.floats(math.log(MIN_RBAR), math.log(1e-6)))
@example(math.log(MIN_RBAR))
@settings(max_examples=60, deadline=None)
def test_theta_matches_the_small_crossing_series(log_rbar):
    """theta is carried as ln theta, so its relative error is bounded by
    about |ln theta| 2**-53; (|ln theta| + 8) 2**-52 leaves room for the
    ulps of the last exp and of the density."""
    rbar = max(math.exp(log_rbar), MIN_RBAR)
    for density, shift in ((SAMPLED_WIENER, 0), (SHIFTED_SAMPLED_WIENER,
                                                  mpmath.mpf(1) / 6)):
        theta = float(water_levels(density, rbar).theta)
        error = abs(mpmath.mpf(theta) / series_theta(rbar, shift) - 1)
        assert error <= (abs(math.log(theta)) + 8) * 2.0 ** -52


class TestIntegrateDensity:
    def test_reciprocal_of_unshifted(self):
        # 1/S = 4 sin^2(pi phi / 2) integrates to 2 exactly
        assert integrate_density(SAMPLED_WIENER, "reciprocal") == \
            pytest.approx(2.0, abs=1e-10)

    def test_identity_on_constant(self):
        assert integrate_density(ConstantDensity(0.7), "identity") == \
            pytest.approx(0.7, abs=1e-12)

    def test_reciprocal_weighted(self):
        # min{theta, S} = theta below the floor, and integral 1/S = 2
        assert integrate_density(SAMPLED_WIENER, "reciprocal-weighted",
                                 theta=0.125) == pytest.approx(0.25, abs=1e-10)

    def test_identity_diverges_on_analytic_density(self):
        with pytest.raises(QuadratureError):
            integrate_density(SAMPLED_WIENER, "identity")

    def test_validation(self):
        with pytest.raises(ValueError):
            integrate_density(SAMPLED_WIENER, "no-such-transform")
        with pytest.raises(ValueError):
            integrate_density(SAMPLED_WIENER, "reciprocal-weighted")


class TestQuadratureGuarantees:
    @pytest.mark.parametrize("theta", [1.0 / 12.0, 0.1, 0.25, 1.0, 5.0])
    @pytest.mark.parametrize("density", [SAMPLED_WIENER, SHIFTED_SAMPLED_WIENER])
    def test_strategy_invariance(self, density, theta):
        d_graded = distortion_at_theta(density, theta, graded=True)
        d_plain = distortion_at_theta(density, theta, graded=False)
        assert abs(d_graded - d_plain) < 2e-9
        r_graded = rate_at_theta(density, theta, graded=True)
        r_plain = rate_at_theta(density, theta, graded=False)
        assert abs(r_graded - r_plain) < 2e-9

    def test_error_estimates_within_budget(self):
        theta = 0.4
        cross = SAMPLED_WIENER.crossing(theta)
        f = lambda phi: np.minimum(theta, SAMPLED_WIENER(phi))
        for graded in (True, False):
            _, err = integrate_unit(f, graded=graded, breakpoints=(cross,))
            assert err <= 1e-9
        g = lambda phi: 0.5 * np.log2(SAMPLED_WIENER(phi) / theta)
        _, err = integrate_unit(g, upper=cross, graded=True)
        assert err <= 1e-9

    def test_halving_base_step(self):
        theta = 0.4
        cross = SAMPLED_WIENER.crossing(theta)
        g = lambda phi: 0.5 * np.log2(SAMPLED_WIENER(phi) / theta)
        coarse, _ = integrate_unit(g, upper=cross, initial_panels=2)
        fine, _ = integrate_unit(g, upper=cross, initial_panels=4)
        assert abs(coarse - fine) < 1e-9

    @pytest.mark.parametrize("theta", [0.25, 0.3, 2.0])
    @pytest.mark.parametrize("density", [SAMPLED_WIENER, SHIFTED_SAMPLED_WIENER])
    def test_waterfilling_identity_on_truncated_domain(self, density, theta):
        # flooded part plus the part above water rebuild the full density
        eps = 1e-3
        cross = density.crossing(theta)
        bps = (cross,) if cross is not None else ()
        below = integrate(lambda p: np.minimum(theta, density(p)), eps, 1.0,
                          breakpoints=bps)[0]
        above = integrate(lambda p: np.maximum(density(p) - theta, 0.0),
                          eps, 1.0, breakpoints=bps)[0]
        full = integrate(density, eps, 1.0, breakpoints=bps)[0]
        assert below + above == pytest.approx(full, abs=5e-9)

    def test_divergent_integral_reports_estimate(self):
        with pytest.raises(QuadratureError) as info:
            integrate_unit(SAMPLED_WIENER, graded=False)
        assert info.value.error_estimate > 0
