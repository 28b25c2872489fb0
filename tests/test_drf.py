"""Closed-form distortion curves, ratios, equilibrium, ordering."""

import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import wienerdr.drf as drf
from oracle import ce_integral
from wienerdr.drf import (DistortionBundle, RateSpec, bundle, ce_penalty,
                          d_bar, d_ce, d_opt, d_tilde, d_upper, d_w,
                          dr_asym_coeffs, equilibrium_rbar, g_fun, mmse_fs,
                          ratio_qnt, ratio_smp)
from wienerdr.mc import CeEstimate, ErrorMoments, lemma_bounds
from wienerdr.spectral import (SAMPLED_WIENER, SHIFTED_SAMPLED_WIENER,
                               ProcessParams)
from wienerdr.waterfill import _SERIES_SHARE, MAX_RBAR, MIN_RBAR, water_levels

UNIT = ProcessParams(sigma2=1.0, fs=1.0)
BORDER_RBAR = 0.5 * (1.0 + math.log2(math.sqrt(3.0) + 2.0))
LOW_RATE_COEF = (2.0 + math.sqrt(3.0)) / 6.0
#: where the kernel's Newton start changes branch: just below each density's
#: border rate (1 for the walk, BORDER_RBAR for the interpolator) and at
#: the series share of it
BRANCH_EDGES = (1.0 - 1e-9, _SERIES_SHARE, BORDER_RBAR - 1e-9,
                _SERIES_SHARE * BORDER_RBAR)


class TestDw:
    def test_leading_constant(self):
        # 2 / (pi^2 ln 2) = 0.2923510678...
        assert d_w(RateSpec(1.0), 1.0) == pytest.approx(
            2.0 / (math.pi ** 2 * math.log(2.0)), rel=1e-14)
        assert d_w(RateSpec(1.0), 1.0) == pytest.approx(0.292, abs=5e-4)

    def test_scalings(self):
        base = d_w(RateSpec(1.0), 1.0)
        assert d_w(RateSpec(2.0), 1.0) == pytest.approx(base / 2.0, rel=1e-14)
        assert d_w(RateSpec(1.0), 3.0) == pytest.approx(3.0 * base, rel=1e-14)


class TestMmse:
    def test_values(self):
        assert mmse_fs(UNIT) == pytest.approx(1.0 / 6.0, abs=1e-15)
        assert mmse_fs(ProcessParams(1.0, 4.0)) == pytest.approx(1.0 / 24.0)
        assert mmse_fs(ProcessParams(2.0, 1.0)) == pytest.approx(1.0 / 3.0)


class TestDbar:
    def test_low_rate_identity(self):
        # theta = 2**(-2 rbar) once the level is at or below the floor 1/4
        assert d_bar(UNIT, RateSpec(2.0)) == pytest.approx(2.0 ** -4, abs=1e-10)
        assert d_bar(UNIT, RateSpec(1.0)) == pytest.approx(0.25, abs=1e-10)

    def test_approaches_dw_from_below(self):
        target = d_w(RateSpec(1.0), 1.0)
        gaps = []
        for fs in (20.0, 100.0):
            value = d_bar(ProcessParams(1.0, fs), RateSpec(1.0))
            assert value < target
            gaps.append(target - value)
        assert gaps[1] < gaps[0]


class TestDopt:
    def test_border_point(self):
        assert d_opt(UNIT, RateSpec(BORDER_RBAR)) == pytest.approx(0.25, abs=1e-8)

    def test_closed_form_regime(self):
        expected = 1.0 / 6.0 + LOW_RATE_COEF * 2.0 ** -4
        assert d_opt(UNIT, RateSpec(2.0)) == pytest.approx(expected, abs=1e-8)

    def test_high_rate_gap(self):
        fs = 100.0
        gap = d_opt(ProcessParams(1.0, fs), RateSpec(1.0)) - d_w(RateSpec(1.0), 1.0)
        assert gap * fs ** 2 == pytest.approx(math.log(2.0) / 18.0, rel=0.05)


class TestDtilde:
    def test_border_value(self):
        assert d_tilde(BORDER_RBAR) == pytest.approx(1.0 / 12.0, abs=1e-9)

    def test_closed_form(self):
        assert d_tilde(3.0) == pytest.approx(LOW_RATE_COEF * 2.0 ** -6, abs=1e-10)

    def test_rejects_vanishing_rate(self):
        with pytest.raises(FloatingPointError, match="supported minimum"):
            d_tilde(5e-156)


class TestEquilibrium:
    def test_location(self):
        rbar0 = equilibrium_rbar()
        assert 0.96 <= rbar0 <= 1.00

    def test_defining_equation(self):
        assert d_tilde(equilibrium_rbar()) == pytest.approx(1.0 / 6.0, abs=1e-9)

    def test_ratio_identity_at_equilibrium(self):
        rbar0 = equilibrium_rbar()
        expected = (math.pi ** 2 * math.log(2.0) / 6.0) * rbar0
        assert ratio_smp(rbar0) == pytest.approx(expected, abs=1e-9)


class TestGfun:
    def test_low_rate_identity(self):
        # min = theta everywhere and integral 1/S = 2, so g = 2 theta
        assert g_fun(2.0) == pytest.approx(2.0 * 2.0 ** -4, abs=1e-10)
        assert g_fun(1.0) == pytest.approx(0.5, abs=1e-10)

    def test_saturates_at_one(self):
        assert g_fun(0.01) == pytest.approx(1.0, abs=1e-2)
        assert g_fun(0.01) < 1.0


class TestDce:
    def test_two_thirds_closed_form(self):
        assert d_ce(UNIT, RateSpec(2.0)) == pytest.approx(5.0 / 24.0, abs=1e-8)
        assert d_ce(UNIT, RateSpec(1.0)) == pytest.approx(1.0 / 3.0, abs=1e-8)

    @pytest.mark.parametrize("rbar", [0.3, 0.7, 1.0, 2.0, 4.0])
    def test_two_routes_agree(self, rbar):
        # closed form vs the oracle's quadrature of the weighted integral
        rate = RateSpec(rbar)
        theta = bundle(UNIT, rate).theta_ce
        assert d_ce(UNIT, rate) == pytest.approx(
            1.0 / 6.0 + ce_integral(theta), abs=1e-9)

    def test_high_rate_gap_matches_dopt_order(self):
        # the compress-first penalty vanishes at second order: the fs**-2
        # coefficient of d_ce - d_w coincides with d_opt's, ln2/18
        fs = 100.0
        gap = d_ce(ProcessParams(1.0, fs), RateSpec(1.0)) - d_w(RateSpec(1.0), 1.0)
        assert gap * fs ** 2 == pytest.approx(math.log(2.0) / 18.0, rel=0.05)


class TestDupper:
    def test_closed_form(self):
        assert d_upper(UNIT, RateSpec(2.0)) == pytest.approx(
            1.0 / 6.0 + 1.0 / 16.0, abs=1e-8)
        assert d_upper(UNIT, RateSpec(1.0)) == pytest.approx(
            1.0 / 6.0 + 0.25, abs=1e-8)


class TestRatios:
    def test_ratio_smp_at_equilibrium(self):
        assert 1.10 <= ratio_smp(equilibrium_rbar()) <= 1.14

    def test_ratio_smp_limit(self):
        assert ratio_smp(0.01) == pytest.approx(1.0, abs=1e-3)

    def test_ratio_smp_approaches_one_quadratically(self):
        # ratio_smp - 1 = (pi ln2 rbar)**2 / 36 + O(rbar**4)
        rbar = np.geomspace(1e-3, 1e-2, 41)
        coefficient = (ratio_smp(rbar) - 1.0) / rbar ** 2
        assert (math.pi * math.log(2.0)) ** 2 / 36.0 == \
            pytest.approx(0.1317189, abs=1e-7)
        np.testing.assert_allclose(coefficient, 0.1317189, rtol=0, atol=1e-6)

    @pytest.mark.parametrize("rbar", [0.25, 1.0, 2.0])
    def test_ratio_smp_consistency(self, rbar):
        direct = d_opt(UNIT, RateSpec(rbar)) / d_w(RateSpec(rbar), 1.0)
        assert ratio_smp(rbar) == pytest.approx(direct, abs=1e-9)

    def test_ratio_qnt_values(self):
        assert ratio_qnt(equilibrium_rbar()) == pytest.approx(2.0, abs=1e-9)
        assert ratio_qnt(3.0) == pytest.approx(1.0583, abs=1e-4)
        assert ratio_qnt(8.0) == pytest.approx(1.0, abs=1e-4)

    def test_ratios_depend_on_rbar_only(self):
        # same bits per sample, different absolute scales
        a = bundle(ProcessParams(2.0, 2.0), RateSpec(2.0))
        b = bundle(ProcessParams(5.0, 8.0), RateSpec(8.0))
        assert a.d_opt / a.d_w == pytest.approx(b.d_opt / b.d_w, abs=1e-10)
        assert a.d_opt / a.mmse == pytest.approx(b.d_opt / b.mmse, abs=1e-10)


class TestCePenalty:
    def test_small_grid_bound(self):
        rbars = np.logspace(np.log10(0.3), np.log10(4.0), 40)
        penalties = [ce_penalty(float(r)) for r in rbars]
        assert max(penalties) <= 1.028
        assert min(penalties) >= 1.0 - 1e-12

    def test_vanishes_at_both_ends(self):
        assert ce_penalty(0.02) == pytest.approx(1.0, abs=1e-3)
        assert ce_penalty(8.0) == pytest.approx(1.0, abs=1e-4)


def _richardson_fs2_coefficient(curve) -> float:
    # (d - d_w)*fs^2 = a + b/fs^2 + ...; eliminate b pairwise in 1/fs^2
    rate = RateSpec(1.0)
    dw = d_w(rate, 1.0)
    vals = {fs: (curve(ProcessParams(1.0, fs), rate) - dw) * fs ** 2
            for fs in (50.0, 100.0, 200.0)}
    r1 = (4.0 * vals[100.0] - vals[50.0]) / 3.0
    r2 = (4.0 * vals[200.0] - vals[100.0]) / 3.0
    return (16.0 * r2 - r1) / 15.0


class TestAsymCoeffs:
    def test_catalog(self):
        first = dr_asym_coeffs("first")
        lead = 2.0 / (math.pi ** 2 * math.log(2.0))
        assert first["d_bar"] == pytest.approx(lead, rel=1e-14)
        assert first["d_opt"] == pytest.approx(lead, rel=1e-14)
        second = dr_asym_coeffs("second")
        assert second["d_bar"] == pytest.approx(-math.log(2.0) / 18.0, abs=1e-7)
        assert second["d_opt"] == pytest.approx(0.0385082, abs=1e-7)
        curves = {"d_bar": d_bar, "d_opt": d_opt}
        for name, value in second.items():
            assert value == pytest.approx(
                _richardson_fs2_coefficient(curves[name]), rel=1e-5)
        with pytest.raises(ValueError):
            dr_asym_coeffs("third")


class TestBundle:
    def test_frozen_triple(self):
        b = bundle(UNIT, RateSpec(2.0))
        assert b.d_opt == pytest.approx(0.205542, abs=1e-6)
        assert b.d_ce == pytest.approx(0.208333, abs=1e-6)
        assert b.d_upper == pytest.approx(0.229167, abs=1e-6)

    def test_two_water_levels_differ(self):
        b = bundle(UNIT, RateSpec(0.5))
        assert b.theta_opt != b.theta_ce

    def test_ordering_on_grid(self):
        for fs in np.logspace(np.log10(0.25), np.log10(16.0), 6):
            for rate in np.logspace(np.log10(0.25), np.log10(8.0), 6):
                b = bundle(ProcessParams(1.0, float(fs)), RateSpec(float(rate)))
                slack = 1e-9
                assert max(b.mmse, b.d_w) - slack <= b.d_opt
                assert b.d_opt <= b.d_ce + slack
                assert b.d_ce <= b.d_upper + slack
                assert b.d_bar <= b.d_w + slack

    def test_sigma2_linearity(self):
        rate = RateSpec(1.3)
        one = bundle(ProcessParams(1.0, 2.0), rate)
        three = bundle(ProcessParams(3.0, 2.0), rate)
        for name in ("d_opt", "d_ce", "d_upper", "d_w", "d_bar", "mmse"):
            assert getattr(three, name) == pytest.approx(
                3.0 * getattr(one, name), rel=1e-10)

    def test_ordering_check_rejects_garbage(self):
        for scale in (1.0, 2e-12):   # d_ce half of d_opt: garbage at any scale
            with pytest.raises(ValueError, match="ordering violated"):
                DistortionBundle(d_opt=scale, d_ce=0.5 * scale,
                                 d_upper=2 * scale, d_w=0.1 * scale,
                                 d_bar=0.05 * scale, mmse=0.1 * scale,
                                 theta_opt=0.1, theta_ce=0.1)

    @pytest.mark.parametrize("field,value", [
        ("d_opt", 0.0), ("mmse", 1e-310), ("d_w", math.inf),
        ("theta_ce", math.nan)])
    def test_range_check_names_the_field(self, field, value):
        good = dict(d_opt=1.0, d_ce=1.5, d_upper=2.0, d_w=0.5, d_bar=0.4,
                    mmse=0.5, theta_opt=0.1, theta_ce=0.1)
        DistortionBundle(**good)
        with pytest.raises(FloatingPointError,
                           match=f"^{field} is past the floating-point range"):
            DistortionBundle(**{**good, field: value})

    @pytest.mark.parametrize("field,value", [
        ("estimate", 0.0), ("lower", 1e-310), ("upper", math.inf),
        ("upper", math.nan)])
    def test_ce_estimate_range_check_names_the_field(self, field, value):
        good = dict(estimate=1.5, lower=1.0, upper=2.0)
        CeEstimate(**good)
        with pytest.raises(FloatingPointError,
                           match=f"^{field} is past the floating-point range"):
            CeEstimate(**{**good, field: value})

    def test_mmse_floor_has_one_value(self):
        # 6 fs overflows at fs = 1e308; (sigma2 / fs) / 6 does not
        params = ProcessParams(1e300, 1e308)
        floor = bundle(params, RateSpec(1e308)).mmse
        assert floor == pytest.approx(1e-8 / 6.0, rel=1e-15)
        assert mmse_fs(params) == floor
        zero = ErrorMoments(second=np.zeros(4), cross=np.zeros(3))
        assert lemma_bounds(zero, params) == (floor, floor)


def _sections_inputs():
    """rbar in each form a sweep or a scalar function passes to sections:
    300 random 10-point log grids drawn like the benchmark's sweeps (low end
    log-uniform in [1.05e-4, 0.3], high end in [3, 400]), the 10- and
    3000-point log grids over the whole range, and random scalars, 1-element
    and 2-d arrays."""
    rng = np.random.default_rng(0)

    def draws(size, low=1e-4, high=400.0):
        return np.exp(rng.uniform(math.log(low), math.log(high), size))

    grids = [np.geomspace(draws(None, 1.05e-4, 0.3), draws(None, 3.0, 400.0),
                          10) for _ in range(300)]
    scalars = [MIN_RBAR, MAX_RBAR, 1e-4, 0.03, 0.7, 1.0, 1.2, 5.0, 300.0,
               *BRANCH_EDGES, *draws(400, MIN_RBAR, MAX_RBAR), *draws(400)]
    return ([("scalar", float(x)) for x in scalars]
            + [("1-element", draws(1)) for _ in range(100)]
            + [("log-10", grid) for grid in grids]
            + [(f"log-{n}", np.geomspace(MIN_RBAR, MAX_RBAR, n))
               for n in (10, 3000)]
            + [("2-d", draws((6, 10)))])


def test_each_point_is_its_own_solve():
    # a point is the same in any grid and alone, bit for bit: each entry
    # stops Newton on its own step and sums its own nodes, and the one pass
    # over both densities is each density's water_levels
    for form, rbar in _sections_inputs():
        curves = drf.sections(rbar)
        points = [drf.sections(float(x)) for x in np.ravel(rbar)]
        for side, density in (("shifted", SHIFTED_SAMPLED_WIENER),
                              ("sampled", SAMPLED_WIENER)):
            levels, alone = getattr(curves, side), water_levels(density, rbar)
            for field in ("theta", "crossing", "distortion", "g", "ce"):
                got, want = getattr(levels, field), getattr(alone, field)
                if want is None:   # g and ce belong to the walk alone
                    assert got is None and density.shift
                    continue
                assert type(got) is type(want), (form, field)
                assert np.array_equal(got, want) and \
                    np.shape(got) == np.shape(rbar), (form, rbar, field)
                each = [getattr(getattr(point, side), field)
                        for point in points]
                assert np.array_equal(np.ravel(got), each), (form, rbar, field)


@pytest.mark.parametrize("density", [SAMPLED_WIENER, SHIFTED_SAMPLED_WIENER])
def test_a_scalar_density_is_its_array_entry(density):
    # ``** 2`` calls libm pow on a numpy scalar and multiplies on an array,
    # which can differ in the last bit; the density squares both one way
    phi = 1.0 - np.random.default_rng(0).uniform(0.0, 1.0, 20000)
    values = density(phi)
    assert [density(float(x)) for x in phi] == list(values)
    assert density(0.5762956484781898) == density([0.5762956484781898,
                                                   1.0])[0]


class TestMonotonicity:
    def test_decreasing_in_rate(self):
        rates = np.linspace(0.5, 6.0, 12)
        for fs in (0.5, 1.0, 4.0):
            params = ProcessParams(1.0, fs)
            for fn in (d_opt, d_ce, d_upper):
                vals = [fn(params, RateSpec(float(r))) for r in rates]
                assert np.all(np.diff(vals) < 0)

    def test_decreasing_in_fs(self):
        fss = np.linspace(0.5, 8.0, 12)
        rate = RateSpec(1.0)
        for fn in (d_opt, d_ce, d_upper):
            vals = [fn(ProcessParams(1.0, float(f)), rate) for f in fss]
            assert np.all(np.diff(vals) < 0)


class TestValidation:
    def test_rate_spec(self):
        with pytest.raises(ValueError):
            RateSpec(0.0)
        with pytest.raises(ValueError):
            RateSpec(-1.0)

    def test_min_rbar_enforced(self):
        with pytest.raises(FloatingPointError, match="supported minimum"):
            d_opt(ProcessParams(1.0, 1e160), RateSpec(1e-3))
        with pytest.raises(FloatingPointError, match="supported minimum"):
            drf.sweep(1.0, 1e300, 1e-300)   # R/fs underflows to 0
        for rbar in (0.0, -1.0, math.nan):   # not a rate, so not a range
            with pytest.raises(ValueError, match="rate must be > 0"):
                d_tilde(rbar)
        # exactly at the limit is allowed
        d_tilde(MIN_RBAR)


#: log-uniform over the positive floats, the smallest subnormal included
POSITIVE = st.floats(math.log(5e-324), math.log(sys.float_info.max)).map(
    lambda x: min(math.exp(x), sys.float_info.max))
TINY, HUGE = sys.float_info.min, sys.float_info.max


class TestSweepProperties:
    """Scaling and ordering over log-uniform (sigma2, fs, R) across the
    positive floats, subnormals included; R is rbar fs, with rbar over
    [MIN_RBAR, MAX_RBAR], or drawn on its own."""

    @given(sigma2=POSITIVE, fs=POSITIVE,
           rbar=st.one_of(st.floats(math.log(1e-4), math.log(MAX_RBAR)),
                          st.floats(math.log(MIN_RBAR),
                                    math.log(MAX_RBAR))).map(math.exp),
           rate=st.one_of(st.none(), POSITIVE))
    @example(1.0, 1.0, BRANCH_EDGES[0], None)
    @example(1.0, 1.0, BRANCH_EDGES[1], None)
    @example(1.0, 1.0, BRANCH_EDGES[2], None)
    @example(1.0, 1.0, BRANCH_EDGES[3], None)
    @example(HUGE, TINY, 1.0, None)           # sigma2/fs overflows
    @example(HUGE, 1.0, math.exp(-10.0), None)   # sigma2/R does
    @example(TINY, 1e300, MAX_RBAR, None)     # sigma2/fs underflows
    @example(1.0, 1.0, math.exp(-17.0), None)   # d_bar rounds above d_w
    @example(1.0, 1.0, MIN_RBAR * (1 + 1e-12), None)
    @example(1.18e-207, 8.07e140, 1.0, 6e88)   # d_opt underflows
    @example(1e-300, 1.0, 1.0, 500.0)          # d_bar does
    @example(2.663335e-316, 8.198238786611619e-203, 1.0, 9.09e-321)   # d_w
    @example(1e308, 1.0, 1.0, 0.4)   # sigma2/R overflows, d_w fits
    @example(1e308, 0.5, 1.0, 100.0)   # sigma2/fs overflows, mmse fits
    @settings(max_examples=300, deadline=None)
    def test_scaling_and_ordering(self, sigma2, fs, rbar, rate):
        if rate is None:
            rate = rbar * fs
            assume(0.0 < rate < math.inf)
        rbar = rate / fs
        if not MIN_RBAR <= rbar <= MAX_RBAR:
            with pytest.raises(FloatingPointError, match="supported"):
                drf.sweep(sigma2, fs, rate)
            return
        # exact multiples of the units, which cannot overflow or underflow
        scale, per_rate = Fraction(sigma2) / Fraction(fs), \
            Fraction(sigma2) / Fraction(rate)
        s = drf.sections(rbar)
        expected = {
            "d_opt": scale * Fraction(1.0 / 6.0 + s.d_tilde),
            "d_ce": scale * Fraction(1.0 / 6.0 + s.sampled.ce),
            "d_upper": scale * Fraction(1.0 / 6.0 + s.sampled.distortion),
            "d_w": Fraction(drf._DW_COEF) * per_rate,
            "d_bar": scale * Fraction(s.sampled.distortion),
            "mmse": scale / 6,
            "theta_opt": Fraction(s.shifted.theta),
            "theta_ce": Fraction(s.sampled.theta),
        }
        if not all(TINY <= value <= HUGE
                   for value in expected.values()):   # it would lose digits
            with pytest.raises(FloatingPointError, match="floating-point range"):
                drf.sweep(sigma2, fs, rate)
            return
        b = drf.sweep(sigma2, fs, rate)
        for name, value in expected.items():
            got = getattr(b, name)
            assert TINY <= got <= HUGE, name
            assert got == pytest.approx(float(value), rel=1e-12), name
        slack = 1e-9 * b.d_upper
        assert max(b.mmse, b.d_w) <= b.d_opt + slack
        assert b.d_opt <= b.d_ce + slack
        assert b.d_ce <= b.d_upper + slack
        # the exact relative gap d_w - d_bar, 0.1317 rbar**2, is at least
        # 1.3e-13 from rbar 1e-6 up and falls below rounding under it
        slack = 0.0 if rbar >= 1e-6 else drf._ORDERING_SLACK * b.d_upper
        assert b.d_bar <= b.d_w + slack
