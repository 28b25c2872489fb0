"""Closed-form distortion curves, ratios, equilibrium, ordering."""

import math
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import wienerdr.drf as drf
from oracle import ce_integral
from test_acceptance import _richardson_fs2_coefficient
from wienerdr import waterfill
from wienerdr.drf import (DistortionBundle, RateSpec, bundle, ce_penalty,
                          d_bar, d_ce, d_opt, d_upper, d_w, equilibrium_rbar,
                          g_fun, ratio_qnt, ratio_smp)
from wienerdr.mc import CeEstimate
from wienerdr.spectral import (SAMPLED_WIENER, SHIFTED_SAMPLED_WIENER,
                               ProcessParams)
from wienerdr.waterfill import MAX_RBAR, MIN_RBAR, solve_theta_for_rate

UNIT = ProcessParams(sigma2=1.0, fs=1.0)
BORDER_RBAR = 0.5 * (1.0 + math.log2(math.sqrt(3.0) + 2.0))
LOW_RATE_COEF = (2.0 + math.sqrt(3.0)) / 6.0
#: where the kernel's Newton start is least settled: at each density's
#: border rate (1 for the walk, BORDER_RBAR for the interpolator), where the
#: level saturates, one ulp and 1e-9 below it, where c = cot(pi phic / 2) is
#: about 1e-8 and 1e-4, and at 0.65 of it, where an earlier start changed
#: branch
BRANCH_EDGES = (1.0, math.nextafter(1.0, 0.0), 1.0 - 1e-9, 0.65,
                BORDER_RBAR, math.nextafter(BORDER_RBAR, 0.0),
                BORDER_RBAR - 1e-9, 0.65 * BORDER_RBAR)


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
        rate = RateSpec(1.0)
        assert bundle(UNIT, rate).mmse == pytest.approx(1.0 / 6.0, abs=1e-15)
        assert bundle(ProcessParams(1.0, 4.0), rate).mmse == \
            pytest.approx(1.0 / 24.0)
        assert bundle(ProcessParams(2.0, 1.0), rate).mmse == \
            pytest.approx(1.0 / 3.0)


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
        assert drf.sections(BORDER_RBAR).d_tilde == pytest.approx(
            1.0 / 12.0, abs=1e-9)

    def test_closed_form(self):
        assert drf.sections(3.0).d_tilde == pytest.approx(
            LOW_RATE_COEF * 2.0 ** -6, abs=1e-10)

    def test_rejects_vanishing_rate(self):
        with pytest.raises(FloatingPointError, match="supported minimum"):
            drf.sections(5e-156)


class TestEquilibrium:
    def test_location(self):
        rbar0 = equilibrium_rbar()
        assert 0.96 <= rbar0 <= 1.00

    def test_pinned_bit_for_bit(self):
        assert equilibrium_rbar().hex() == "0x1.f645012ce8606p-1"

    def test_defining_equation(self):
        assert drf.sections(equilibrium_rbar()).d_tilde == pytest.approx(
            1.0 / 6.0, abs=1e-9)

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


#: 601 log-spaced rbar toward the paper's fs -> infinity limits, where each
#: excess below is a difference of two nearly equal floats
SMALL_RBAR = np.geomspace(1e-8, 1e-2, 601)
CANCELLED = pytest.mark.xfail(
    strict=True, reason="ROADMAP item 13: excess lost to cancellation")


class TestOrderingsNearZeroRate:
    """The paper's orderings in every row toward rbar -> 0; today each
    fails at some of these points (21, 159 and 3 of them)."""

    @CANCELLED
    def test_ratio_smp_is_at_least_one(self):
        assert (drf.sections(SMALL_RBAR).ratio_smp >= 1.0).all()

    @CANCELLED
    def test_ce_penalty_is_at_least_one(self):
        assert (drf.sections(SMALL_RBAR).ce_penalty >= 1.0).all()

    @CANCELLED
    def test_d_bar_is_at_most_d_w(self):
        curves = drf.sweep(1.0, 1.0, SMALL_RBAR)
        assert (curves.d_bar <= curves.d_w).all()


class TestAsymCoeffs:
    def test_catalog(self):
        # d = d_w + c R/fs^2 + ..., with d_w = 2 sigma2/(pi^2 ln2 R) and
        # c = -ln2/18 for d_bar, +ln2/18 for d_opt; the README derives c
        lead = 2.0 / (math.pi ** 2 * math.log(2.0))
        assert d_w(RateSpec(1.0), 1.0) == pytest.approx(lead, rel=1e-14)
        for curve, sign in ((d_bar, -1.0), (d_opt, 1.0)):
            assert sign * math.log(2.0) / 18.0 == pytest.approx(
                _richardson_fs2_coefficient(curve), rel=1e-5)


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


def _sections_inputs():
    """rbar in each form a sweep or a scalar function passes to sections:
    300 random 10-point log grids drawn like the benchmark's sweeps (low end
    log-uniform in [1.05e-4, 0.3], high end in [3, 400]), the 10- and
    3000-point log grids over the whole range, a fixed 6-point array, random
    scalars, 1-element and 2-d arrays, and a random grid over the whole range
    of three and a ragged part of ``waterfill._BLOCK`` entries."""
    rng = np.random.default_rng(0)

    def draws(size, low=1e-4, high=400.0):
        return np.exp(rng.uniform(math.log(low), math.log(high), size))

    grids = [np.geomspace(draws(None, 1.05e-4, 0.3), draws(None, 3.0, 400.0),
                          10) for _ in range(300)]
    scalars = [MIN_RBAR, MAX_RBAR, 1e-4, 0.03, 0.7, 1.0, 1.2, 5.0, 300.0,
               *BRANCH_EDGES, *draws(400, MIN_RBAR, MAX_RBAR), *draws(400)]
    return ([("scalar", float(x)) for x in scalars]
            + [("6-point", np.array([1e-4, 0.03, 0.7, 1.2, 5.0, 300.0]))]
            + [("1-element", draws(1)) for _ in range(100)]
            + [("log-10", grid) for grid in grids]
            + [(f"log-{n}", np.geomspace(MIN_RBAR, MAX_RBAR, n))
               for n in (10, 3000)]
            + [("2-d", draws((6, 10))),
               ("blocks", draws(3 * waterfill._BLOCK + 123, MIN_RBAR,
                                MAX_RBAR))])


def test_each_point_is_its_own_solve():
    # a point is the same in any grid, in any block of one, and alone, bit
    # for bit: each entry takes the same Newton step and sums its own
    # nodes, and is its density's solve_theta_for_rate at its rbar, the
    # one-rate route against the array route
    for form, rbar in _sections_inputs():
        curves = drf.sections(rbar)
        flat = [float(x) for x in np.ravel(rbar)]
        points = [drf.sections(x) for x in flat]
        for side, density in (("shifted", SHIFTED_SAMPLED_WIENER),
                              ("sampled", SAMPLED_WIENER)):
            levels = getattr(curves, side)
            alone = [solve_theta_for_rate(density, x) for x in flat]
            for field in ("theta", "distortion"):
                got = getattr(levels, field)
                want = [getattr(point, field) for point in alone]
                assert all(type(x) is np.float64 for x in want), (form, field)
                assert type(got) is (np.ndarray if np.ndim(rbar)
                                     else np.float64), (form, field)
                assert np.array_equal(np.ravel(got), want) and \
                    np.shape(got) == np.shape(rbar), (form, rbar, field)
                each = [getattr(getattr(point, side), field)
                        for point in points]
                assert np.array_equal(np.ravel(got), each), (form, rbar, field)
        for field in ("g", "ce"):   # the walk's, on the sections
            got = getattr(curves, field)
            each = [getattr(point, field) for point in points]
            assert all(type(x) is np.float64 for x in each), (form, field)
            assert type(got) is (np.ndarray if np.ndim(rbar)
                                 else np.float64), (form, field)
            assert np.array_equal(np.ravel(got), each) and \
                np.shape(got) == np.shape(rbar), (form, rbar, field)


#: (shifted theta, shifted distortion, sampled theta, sampled distortion,
#: g, ce) of ``drf.sections`` by rbar, each pinned to its repr
PINNED_SECTIONS = {
    0.05: (84.32694508337339, 5.682281154317073, 84.38250065924953,
           5.845097003032298, 0.9768920486502859, 5.682281661590584),
    0.98: (0.19695488110886153, 0.16693809627981293, 0.25759276571358936,
           0.25703454391684355, 0.5129659426492632, 0.17154022014196635),
    1.3: (0.1055870987834577, 0.10281755094245612, 0.16493848884661177,
          0.16493848884661177, 0.32987697769322355, 0.10995899256440786),
    400.0: (9.328241175679437e-242, 9.328241175679437e-242,
            1.499696813895631e-241, 1.499696813895631e-241,
            2.999393627791262e-241, 9.997978759304207e-242),
}


def _pinned_fields(s):
    return (s.shifted.theta, s.shifted.distortion, s.sampled.theta,
            s.sampled.distortion, s.g, s.ce)


@pytest.mark.parametrize("rbar", sorted(PINNED_SECTIONS))
def test_sections_are_pinned_bit_for_bit(rbar):
    want = [repr(x) for x in PINNED_SECTIONS[rbar]]
    assert [repr(float(x)) for x in _pinned_fields(drf.sections(rbar))] \
        == want
    grid = drf.sections(np.array(sorted(PINNED_SECTIONS)))
    at = sorted(PINNED_SECTIONS).index(rbar)
    assert [repr(float(x[at])) for x in _pinned_fields(grid)] == want


def test_sections_memory_is_a_small_multiple_of_its_result():
    # the solve walks the grid in blocks, so past the result itself its
    # temporaries are bounded by one block
    rbar = np.geomspace(1e-4, 400.0, 200_000)
    tracemalloc.start()
    try:
        curves = drf.sections(rbar)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    result = rbar.nbytes + curves.g.nbytes + sum(
        value.nbytes for levels in (curves.shifted, curves.sampled)
        for value in vars(levels).values())
    assert result == 6 * rbar.nbytes
    assert peak <= 1.6 * result, peak / result


@pytest.mark.parametrize("density", [SAMPLED_WIENER, SHIFTED_SAMPLED_WIENER])
def test_rate_at_theta_memory_is_its_result_and_one_block(density):
    # the rate walks theta in blocks, so past the result its temporaries are
    # a few arrays of one block by the 24 nodes, whatever the length
    theta = np.geomspace(1e-3, 1e3, 200_000)
    tracemalloc.start()
    try:
        rate = waterfill.rate_at_theta(density, theta)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    block_nodes = waterfill._BLOCK * 24 * 8
    assert peak <= rate.nbytes + 6 * block_nodes, (peak, rate.nbytes)


def _owner(array):
    while isinstance(array.base, np.ndarray):
        array = array.base
    return array


def test_a_sweep_holds_only_the_columns_it_returns():
    # over R at one sigma2/fs, mmse is one value broadcast, and the water
    # levels keep alive their own two rows, not the distortions' block
    rate = np.geomspace(1e-3, 1e2, 200_000)
    tracemalloc.start()
    try:
        b = drf.sweep(1.0, 1.0, rate)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held <= 7 * rate.nbytes + 500_000, held / rate.nbytes
    levels = _owner(b.theta_opt)
    assert levels is _owner(b.theta_ce) and levels.nbytes == 2 * rate.nbytes
    for name, value in vars(b).items():
        if name not in ("theta_opt", "theta_ce"):
            assert not np.shares_memory(value, levels), name


def test_a_sigma2_sweep_solves_its_one_rate_once(monkeypatch):
    solve_block, solved = waterfill._solve_block, []

    def counted(rbar, *rows):
        solved.append(rbar.size)
        return solve_block(rbar, *rows)

    monkeypatch.setattr(waterfill, "_solve_block", counted)
    sigma2 = np.linspace(1.0, 2.0, 1000)
    b = drf.sweep(sigma2, 1.0, 1.0)
    assert sum(solved) == 1
    for i in (0, 1, 377, 999):
        point = bundle(ProcessParams(float(sigma2[i]), 1.0), RateSpec(1.0))
        for name, value in vars(point).items():
            assert getattr(b, name)[i] == value, (i, name)


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
                drf.sections(rbar)
        # exactly at the limit is allowed
        drf.sections(MIN_RBAR)


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
    @example(1.0, 1.0, BRANCH_EDGES[4], None)
    @example(1.0, 1.0, BRANCH_EDGES[5], None)
    @example(1.0, 1.0, BRANCH_EDGES[6], None)
    @example(1.0, 1.0, BRANCH_EDGES[7], None)
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
            "d_ce": scale * Fraction(1.0 / 6.0 + s.ce),
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
