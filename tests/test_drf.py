"""Closed-form distortion curves, ratios, equilibrium, ordering."""

import math
import sys

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
from wienerdr.spectral import ProcessParams
from wienerdr.waterfill import _SERIES_SHARE, MAX_RBAR

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
        with pytest.raises(ValueError):
            d_tilde(5e-5)


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
        with pytest.raises(ValueError):
            DistortionBundle(d_opt=1.0, d_ce=0.5, d_upper=2.0, d_w=0.1,
                             d_bar=0.05, mmse=0.1, theta_opt=0.1, theta_ce=0.1)


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
        with pytest.raises(ValueError):
            d_opt(ProcessParams(1.0, 100.0), RateSpec(1e-3))
        # exactly at the limit is allowed
        d_tilde(drf.MIN_RBAR)


#: natural-log bounds of the normal floats, pulled in so that exp stays inside
LOG_NORMAL = (math.log(sys.float_info.min) + 1e-12,
              math.log(sys.float_info.max) - 1e-12)


class TestSweepProperties:
    """Scaling and ordering over log-uniform (sigma2, fs, R) across the
    normal floats, R/fs up to MAX_RBAR, extremes included."""

    @given(log_sigma2=st.floats(*LOG_NORMAL),
           log_fs=st.floats(*LOG_NORMAL),
           log_rbar=st.floats(math.log(drf.MIN_RBAR), math.log(MAX_RBAR)))
    @example(0.0, 0.0, math.log(BRANCH_EDGES[0]))
    @example(0.0, 0.0, math.log(BRANCH_EDGES[1]))
    @example(0.0, 0.0, math.log(BRANCH_EDGES[2]))
    @example(0.0, 0.0, math.log(BRANCH_EDGES[3]))
    @example(LOG_NORMAL[1], LOG_NORMAL[0], 0.0)       # sigma2/fs overflows
    @example(LOG_NORMAL[1], 0.0, math.log(drf.MIN_RBAR))   # sigma2/R does
    @example(LOG_NORMAL[0], LOG_NORMAL[1], math.log(MAX_RBAR))   # underflow
    @settings(max_examples=150, deadline=None)
    def test_scaling_and_ordering(self, log_sigma2, log_fs, log_rbar):
        sigma2, fs = math.exp(log_sigma2), math.exp(log_fs)
        rate = math.exp(log_rbar) * fs
        assume(0.0 < rate < math.inf)
        assume(drf.MIN_RBAR <= rate / fs <= MAX_RBAR)
        scale = sigma2 / fs
        if not (scale < math.inf and sigma2 / rate < math.inf):
            with pytest.raises(FloatingPointError, match="floating-point range"):
                drf.sweep(sigma2, fs, rate)
            return
        b = drf.sweep(sigma2, fs, rate)   # the DistortionBundle ordering holds
        s = drf.sections(rate / fs)
        expected = {
            "d_opt": scale * (1.0 / 6.0 + s.d_tilde),
            "d_ce": scale * (1.0 / 6.0 + s.sampled.ce),
            "d_upper": scale * (1.0 / 6.0 + s.sampled.distortion),
            "d_bar": scale * s.sampled.distortion,
            "mmse": scale / 6.0,
            "theta_opt": s.shifted.theta,
            "theta_ce": s.sampled.theta,
        }
        for name, value in expected.items():
            got = getattr(b, name)
            assert math.isfinite(got), name
            if value >= sys.float_info.min:   # else it has lost digits
                assert got == pytest.approx(value, rel=1e-12), name
        assert b.d_bar <= b.d_w
