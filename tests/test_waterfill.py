"""Waterfilling: the quadrature oracle's frozen values and guarantees, and the
closed-form kernel's inversion checked against that oracle."""

import functools
import math
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracle import (QuadratureError, ce_integral, distortion_at_theta,
                    g_integral, integrate, integrate_unit, rate_at_theta)
from test_drf import BORDER_RBAR, BRANCH_EDGES, _sections_inputs
from test_kernel_reference import read_table
from wienerdr import cli, drf, waterfill
from wienerdr.spectral import (SAMPLED_WIENER, SHIFTED_SAMPLED_WIENER,
                               SpectralDensity)
from wienerdr.waterfill import MAX_RBAR, MIN_RBAR, solve_theta_for_rate

#: each density's row of the kernel's stack
ROWS = {SHIFTED_SAMPLED_WIENER: 0, SAMPLED_WIENER: 1}


def sections_of(density, rbar):
    """The density's water levels in ``drf.sections`` over rbar."""
    return getattr(drf.sections(rbar),
                   "shifted" if density.shift else "sampled")


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
            pytest.approx(BORDER_RBAR, abs=1e-10)

    def test_positive_for_large_theta(self):
        assert rate_at_theta(SAMPLED_WIENER, 1e6) > 0.0

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
        point = solve_theta_for_rate(SHIFTED_SAMPLED_WIENER, BORDER_RBAR)
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
        assert point.distortion == pytest.approx(
            waterfill.distortion_at_theta(SAMPLED_WIENER, point.theta),
            abs=1e-14)

    @pytest.mark.parametrize("density", [SAMPLED_WIENER, SHIFTED_SAMPLED_WIENER])
    def test_is_the_water_levels_of_one_rate(self, density):
        for rate in (MIN_RBAR, 1e-4, 0.3, 1.2, 300.0, MAX_RBAR):
            point = solve_theta_for_rate(density, rate)
            for field, want in vars(sections_of(density, rate)).items():
                got = getattr(point, field)
                assert type(got) is type(want) and got == want

    @pytest.mark.parametrize("rate", [0.0, -1.0])
    def test_rejects_non_positive_rate(self, rate):
        with pytest.raises(ValueError):
            solve_theta_for_rate(SAMPLED_WIENER, rate)

    def test_tiny_rate_inverts_to_a_far_level(self):
        # at rbar 2e-4 the level lies past 1e4; the oracle's rate there is
        # still rbar
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
    @example(math.log(BRANCH_EDGES[4]))
    @example(math.log(BRANCH_EDGES[5]))
    @example(math.log(BRANCH_EDGES[6]))
    @example(math.log(BRANCH_EDGES[7]))
    @settings(max_examples=30, deadline=None)
    def test_matches_oracle(self, log_rbar):
        rbar = float(np.exp(log_rbar))
        for density in (SAMPLED_WIENER, SHIFTED_SAMPLED_WIENER):
            levels = solve_theta_for_rate(density, rbar)
            theta = float(levels.theta)
            assert rate_at_theta(density, theta) == \
                pytest.approx(rbar, abs=1e-10)
            assert waterfill.rate_at_theta(density, theta) == \
                pytest.approx(rbar, abs=1e-10)
            assert distortion_at_theta(density, theta) == \
                pytest.approx(levels.distortion, rel=1e-11)
            assert waterfill.distortion_at_theta(density, theta) == \
                pytest.approx(levels.distortion, rel=1e-11)
        curves = drf.sections(rbar)
        theta = float(curves.sampled.theta)
        assert g_integral(theta) == pytest.approx(curves.g, rel=1e-11)
        assert ce_integral(theta) == pytest.approx(curves.ce, rel=1e-11)

    @pytest.mark.parametrize("rbar", [300.0, 400.0, 510.0])
    def test_saturated_forms_to_the_edge(self, rbar):
        # past rbar 267 the oracle fails; the exact saturated forms hold
        power = 2.0 ** (-2.0 * rbar)
        shifted = solve_theta_for_rate(SHIFTED_SAMPLED_WIENER, rbar)
        low_rate_coef = (2.0 + np.sqrt(3.0)) / 6.0
        assert shifted.theta == pytest.approx(low_rate_coef * power, rel=1e-12)
        assert shifted.distortion == pytest.approx(low_rate_coef * power,
                                                   rel=1e-12)
        sampled = solve_theta_for_rate(SAMPLED_WIENER, rbar)
        assert sampled.theta == pytest.approx(power, rel=1e-12)
        assert sampled.distortion == pytest.approx(power, rel=1e-12)
        curves = drf.sections(rbar)
        assert curves.g == pytest.approx(2.0 * power, rel=1e-12)
        assert curves.ce == pytest.approx(2.0 / 3.0 * power, rel=1e-12)

    @pytest.mark.parametrize("density", [SAMPLED_WIENER, SHIFTED_SAMPLED_WIENER,
                                         None], ids=["density0", "density1",
                                                     "both"])
    def test_one_rate_evaluation_per_block(self, density, monkeypatch):
        # an array goes through drf.sections, the one pass over both
        # densities, and a scalar through the density's
        # solve_theta_for_rate, or for None through drf.sections, also over
        # every input of test_drf's, the benchmark-like 10-point grids among
        # them; a grid of several blocks takes one per block
        calls = []
        rate = waterfill._two_ln2_rate

        def counted(*args):
            calls.append(None)
            return rate(*args)

        monkeypatch.setattr(waterfill, "_two_ln2_rate", counted)
        solve = (drf.sections if density is None
                 else functools.partial(solve_theta_for_rate, density))
        rbars = np.geomspace(MIN_RBAR, waterfill.MAX_RBAR, 3000)
        drf.sections(rbars)
        assert len(calls) == 1
        worst = 0
        for rbar in rbars:
            calls.clear()
            solve(rbar)
            worst = max(worst, len(calls))
        assert worst == 1
        if density is None:
            for form, rbar in _sections_inputs():
                calls.clear()
                solve(rbar)
                blocks = -(-np.size(rbar) // waterfill._BLOCK)
                assert len(calls) == blocks, (form, rbar)

    def test_refuses_past_the_underflow_edge(self):
        with pytest.raises(FloatingPointError, match="510.9.*510.658"):
            drf.sections(np.array([1.0, 510.9]))
        solve_theta_for_rate(SHIFTED_SAMPLED_WIENER, waterfill.MAX_RBAR)

    @pytest.mark.parametrize("edge,past,message", [
        (MIN_RBAR, math.nextafter(MIN_RBAR, 0.0),
         "below the supported minimum"),
        (MAX_RBAR, math.nextafter(MAX_RBAR, math.inf),
         "past the supported maximum")], ids=["min", "max"])
    def test_each_edge_answers_and_the_next_float_is_refused(
            self, edge, past, message):
        # the stated edge gives normal floats through every route, and the
        # range check, not a later one, refuses the next float past it
        curves = drf.sections(edge)
        fields = [*vars(curves.shifted).values(),
                  *vars(curves.sampled).values(), curves.g, curves.ce,
                  curves.ratio_smp, curves.ratio_qnt, curves.ce_penalty]
        assert all(sys.float_info.min <= x <= sys.float_info.max
                   for x in fields)
        routes = (drf.sections, lambda rbar: drf.sweep(1.0, 1.0, rbar),
                  functools.partial(solve_theta_for_rate, SAMPLED_WIENER),
                  functools.partial(solve_theta_for_rate,
                                    SHIFTED_SAMPLED_WIENER))
        for route in routes:
            route(edge)
            with pytest.raises(FloatingPointError,
                               match=f"{message} {edge:.6g}, where"):
                route(past)

    def test_a_start_too_far_off_is_refused(self, monkeypatch, tmp_path):
        # one Newton step from 0.3 off in ln theta leaves an error bound far
        # above 2^-52: the solve raises, and the command line exits 3
        start = waterfill._start

        def off(rbar):
            theta = start(rbar)[0] * math.exp(0.3)
            return theta, *SpectralDensity._cot_crossing(theta,
                                                         waterfill._FLOOR)

        monkeypatch.setattr(waterfill, "_start", off)
        with pytest.raises(FloatingPointError, match="at 0.5 bits per sample"):
            drf.sections(np.array([0.5, 300.0]))
        assert cli.main(["ratio", "--min", "0.1", "--max", "2", "--points",
                         "3", "--out", str(tmp_path / "ratio.csv")]) == 3

    def test_refuses_past_the_overflow_edge(self):
        assert MIN_RBAR == pytest.approx(6.8501e-155, rel=1e-5)
        with pytest.raises(FloatingPointError,
                           match="6.8e-155 .*below .* 6.8501e-155"):
            drf.sections(np.array([1.0, 6.8e-155]))
        with pytest.raises(ValueError, match="rate must be > 0"):
            drf.sections(np.array([MIN_RBAR, math.nan]))
        solve_theta_for_rate(SAMPLED_WIENER, MIN_RBAR)

    @pytest.mark.parametrize("density", [SAMPLED_WIENER, SHIFTED_SAMPLED_WIENER])
    def test_strictly_decreasing_over_the_whole_range(self, density):
        levels = sections_of(density, np.geomspace(MIN_RBAR, MAX_RBAR, 20000))
        assert np.all(np.diff(levels.theta) < 0)
        assert np.all(np.diff(levels.distortion) < 0)

    @pytest.mark.parametrize("density", [SAMPLED_WIENER, SHIFTED_SAMPLED_WIENER])
    def test_rate_at_the_solved_level_is_its_rbar(self, density):
        # within a few roundings over the whole range, down to MIN_RBAR,
        # where ln theta passes 700
        rbar = np.geomspace(MIN_RBAR, MAX_RBAR, 20000)
        theta = sections_of(density, rbar).theta
        rate = waterfill.rate_at_theta(density, theta)
        assert np.max(np.abs(rate / rbar - 1.0)) <= 4 * sys.float_info.epsilon


@given(st.floats(min_value=5e-324, max_value=sys.float_info.max))
@example(0.08243292912477304)   # below both floors
@example(0.02747764304159102)
@example(1.0 / 12.0)
@example(0.25)
@example(5e-324)
@example(sys.float_info.max)
@settings(max_examples=200, deadline=None)
def test_distortion_at_theta_lies_in_zero_to_theta(theta):
    """The kernel's D(theta) at theta itself: in (0, theta] over every
    positive float, and theta exactly at or below the density floor."""
    for density in (SAMPLED_WIENER, SHIFTED_SAMPLED_WIENER):
        distortion = waterfill.distortion_at_theta(density, theta)
        assert 0.0 < distortion <= theta
        if theta <= density.floor:
            assert distortion == theta


#: the worst relative error |ln theta_start - ln theta| / max{1, |ln theta|}
#: of Newton's start over the rbar of ``kernel_reference.json`` below each
#: density's border rate, as measured and rounded up: in the low band
#: rbar <= 0.1 and the crossing band above it
START_BOUNDS = {
    "sampled": {"low": 2e-9, "crossing": 2e-9},
    "shifted": {"low": 3e-9, "crossing": 4e-9},
}


def start_errors(density, rbar, theta) -> np.ndarray:
    """Newton's start against the levels theta at rbar, both arrays below
    the density's border rate, relative to max{1, |ln theta|}."""
    log_theta = np.log(waterfill._start(rbar)[0][ROWS[density]])
    return (np.abs(log_theta - np.log(theta))
            / np.maximum(1.0, np.abs(np.log(theta))))


@pytest.mark.parametrize("name", START_BOUNDS)
def test_start_within_its_bound_of_the_table(name):
    density = SHIFTED_SAMPLED_WIENER if name == "shifted" else SAMPLED_WIENER
    table = read_table()
    rbar, theta = np.array(table["rbar"]), np.array(table[f"{name}.theta"],
                                                   dtype=float)
    below = rbar < waterfill._BORDER[ROWS[density], 0]
    errors = start_errors(density, rbar[below], theta[below])
    low = rbar[below] <= 0.1
    assert np.max(errors[low]) <= START_BOUNDS[name]["low"]
    assert np.max(errors[~low]) <= START_BOUNDS[name]["crossing"]


@pytest.mark.parametrize("density", [SAMPLED_WIENER, SHIFTED_SAMPLED_WIENER])
def test_start_is_good_between_the_tables_points(density):
    # the fit's points are the table's; between them, against the solved
    # levels, the start stays within about 1e-8 over (MIN_RBAR, r_b)
    border = waterfill._BORDER[ROWS[density], 0]
    rbar = np.concatenate([np.geomspace(MIN_RBAR, 0.1, 500),
                           np.linspace(0.1, border, 5000, endpoint=False)])
    theta = sections_of(density, rbar).theta
    assert np.max(start_errors(density, rbar, theta)) <= 1e-8


def test_start_is_the_tables_fit():
    """``_START`` is half the least-squares Chebyshev fit of degree 12 of
    rbar c / v, in v = sqrt(r_b - rbar), to the table's levels below r_b."""
    table = read_table()
    with mpmath.workdps(50):
        for shift, name, factor in ((0, "sampled", 1),
                                    (mpmath.mpf(1) / 6, "shifted",
                                     (2 + mpmath.sqrt(3)) / 6)):
            floor = mpmath.mpf(1) / 4 - shift
            border = mpmath.log(factor / floor, 2) / 2
            points = []
            for rbar, theta in zip(table["rbar"], table[f"{name}.theta"]):
                rbar, theta = mpmath.mpf(rbar), mpmath.mpf(theta)
                if rbar < border:
                    v = mpmath.sqrt(border - rbar)
                    c = 2 * mpmath.sqrt(theta - floor)
                    points.append((float(v), float(rbar * c / v)))
            domain = [0.0, float(mpmath.sqrt(border))]
            fit = np.polynomial.Chebyshev.fit(*zip(*points), 12, domain=domain)
            # the powers are ill-conditioned, so their values are compared
            v = np.linspace(*domain, 1001)
            start = np.polynomial.Polynomial(waterfill._START[float(shift)])
            assert np.max(np.abs(2.0 * start(v) - fit(v))) <= 1e-13


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
    """theta is carried as itself, one Newton step theta exp(step) from its
    start, on a rate whose logs do not cancel; (|ln theta| + 8) 2**-52 is a
    loose bound (about 3 ulp is reached), which leaves room for the ulps of
    the rate, the exp and the density."""
    rbar = max(math.exp(log_rbar), MIN_RBAR)
    for density, shift in ((SAMPLED_WIENER, 0), (SHIFTED_SAMPLED_WIENER,
                                                  mpmath.mpf(1) / 6)):
        theta = float(solve_theta_for_rate(density, rbar).theta)
        error = abs(mpmath.mpf(theta) / series_theta(rbar, shift) - 1)
        assert error <= (abs(math.log(theta)) + 8) * 2.0 ** -52


class TestIntegrateDensity:
    def test_reciprocal_weighted(self):
        # below the floor 1/4, g = theta times the integral of 1/S, 2
        assert g_integral(0.125) == pytest.approx(0.25, abs=1e-10)


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
        g = lambda phi: 0.5 * np.log2(SAMPLED_WIENER(phi) / theta).clip(0.0)
        _, err = integrate_unit(g, breakpoints=(cross,))
        assert err <= 1e-9

    def test_halving_base_step(self):
        theta = 0.4
        cross = SAMPLED_WIENER.crossing(theta)
        g = lambda phi: 0.5 * np.log2(SAMPLED_WIENER(phi) / theta).clip(0.0)
        coarse, _ = integrate_unit(g, breakpoints=(cross,), initial_panels=2)
        fine, _ = integrate_unit(g, breakpoints=(cross,), initial_panels=4)
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
        for graded in (True, False):
            with pytest.raises(QuadratureError) as info:
                integrate_unit(SAMPLED_WIENER, graded=graded)
            assert info.value.error_estimate > 0
