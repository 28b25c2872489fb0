"""Spectral densities and eigensystems against brute-force oracles."""

import math
import sys
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracle import ConstantDensity, fredholm_residual, interp_covariance
from wienerdr.spectral import (ParameterError, ProcessParams, SAMPLED_WIENER,
                               SHIFTED_SAMPLED_WIENER, SpectralDensity,
                               discrete_wiener_eigensystem,
                               discrete_wiener_eigenvalues,
                               interp_kernel_eigensystem,
                               interp_kernel_eigenvalues,
                               nystrom_interp_eigenvalues, unit)

UNIT = ProcessParams(sigma2=1.0, fs=1.0)


class TestDensities:
    def test_walk_values(self):
        assert SAMPLED_WIENER(1.0) == pytest.approx(0.25, abs=1e-15)
        # sin^2(pi/3) = 3/4 and sin^2(pi/4) = 1/2
        assert SAMPLED_WIENER(2.0 / 3.0) == pytest.approx(1.0 / 3.0, abs=1e-14)
        assert SAMPLED_WIENER(0.5) == pytest.approx(0.5, abs=1e-15)

    def test_s_tilde_values(self):
        shifted = SHIFTED_SAMPLED_WIENER
        assert shifted(1.0) == pytest.approx(1.0 / 12.0, abs=1e-15)
        assert shifted(2.0 / 3.0) == pytest.approx(1.0 / 6.0, abs=1e-14)
        assert shifted(0.5) == pytest.approx(1.0 / 3.0, abs=1e-15)

    @pytest.mark.parametrize("phi", [0.0, -0.5, 1.0 + 1e-9, 2.0])
    def test_domain_errors(self, phi):
        with pytest.raises(ValueError):
            SAMPLED_WIENER(phi)
        with pytest.raises(ValueError):
            SHIFTED_SAMPLED_WIENER(phi)

    def test_array_evaluation_rejects_bad_element(self):
        with pytest.raises(ValueError):
            SAMPLED_WIENER(np.array([0.5, 1.5]))

    @given(st.floats(min_value=1e-6, max_value=0.999),
           st.floats(min_value=1e-4, max_value=0.5))
    @settings(max_examples=60, deadline=None)
    def test_strictly_decreasing(self, phi, step):
        hi = min(phi + step, 1.0)
        assert SAMPLED_WIENER(phi) > SAMPLED_WIENER(hi)
        assert SHIFTED_SAMPLED_WIENER(phi) > SHIFTED_SAMPLED_WIENER(hi)

    def test_tilde_floor(self):
        grid = np.linspace(1e-4, 1.0, 2000)
        vals = SHIFTED_SAMPLED_WIENER(grid)
        assert np.all(vals >= 1.0 / 12.0 - 1e-15)
        assert vals[-1] == pytest.approx(1.0 / 12.0, abs=1e-15)

    def test_crossing_closed_form(self):
        # the walk's density is 1/2 at phi = 1/2, its crossing at theta = 1/2
        assert SAMPLED_WIENER.crossing(0.5) == pytest.approx(0.5, abs=1e-14)
        assert SAMPLED_WIENER.crossing(0.2) == 1.0
        assert SHIFTED_SAMPLED_WIENER.crossing(1.0 / 3.0) == pytest.approx(
            0.5, abs=1e-14)
        assert ConstantDensity(0.7).crossing(0.3) == 1.0

    @pytest.mark.parametrize("density", [SAMPLED_WIENER, SHIFTED_SAMPLED_WIENER])
    def test_crossing_one_ulp_above_floor(self, density):
        # an arcsine form of the crossing rounds to phi = 1 here; the
        # cotangent form keeps it inside
        theta = float(np.nextafter(density.floor, 1.0))
        assert 0.0 < density.crossing(theta) < 1.0

    @pytest.mark.parametrize("density", [SAMPLED_WIENER, SHIFTED_SAMPLED_WIENER])
    def test_crossing_is_one_at_and_below_floor(self, density):
        below = np.array([density.floor, np.nextafter(density.floor, 0.0),
                          0.5 * density.floor, 1e-300])
        assert np.all(density.crossing(below) == 1.0)
        at_floor = density.crossing(density.floor)
        assert at_floor == 1.0 and isinstance(at_floor, float)

    @pytest.mark.parametrize("density", [SAMPLED_WIENER, SHIFTED_SAMPLED_WIENER])
    def test_crossing_matches_arcsine_form(self, density):
        # an independent form of the crossing; closer to the floor than
        # this it loses more digits than the cotangent form
        theta = np.geomspace(2.0 * density.floor, 1e8, 20001)
        arcsine = (2.0 / np.pi) * np.arcsin(
            0.5 / np.sqrt(theta + density.shift))
        np.testing.assert_allclose(density.crossing(theta), arcsine,
                                   rtol=0.0, atol=1e-15)

    @pytest.mark.parametrize("shift", [0.3, -0.1, 0.25, float("nan")])
    def test_only_the_two_shifts(self, shift):
        with pytest.raises(ValueError):
            SpectralDensity(shift)

    def test_constant_stub(self):
        c = ConstantDensity(0.7)
        assert c(0.3) == 0.7
        assert np.all(c(np.array([0.1, 0.9])) == 0.7)
        with pytest.raises(ValueError):
            ConstantDensity(0.0)


class TestProcessParams:
    @pytest.mark.parametrize("sigma2,fs", [(0.0, 1.0), (1.0, 0.0),
                                           (-1.0, 1.0), (1.0, -2.0),
                                           (np.inf, 1.0)])
    def test_rejects_non_positive(self, sigma2, fs):
        with pytest.raises(ValueError):
            ProcessParams(sigma2=sigma2, fs=fs)

    def test_ts_is_derived(self):
        assert ProcessParams(sigma2=1.0, fs=4.0).ts == 0.25


#: log-uniform over the positive floats, the smallest subnormal included
POSITIVE = st.floats(math.log(5e-324), math.log(sys.float_info.max)).map(
    lambda x: min(math.exp(x), sys.float_info.max))


def ulp_of(exact: Fraction) -> Fraction:
    """The spacing of the normal floats in the binade that holds ``exact``."""
    e = exact.numerator.bit_length() - exact.denominator.bit_length()
    if Fraction(2) ** e > exact:
        e -= 1
    return Fraction(2) ** (e - 52)


class TestUnit:
    @given(num=POSITIVE, den=POSITIVE)
    @example(num=5e-324, den=1e-300)             # subnormal numerator
    @example(num=1e-300, den=3e-320)             # subnormal denominator
    @example(num=1e308, den=0.5)                 # num/den overflows
    @example(num=1e308 * 2.0 ** -10, den=0.5)
    @settings(max_examples=500, deadline=None)
    def test_against_exact_fractions(self, num, den):
        # power 1 is correctly rounded and power 2 within 1.5 ulp wherever
        # the exact value is a normal float, whatever the inputs' range
        for power, bound in ((1, Fraction(1, 2)), (2, Fraction(3, 2))):
            exact = Fraction(num) / Fraction(den) ** power
            if not sys.float_info.min <= exact <= sys.float_info.max:
                continue
            ratio, exp = unit(num, den, power)
            got = float(np.ldexp(ratio, exp))
            assert abs(Fraction(got) - exact) <= bound * ulp_of(exact)
            if power == 1:
                assert got == float(exact)

    def test_arrays_broadcast_like_scalars(self):
        num, den = np.array([[1e308], [3.0]]), np.array([0.5, 7.0, 1e-310])
        for power in (1, 2):
            ratio, exp = unit(num, den, power)
            assert ratio.shape == exp.shape == (2, 3)
            for i, j in np.ndindex(2, 3):
                one = unit(num[i, 0], den[j], power)
                assert (ratio[i, j], exp[i, j]) == one


class TestDiscreteEigensystem:
    def test_n1_is_sample_variance(self):
        system = discrete_wiener_eigensystem(UNIT, 1)
        assert system.eigenvalues[0] == pytest.approx(1.0, abs=1e-12)
        system = discrete_wiener_eigensystem(ProcessParams(2.0, 4.0), 1)
        assert system.eigenvalues[0] == pytest.approx(0.5, abs=1e-12)

    def test_n2_golden_pair(self):
        # dense eigendecomposition of [[1, 1], [1, 2]] gives (3 +- sqrt 5)/2
        system = discrete_wiener_eigensystem(UNIT, 2)
        assert system.eigenvalues[0] == pytest.approx(2.618033988749895, rel=1e-12)
        assert system.eigenvalues[1] == pytest.approx(0.3819660112501051, rel=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 16, 33, 64])
    def test_matches_dense_eigensolver(self, n):
        params = ProcessParams(sigma2=1.7, fs=2.5)
        system = discrete_wiener_eigensystem(params, n)
        cov = (params.sigma2 / params.fs) * np.minimum.outer(
            np.arange(1, n + 1), np.arange(1, n + 1))
        dense = np.sort(np.linalg.eigvalsh(cov))[::-1]
        assert np.max(np.abs(system.eigenvalues - dense) / dense) < 1e-9

    @pytest.mark.parametrize("n", [2, 8, 64])
    def test_orthonormal_and_diagonalizing(self, n):
        system = discrete_wiener_eigensystem(UNIT, n)
        vecs = system.eigenvectors
        gram = vecs @ vecs.T
        assert np.max(np.abs(gram - np.eye(n))) < 1e-9
        cov = np.minimum.outer(np.arange(1, n + 1), np.arange(1, n + 1)).astype(float)
        for k in [1, n // 2 + 1, n]:
            v = system.eigenvector(k)
            lam = system.eigenvalues[k - 1]
            assert np.max(np.abs(cov @ v - lam * v)) < 1e-9 * lam

    @pytest.mark.parametrize("n", [1, 7, 40])
    def test_trace_identity(self, n):
        params = ProcessParams(sigma2=3.0, fs=0.5)
        system = discrete_wiener_eigensystem(params, n)
        trace = (params.sigma2 / params.fs) * n * (n + 1) / 2.0
        assert system.eigenvalues.sum() == pytest.approx(trace, rel=1e-9)

    def test_sorted_decreasing_and_positive(self):
        system = discrete_wiener_eigensystem(UNIT, 50)
        assert np.all(np.diff(system.eigenvalues) < 0)
        assert np.all(system.eigenvalues > 0)


class TestInterpEigensystem:
    def test_n1_rank_one_kernel(self):
        # kernel sigma2 * t * s / ts on [0, ts] integrates to sigma2 ts^2 / 3
        system = interp_kernel_eigensystem(UNIT, 1)
        assert system.eigenvalues[0] == pytest.approx(1.0 / 3.0, abs=1e-12)
        params = ProcessParams(sigma2=2.0, fs=4.0)
        system = interp_kernel_eigensystem(params, 1)
        assert system.eigenvalues[0] == pytest.approx(
            2.0 * 0.25 ** 2 / 3.0, abs=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 8, 16, 64])
    def test_matches_nystrom_oracle(self, n):
        system = interp_kernel_eigensystem(UNIT, n)
        oracle = nystrom_interp_eigenvalues(UNIT, n, grid_points=200)
        rel = np.abs(system.eigenvalues - oracle) / system.eigenvalues
        assert np.max(rel) < 1e-3

    @pytest.mark.parametrize("n", range(1, 9))
    def test_dense_route_matches_full_eigensolver(self, n):
        # the factored n x n Nystrom route against the dense one: eigvalsh of
        # the whole pointwise-evaluated matrix
        grid = 120
        total = n * grid + 1
        dt = UNIT.ts / grid
        t = np.arange(total) * dt
        w = np.full(total, dt)
        w[0] = w[-1] = dt / 2
        kmat = interp_covariance(UNIT, t, t)
        sym = np.sqrt(w)[:, None] * kmat * np.sqrt(w)[None, :]
        full = np.linalg.eigvalsh(sym)[::-1][:n]
        got = nystrom_interp_eigenvalues(UNIT, n, grid)
        assert np.max(np.abs(got - full) / full) <= 1e-12

    def test_dense_spectrum_has_rank_n(self):
        # beyond rank n the discretized kernel carries only quadrature noise
        n, grid = 3, 150
        params = ProcessParams(sigma2=1.0, fs=2.0)
        total = n * grid + 1
        dt = params.ts / grid
        t = np.arange(total) * dt
        w = np.full(total, dt)
        w[0] = w[-1] = dt / 2
        kmat = interp_covariance(params, t, t)
        sym = np.sqrt(w)[:, None] * kmat * np.sqrt(w)[None, :]
        vals = np.sort(np.abs(np.linalg.eigvalsh(sym)))[::-1]
        assert vals[n] < 1e-10 * vals[0]

    def test_staircase_matches_density(self):
        # the closed form reproduces the density at (k - 1/2)/n exactly, so
        # the staircase agrees to rounding at every n, not just in the limit
        params = ProcessParams(sigma2=1.0, fs=3.0)
        scale = params.sigma2 * params.ts ** 2
        for n in (100, 300, 1000):
            system = interp_kernel_eigensystem(params, n)
            k = np.arange(1, n + 1)
            target = SHIFTED_SAMPLED_WIENER((k - 0.5) / n)
            rel = np.abs(system.eigenvalues / scale - target) / target
            assert np.max(rel) < 1e-9

    @pytest.mark.parametrize("n", [1, 5, 32])
    def test_trace_identity(self, n):
        params = ProcessParams(sigma2=2.0, fs=1.6)
        system = interp_kernel_eigensystem(params, n)
        horizon = n * params.ts
        trace = params.sigma2 * (horizon ** 2 / 2.0 - horizon * params.ts / 6.0)
        assert system.eigenvalues.sum() == pytest.approx(trace, rel=1e-9)

    @pytest.mark.parametrize("n", [4096, 10 ** 6])
    def test_leading_eigenvalue_against_mpmath(self, n):
        # the defining form (sigma2 ts^2/6)(2 cos k pi - s_k)/(cos k pi + s_k)
        # at 40 digits, k = 1: s_1 = sin((n-1) pi/(2n)), cos pi = -1
        params = ProcessParams(sigma2=1.3, fs=0.7)
        with mpmath.workdps(40):
            s1 = mpmath.sin((n - 1) * mpmath.pi / (2 * n))
            exact = (mpmath.mpf(1.3) * (1 / mpmath.mpf(0.7)) ** 2 / 6
                     * (2 + s1) / (1 - s1))
        lam1 = interp_kernel_eigenvalues(params, n)[0]
        assert abs(lam1 / float(exact) - 1.0) <= 1e-14

    def test_eigenvalue_path_matches_eigensystem(self):
        params = ProcessParams(sigma2=0.4, fs=2.5)
        for n in (1, 9, 200):
            assert np.array_equal(
                interp_kernel_eigenvalues(params, n),
                interp_kernel_eigensystem(params, n).eigenvalues)
            assert np.array_equal(
                discrete_wiener_eigenvalues(params, n),
                discrete_wiener_eigensystem(params, n).eigenvalues)

    def test_unit_is_the_quotient_of_the_mantissas(self):
        # sigma2 ts^2 is m_s / m_f**2 times 2**(e_s - 2 e_f) (``unit``), not
        # the product sigma2 (ts ts): find an fs where the two round apart
        def quotient(fs):
            (m_s, e_s), (m_f, e_f) = math.frexp(0.9), math.frexp(fs)
            return math.ldexp(m_s / (m_f * m_f), e_s - 2 * e_f)

        fs = next(float(f) for f in 1.0 + np.arange(1, 10_000) / 1000.0
                  if quotient(f) != 0.9 * ((1.0 / f) * (1.0 / f)))
        params = ProcessParams(sigma2=0.9, fs=fs)
        ts, n = params.ts, 64
        x = (2 * np.arange(1, n + 1) - 1) * np.pi / (2.0 * n)
        shape = (2.0 + np.cos(x)) / np.sin(0.5 * x) ** 2
        got = interp_kernel_eigenvalues(params, n)
        assert np.array_equal(got, (quotient(fs) / 12.0) * shape)
        assert not np.array_equal(got, (0.9 * (ts * ts) / 12.0) * shape)

    def test_nystrom_hat_matrix_past_the_count_bound_is_named(self):
        # its (n grid_points + 1) x n hat matrix is refused, under the field
        # that sized it, before numpy is asked for it
        for n, grid_points in ((2 ** 40, 2 ** 40), (2 ** 20, 2 ** 15)):
            with pytest.raises(ParameterError) as caught:
                nystrom_interp_eigenvalues(UNIT, n, grid_points)
            assert str(caught.value) == "grid_points is too long to allocate"

    def test_large_n_has_no_degenerate_denominators(self):
        for n in (4096, 10 ** 6):
            lam = interp_kernel_eigenvalues(UNIT, n)
            assert len(lam) == n
            assert np.all(np.isfinite(lam)) and np.all(lam > 0)
            assert np.all(np.diff(lam) < 0)

    def test_eigenfunctions_unit_norm_orthogonal(self):
        n = 6
        system = interp_kernel_eigensystem(UNIT, n)
        grid = 400
        t = np.linspace(0.0, n * UNIT.ts, n * grid + 1)
        dt = t[1] - t[0]
        w = np.full(len(t), dt)
        w[0] = w[-1] = dt / 2
        vals = np.array([system.eigenfunction(k, t) for k in range(1, n + 1)])
        gram = (vals * w) @ vals.T
        assert np.max(np.abs(gram - np.eye(n))) < 1e-4

    @pytest.mark.parametrize("fs", [1.0, 2.5])
    @pytest.mark.parametrize("n", [1, 2, 7, 1000])
    def test_node_rows_have_unit_norm(self, n, fs):
        # exact L2 norm of a piecewise-linear function: ts/3 sum(a^2+ab+b^2)
        # over the intervals' end values a, b
        params = ProcessParams(sigma2=1.0, fs=fs)
        nodes = interp_kernel_eigensystem(params, n).node_values
        a, b = nodes[:, :-1], nodes[:, 1:]
        norm_sq = params.ts / 3.0 * np.sum(a * a + a * b + b * b, axis=1)
        assert np.max(np.abs(norm_sq - 1.0)) <= 1e-12

    def test_eigenfunction_piecewise_linear_and_pinned(self):
        system = interp_kernel_eigensystem(UNIT, 4)
        assert system.eigenfunction(1, 0.0) == pytest.approx(0.0, abs=1e-14)
        for k in (1, 3):
            left = system.eigenfunction(k, 1.25)
            right = system.eigenfunction(k, 1.75)
            mid = system.eigenfunction(k, 1.5)
            assert mid == pytest.approx(0.5 * (left + right), abs=1e-12)

    def test_accessor_validation(self):
        system = interp_kernel_eigensystem(UNIT, 3)
        with pytest.raises(ValueError):
            system.eigenfunction(0, 0.5)
        with pytest.raises(ValueError):
            system.eigenfunction(1, 5.0)
        with pytest.raises(ValueError, match=r"^t must lie in \[0, n\*ts\]$"):
            system.eigenfunction(1, [0.5, math.nan])   # nan fails no bound test
        with pytest.raises(ValueError):
            system.eigenvector(1)
        disc = discrete_wiener_eigensystem(UNIT, 3)
        with pytest.raises(ValueError):
            disc.eigenfunction(1, 0.5)


class TestFredholmResidual:
    def test_rank_one_residual_small(self):
        system = interp_kernel_eigensystem(UNIT, 1)
        assert fredholm_residual(system, UNIT, 1, 400) < 1e-5

    def test_n4_all_modes(self):
        system = interp_kernel_eigensystem(UNIT, 4)
        for k in range(1, 5):
            assert fredholm_residual(system, UNIT, k, 400) < 1e-4

    def test_refinement_shrinks_residual(self):
        n = 8
        system = interp_kernel_eigensystem(UNIT, n)
        for k in range(1, n + 1):
            coarse = fredholm_residual(system, UNIT, k, 200)
            fine = fredholm_residual(system, UNIT, k, 800)
            assert fine < coarse

    def test_scales_with_kernel_units(self):
        params = ProcessParams(sigma2=4.0, fs=2.0)
        system = interp_kernel_eigensystem(params, 2)
        scale = params.sigma2 * params.ts ** 2
        assert fredholm_residual(system, params, 1, 400) < 1e-4 * scale

    def test_validation(self):
        system = interp_kernel_eigensystem(UNIT, 2)
        with pytest.raises(ValueError):
            fredholm_residual(system, UNIT, 3, 400)
        with pytest.raises(ValueError):
            fredholm_residual(system, UNIT, 1, 10)
