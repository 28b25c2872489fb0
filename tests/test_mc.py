"""Monte-Carlo machinery: path statistics, determinism, moment oracles."""

import importlib
import math
import os
import pkgutil
import subprocess
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

import wienerdr
from oracle import (_lerp, _trapezoid_mean, dense_channel_trials,
                    dense_grid_expectation, dense_mmse_trials,
                    loop_waterfill_theta)
from wienerdr import mc
from wienerdr.cli import main
from wienerdr.drf import g_fun
from wienerdr.mc import (ErrorMoments, SimConfig, ce_distortion_estimate,
                         ce_moment_oracle, effective_grid, empirical_mmse,
                         finite_waterfill_theta, lemma_bounds,
                         mc_test_channel_run)
from wienerdr.spectral import (ProcessParams, discrete_wiener_eigensystem,
                               interp_kernel_eigensystem)
from wienerdr.waterfill import solve_theta_for_rate
from wienerdr.spectral import SAMPLED_WIENER

UNIT = ProcessParams(sigma2=1.0, fs=1.0)
SPLIT_RUNS = {"mmse": empirical_mmse,
              "channel": lambda p, c: mc_test_channel_run(p, c, 0.8)}


def paths(params, cfg, trials, drawn=None):
    """(fine path, samples, interpolant) rows: chords plus the bridges of
    ``drawn``, a unit-variance (bridge, rise) of ``mc._intervals``, or of
    ``trials``, scaled to fine steps of variance sigma2 ts / oversample."""
    n, _ = effective_grid(params, cfg)
    bridge, rise = drawn or mc._intervals(n, cfg.oversample, trials,
                                          mc._TrialStreams(cfg.seed))[:2]
    step = math.sqrt(params.sigma2 * params.ts / cfg.oversample)
    bridge, rise = bridge * step, rise * step
    rows, os_ = len(bridge), bridge.shape[-1]
    samples = np.zeros((rows, rise.shape[1] + 1))
    np.cumsum(rise, axis=1, out=samples[:, 1:])
    chords = samples[:, :-1, None] + rise[..., None] * (np.arange(os_) / os_)
    offsets = np.zeros_like(bridge)
    offsets[..., 1:] = bridge[..., :-1]
    last = samples[:, -1:]
    return (np.hstack(((chords + offsets).reshape(rows, -1), last)), samples,
            np.hstack((chords.reshape(rows, -1), last)))


def test_exports_resolve():
    deleted = {"PathBundle", "path_for_trial", "simulate_paths", "BridgeCheck",
               "bridge_covariance_check", "interp_weights",
               "kl_coeff_from_samples", "_trial_keys"}
    for info in [None, *pkgutil.iter_modules(wienerdr.__path__, "wienerdr.")]:
        module = importlib.import_module(info.name) if info else wienerdr
        exported = getattr(module, "__all__", [])
        assert all(hasattr(module, name) for name in exported), module
        assert not deleted & set(vars(module)), module


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SimConfig(horizon_t=0.0, oversample=8, trials=10, seed=1)
        with pytest.raises(ValueError):
            SimConfig(horizon_t=1.0, oversample=0, trials=10, seed=1)
        with pytest.raises(ValueError):
            SimConfig(horizon_t=1.0, oversample=8, trials=0, seed=1)
        with pytest.raises(ValueError):
            SimConfig(horizon_t=1.0, oversample=8, trials=2, seed=-1)
        with pytest.raises(ValueError):
            SimConfig(horizon_t=2.0, oversample=4, trials=3, seed=1.5)
        for field in ("horizon_t", "oversample", "trials", "seed"):
            fields = dict(horizon_t=1.0, oversample=8, trials=2, seed=1)
            fields[field] = math.inf
            with pytest.raises(ValueError, match=field):
                SimConfig(**fields)
        SimConfig(horizon_t=1.0, oversample=8, trials=2 ** 32, seed=1)
        with pytest.raises(ValueError):   # a spawn key of two words
            SimConfig(horizon_t=1.0, oversample=8, trials=2 ** 32 + 1, seed=1)
        # integral float counts are kept as ints, so a run can use them
        cfg = SimConfig(horizon_t=2.0, oversample=2.0, trials=5.0, seed=1)
        assert (type(cfg.oversample), type(cfg.trials)) == (int, int)
        assert empirical_mmse(UNIT, cfg).per_trial.shape == (5,)

    def test_effective_grid_rounds_up(self):
        cfg = SimConfig(horizon_t=3.5, oversample=8, trials=1, seed=0)
        assert effective_grid(UNIT, cfg) == (4, 4.0)
        cfg = SimConfig(horizon_t=8.0, oversample=8, trials=1, seed=0)
        assert effective_grid(ProcessParams(1.0, 2.0), cfg) == (16, 8.0)

    def test_effective_grid_has_at_least_one_interval(self):
        for horizon in (1e-10, 1e-300, 5e-324):
            cfg = SimConfig(horizon_t=horizon, oversample=8, trials=1, seed=0)
            assert effective_grid(UNIT, cfg) == (1, 1.0)
        cfg = SimConfig(horizon_t=1e-10, oversample=8, trials=1, seed=0)
        assert effective_grid(ProcessParams(1.0, 4.0), cfg) == (1, 0.25)


def seed_sequence_keys(seed, ks):
    return np.array([np.random.SeedSequence(entropy=seed, spawn_key=(k,))
                     .generate_state(2, np.uint64) for k in ks])


class TestTrialKeys:
    """Vectorized Philox keys against NumPy's SeedSequence."""

    PINNED_SEEDS = [0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 63, 2 ** 64 - 1]
    PINNED_KS = [0, 1, 2 ** 31, 2 ** 32 - 1]

    @pytest.mark.parametrize("seed", PINNED_SEEDS)
    def test_pinned_seeds_and_spawn_words(self, seed):
        ks = self.PINNED_KS + [int(k) for k in np.random.default_rng(
            seed % 1000).integers(0, 2 ** 32, 16)]
        got = np.concatenate([mc._spawn_keys(mc._seed_pool(seed),
                                             range(k, k + 1)) for k in ks])
        assert got.dtype == np.uint64 and got.shape == (len(ks), 2)
        assert np.array_equal(got, seed_sequence_keys(seed, ks))
        top = range(2 ** 32 - 40, 2 ** 32)
        assert np.array_equal(mc._spawn_keys(mc._seed_pool(seed), top),
                              seed_sequence_keys(seed, top))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=2 ** 64 - 1),
           st.integers(min_value=0, max_value=2 ** 32 - 64))
    def test_any_seed_and_range(self, seed, start):
        trials = range(start, start + 64)
        assert np.array_equal(mc._spawn_keys(mc._seed_pool(seed), trials),
                              seed_sequence_keys(seed, trials))

    def test_rekeyed_rows_equal_fresh_generators(self):
        # every row leaves a cached half-word behind for re-keying to clear
        seed = 2 ** 64 - 1
        streams = mc._TrialStreams(seed)
        for k, rng in zip(range(3, 7), streams.each(range(3, 7))):
            ref = np.random.Generator(np.random.Philox(
                np.random.SeedSequence(entropy=seed, spawn_key=(k,))))
            assert _state(rng) == _state(ref)
            assert np.array_equal(rng.standard_normal(5),
                                  ref.standard_normal(5))
            assert rng.integers(2 ** 32, dtype=np.uint32) == \
                ref.integers(2 ** 32, dtype=np.uint32)
            assert _state(rng) == _state(ref)


def _state(rng):
    s = rng.bit_generator.state
    return (s["state"]["key"].tolist(), s["state"]["counter"].tolist(),
            s["buffer"].tolist(), s["buffer_pos"], s["has_uint32"],
            s["uinteger"])


class TestPaths:
    def test_endpoint_variance(self):
        cfg = SimConfig(horizon_t=4.0, oversample=16, trials=2000, seed=3)
        finals = paths(UNIT, cfg, range(cfg.trials))[0][:, -1]
        var = finals.var(ddof=1)
        se = 4.0 * math.sqrt(2.0 / (cfg.trials - 1))
        assert abs(var - 4.0) <= 3.0 * se

    def test_disjoint_increments_uncorrelated(self):
        cfg = SimConfig(horizon_t=2.0, oversample=32, trials=1500, seed=5)
        half = 32
        fine = paths(UNIT, cfg, range(cfg.trials))[0]
        first = fine[:, half] - fine[:, 0]
        second = fine[:, 2 * half] - fine[:, half]
        rho = np.corrcoef(first, second)[0, 1]
        assert abs(rho) <= 3.0 / math.sqrt(cfg.trials)

    def test_sampling_and_interpolation_structure(self):
        cfg = SimConfig(horizon_t=3.0, oversample=4, trials=2, seed=9)
        fine, samples, interp = (a[0] for a in paths(UNIT, cfg, range(1, 2)))
        assert np.array_equal(samples, fine[::4])
        assert np.array_equal(interp[::4], samples)
        # affine between sampling instants
        assert interp[2] == pytest.approx(
            0.5 * (samples[0] + samples[1]), abs=1e-14)

    def test_partitioned_equals_sequential(self):
        cfg = SimConfig(horizon_t=2.0, oversample=8, trials=8, seed=21)
        sequential = paths(UNIT, cfg, range(cfg.trials))[0]
        # same trials fetched one by one, out of order
        for trial in (7, 3, 0, 5):
            again = paths(UNIT, cfg, range(trial, trial + 1))[0]
            assert np.array_equal(again[0], sequential[trial])

    def test_one_stream_set_per_run(self, monkeypatch):
        built, runs = [], []
        streams, intervals = mc._TrialStreams, mc._intervals

        def recording(n, oversample, trials, *rest):
            bridge, rise, noise = intervals(n, oversample, trials, *rest)
            runs[-1].update((trial, (bridge[r:r + 1], rise[r:r + 1]))
                            for r, trial in enumerate(trials))
            return bridge, rise, noise

        monkeypatch.setattr(mc, "_TrialStreams",
                            lambda seed: built.append(seed) or streams(seed))
        monkeypatch.setattr(mc, "_intervals", recording)
        # forked children could not report what they record
        monkeypatch.setattr(mc, "_workers", lambda trials, increments: 1)
        # blocks long enough that the 50 trials span 17 chunks
        cfg = SimConfig(horizon_t=1000.0, oversample=32, trials=50, seed=4)
        for run in (empirical_mmse, lambda p, c: mc_test_channel_run(p, c, 1)):
            runs.append({})
            run(UNIT, cfg)
            assert built == [4] * len(runs)
            assert list(runs[-1]) == list(range(50))
        monkeypatch.undo()
        for trial in (0, 2, 3, 49):
            again = paths(UNIT, cfg, range(trial, trial + 1))
            for drawn in runs:
                rebuilt = paths(UNIT, cfg, None, drawn[trial])
                assert all(map(np.array_equal, again, rebuilt))

    def test_trials_differ(self):
        cfg = SimConfig(horizon_t=2.0, oversample=8, trials=2, seed=21)
        a, b = paths(UNIT, cfg, range(cfg.trials))[0]
        assert not np.array_equal(a, b)


class TestEmpiricalMmse:
    def test_matches_bridge_floor(self):
        params = ProcessParams(1.0, 2.0)
        cfg = SimConfig(horizon_t=8.0, oversample=16, trials=600, seed=13)
        r = empirical_mmse(params, cfg)
        assert abs(r.z_score) <= 3.0
        assert r.reference == pytest.approx((1.0 / 12.0) * (1 - 1.0 / 256.0))

    def test_no_oversampling_is_exact_zero(self):
        cfg = SimConfig(horizon_t=4.0, oversample=1, trials=5, seed=2)
        r = empirical_mmse(UNIT, cfg)
        assert r.estimate == 0.0
        assert r.reference == 0.0

    def test_scales_inversely_with_fs(self):
        cfg = SimConfig(horizon_t=16.0, oversample=16, trials=800, seed=17)
        slow = empirical_mmse(ProcessParams(1.0, 1.0), cfg)
        fast = empirical_mmse(ProcessParams(1.0, 4.0), cfg)
        ratio = slow.estimate / fast.estimate
        spread = 3.0 * ratio * math.sqrt((slow.stderr / slow.estimate) ** 2
                                         + (fast.stderr / fast.estimate) ** 2)
        assert abs(ratio - 4.0) <= spread


class TestBridgeCovariance:
    """Interpolation-error covariance at t, s: (sigma2/ts)(t_hi - max)(min -
    t_lo) within one sampling interval, 0 across intervals."""

    @staticmethod
    def products(cfg, t, s):
        fine, _, interp = paths(UNIT, cfg, range(cfg.trials))
        i, j = round(t * cfg.oversample), round(s * cfg.oversample)   # ts = 1
        prods = (fine[:, i] - interp[:, i]) * (fine[:, j] - interp[:, j])
        return prods.mean(), prods.std(ddof=1) / math.sqrt(cfg.trials)

    def test_midpoint_value(self):
        cfg = SimConfig(horizon_t=4.0, oversample=8, trials=1500, seed=29)
        empirical, stderr = self.products(cfg, 0.5, 0.5)
        assert abs(empirical - 0.25) <= 3.0 * stderr

    def test_cross_interval_vanishes(self):
        cfg = SimConfig(horizon_t=4.0, oversample=8, trials=1500, seed=31)
        empirical, stderr = self.products(cfg, 0.5, 1.5)
        assert abs(empirical) <= 3.0 * stderr

    def test_pinned_at_sampling_instants(self):
        cfg = SimConfig(horizon_t=4.0, oversample=8, trials=50, seed=37)
        assert self.products(cfg, 1.0, 1.0)[0] == 0.0


class TestKlCoefficients:
    def test_eigen_coefficient_variance_is_eigenvalue(self):
        n = 4
        system = interp_kernel_eigensystem(UNIT, n)
        lam1, v = system.eigenvalues[0], system.node_values[0]
        cfg = SimConfig(horizon_t=float(n), oversample=4, trials=2000, seed=47)
        x = paths(UNIT, cfg, range(cfg.trials))[1]
        coeffs = (x[:, :-1] @ (2.0 * v[:-1] + v[1:])   # <phi_1, interp>
                  + x[:, 1:] @ (v[:-1] + 2.0 * v[1:])) * (UNIT.ts / 6.0)
        var = coeffs.var(ddof=1)
        se = lam1 * math.sqrt(2.0 / (cfg.trials - 1))
        assert abs(var - lam1) <= 3.0 * se
        assert abs(coeffs.mean()) <= 3.0 * math.sqrt(lam1 / cfg.trials)


class TestLemmaBounds:
    def test_zero_errors_give_floor(self):
        m = ErrorMoments(second=np.zeros(10), cross=np.zeros(9))
        lo, hi = lemma_bounds(m, ProcessParams(1.0, 2.0))
        assert lo == pytest.approx(1.0 / 12.0, abs=1e-15)
        assert hi == pytest.approx(1.0 / 12.0, abs=1e-15)

    def test_constant_moments_limit(self):
        c = 0.3
        m = ErrorMoments(second=np.full(4000, c), cross=np.zeros(3999))
        lo, hi = lemma_bounds(m, UNIT)
        assert lo == pytest.approx(1.0 / 6.0 + 2.0 * c / 3.0, abs=1e-3)
        assert hi == pytest.approx(1.0 / 6.0 + 2.0 * c / 3.0, abs=1e-3)
        assert lo <= hi

    def test_anticorrelated_moments_limit(self):
        c = 0.3
        m = ErrorMoments(second=np.full(4000, c), cross=np.full(3999, -c / 2))
        lo, hi = lemma_bounds(m, UNIT)
        assert lo == pytest.approx(1.0 / 6.0 + c / 2.0, abs=1e-3)
        assert hi == pytest.approx(1.0 / 6.0 + c / 2.0, abs=1e-3)

    def test_validation(self):
        with pytest.raises(ValueError):
            ErrorMoments(second=np.ones(3), cross=np.ones(3))
        with pytest.raises(ValueError):
            ErrorMoments(second=-np.ones(3), cross=np.zeros(2))
        with pytest.raises(ValueError):
            ErrorMoments(second=np.ones(3), cross=np.array([2.0, 0.0]))
        with pytest.raises(ValueError, match="need N >= 2"):
            ErrorMoments(second=np.ones(1), cross=np.ones(0))
        # the bound is sqrt(s1) sqrt(s2): the product s1 s2 overflows here
        with pytest.raises(ValueError, match="Cauchy-Schwarz"):
            ErrorMoments(second=np.array([1e200, 1e200]),
                         cross=np.array([2e200]))
        for field, second, cross in (("second", [math.nan, 1.0], [0.0]),
                                     ("second", [math.inf, 1.0], [0.0]),
                                     ("cross", [1.0, 1.0], [math.inf])):
            with pytest.raises(FloatingPointError,
                               match=f"^{field} is past the floating-point range"):
                ErrorMoments(second=np.array(second), cross=np.array(cross))
        # ... and underflows here (below about 1e-162): the pair is valid
        tiny = ErrorMoments(second=np.array([1e-200, 4e-200]),
                            cross=np.array([-2e-200]))
        assert lemma_bounds(tiny, UNIT) == (1.0 / 6.0, 1.0 / 6.0)

    def test_bounds_answer_where_a_unit_scale_moment_overflows(self):
        # 1e308 / (1 / 1.99) is past the floats; the bounds are not
        m = ErrorMoments(second=np.array([1e300, 1e308]), cross=np.zeros(1))
        lo, hi = lemma_bounds(m, ProcessParams(1.0, 1.99))
        assert lo == pytest.approx(1.0 / 6.0 / 1.99 + 1e300 / 3.0, rel=1e-15)
        assert hi == pytest.approx((1e308 + 2e300) / 9.0 * 2.0, rel=1e-15)

    def test_bounds_answer_where_an_absolute_sum_overflows(self):
        # s.sum() + s[0] is past the floats; the sums at unit scale are not
        m = ErrorMoments(second=np.array([1.2e308, 1e300]), cross=np.zeros(1))
        lo, hi = lemma_bounds(m, ProcessParams(1, 1.5))
        assert lo == pytest.approx(1.2e308 / 3.0, rel=1e-15)
        assert hi == pytest.approx(1.2e308 / 9.0 * 4.0 + 2e300 / 9.0,
                                   rel=1e-15)

    def test_moments_no_path_has_give_the_floor(self):
        # (2/3) 0.5 - (1/3) sqrt(0.5 * 33) / 4 < 0: no path's errors have
        # these moments, and every path's mean error is at least mmse
        m = ErrorMoments(second=[0.0, 0.5, 33.0],
                         cross=[0.0, -math.sqrt(16.5) / 4])
        params = ProcessParams(1.0, 97.0)
        lo, hi = lemma_bounds(m, params)
        assert lo == wienerdr.mmse_fs(params) and hi > lo

    def test_list_moments_give_the_array_bounds(self):
        as_list = ErrorMoments(second=[1.0, 1.0], cross=[0.5])
        as_array = ErrorMoments(second=np.ones(2), cross=np.array([0.5]))
        params = ProcessParams(1, 2)
        assert lemma_bounds(as_list, params) == lemma_bounds(as_array, params) \
            == (0.49999999999999994, 0.8055555555555556)


class TestFiniteWaterfill:
    def test_exact_level_at_two_bits(self):
        # the min{i,j} covariance has unit determinant, so the geometric
        # mean of the eigenvalues is 1 and theta = 2**(-2 rbar) exactly
        lam = discrete_wiener_eigensystem(UNIT, 64).eigenvalues
        theta = finite_waterfill_theta(lam, 2.0)
        assert theta == pytest.approx(1.0 / 16.0, rel=1e-12)

    def test_matches_bisection_oracle(self):
        lam = discrete_wiener_eigensystem(UNIT, 128).eigenvalues
        n = len(lam)
        for rbar in (0.3, 0.8, 2.5):
            theta = finite_waterfill_theta(lam, rbar)

            def mean_rate(th):
                return np.mean(0.5 * np.maximum(0.0, np.log2(lam / th))) - rbar

            oracle = brentq(mean_rate, lam.min() * 2.0 ** (-2 * n), lam.max())
            assert theta == pytest.approx(oracle, rel=1e-9)

    def test_huge_rate_drains_level(self):
        lam = discrete_wiener_eigensystem(UNIT, 8).eigenvalues
        assert finite_waterfill_theta(lam, 40.0) < 1e-20

    @pytest.mark.parametrize("n", [1, 2, 7, 128, 1500])
    def test_matches_segment_loop(self, n):
        params = ProcessParams(1.7, 0.6)
        lam = discrete_wiener_eigensystem(params, n).eigenvalues
        for rbar in (1e-3, 0.05, 0.3, 1.0, 2.5, 40.0):
            theta = finite_waterfill_theta(lam, rbar)
            assert theta == pytest.approx(loop_waterfill_theta(lam, rbar),
                                          rel=1e-14)

    def test_validation(self):
        lam = discrete_wiener_eigensystem(UNIT, 4).eigenvalues
        with pytest.raises(ValueError):
            finite_waterfill_theta(lam, 0.0)
        with pytest.raises(ValueError):
            finite_waterfill_theta(np.array([1.0, -2.0]), 1.0)


class TestCeMomentOracle:
    def test_trace_identity(self):
        # mean second moment equals the waterfilled per-sample distortion
        n, rbar = 96, 0.7
        moments = ce_moment_oracle(UNIT, n, rbar)
        lam = discrete_wiener_eigensystem(UNIT, n).eigenvalues
        theta = finite_waterfill_theta(lam, rbar)
        assert moments.second.mean() == pytest.approx(
            np.minimum(theta, lam).mean(), abs=1e-10)

    def test_cross_vanishes_when_all_modes_active(self):
        # theta below every eigenvalue makes the error covariance theta * I
        moments = ce_moment_oracle(UNIT, 256, 2.0)
        assert np.max(np.abs(moments.cross)) < 1e-12

    def test_tiny_moments_at_huge_rate(self):
        moments = ce_moment_oracle(UNIT, 2, 40.0)
        assert np.max(moments.second) < 1e-20

    def test_lag_one_limit_convergence(self):
        # closed-form limit of the mean lag-1 cross moment at 0.5 bits/sample
        rbar = 0.5
        point = solve_theta_for_rate(SAMPLED_WIENER, rbar)
        limit = point.distortion - 0.5 * g_fun(rbar)
        errs = []
        for n in (200, 500, 1000):
            moments = ce_moment_oracle(UNIT, n, rbar)
            value = moments.cross.sum() / n
            errs.append(abs(value - limit) / limit)
        assert errs[2] < errs[1] < errs[0]
        assert errs[2] < 0.01


class TestFastTransforms:
    """The FFT-based KL transforms and moments against the dense matrix."""

    # 2n+1 = 2459 and 3001 are prime, 2991 = 3 * 997
    @pytest.mark.parametrize("n", [1, 2, 3, 17, 1229, 1495, 1500])
    def test_sine_transforms_match_eigenvectors(self, n):
        vecs = discrete_wiener_eigensystem(UNIT, n).eigenvectors
        x = np.random.default_rng(n).standard_normal((3, n))
        dense_fwd = x @ vecs.T
        dense_inv = x @ vecs
        fwd = mc._kl_forward(x)
        inv = mc._kl_inverse(x)
        assert np.max(np.abs(fwd - dense_fwd)) <= 1e-12 * np.max(np.abs(dense_fwd))
        assert np.max(np.abs(inv - dense_inv)) <= 1e-12 * np.max(np.abs(dense_inv))

    @pytest.mark.parametrize("n", [2, 5, 256, 1000, 1495, 1500])
    def test_moments_match_dense(self, n):
        params = ProcessParams(2.0, 0.8)
        system = discrete_wiener_eigensystem(params, n)
        vecs = system.eigenvectors
        for rbar in (0.05, 0.7, 3.0):
            d = np.minimum(loop_waterfill_theta(system.eigenvalues, rbar),
                           system.eigenvalues)
            second = (vecs ** 2).T @ d
            cross = np.einsum("km,k,km->m", vecs[:, :-1], d, vecs[:, 1:])
            moments = ce_moment_oracle(params, n, rbar)
            scale = np.max(second)
            assert np.max(np.abs(moments.second - second)) <= 1e-12 * scale
            assert np.max(np.abs(moments.cross - cross)) <= 1e-12 * scale

    @pytest.mark.parametrize("n", [2, 7, 1500])
    def test_one_fft_of_the_period_each(self, n, monkeypatch):
        lengths = []
        rfft = np.fft.rfft

        def counted(a, *args, **kwargs):
            lengths.append(np.shape(a)[-1])
            return rfft(a, *args, **kwargs)

        monkeypatch.setattr(np.fft, "rfft", counted)
        x = np.random.default_rng(n).standard_normal((3, n))
        for run in (lambda: mc._kl_forward(x), lambda: mc._kl_inverse(x),
                    lambda: mc._oracle(n, 0.5)):
            lengths.clear()
            run()
            assert lengths == [2 * n + 1]


class TestBatchedTrials:
    """Chunked runs against the dense one-trial-at-a-time references."""

    # the seed-83 cases keep the ids they had before seeds were a parameter
    @pytest.mark.parametrize("params,blocks,oversample,trials,rbar,seed", [
        pytest.param(UNIT, 2, 1, 20, 1.0, 83, id="params0-2-1-20-1.0"),
        pytest.param(ProcessParams(1.3, 2.0), 16, 8, 40, 0.7, 83,
                     id="params1-16-8-40-0.7"),
        pytest.param(ProcessParams(0.5, 1.0), 33, 4, 12, 0.2, 83,
                     id="params2-33-4-12-0.2"),
        pytest.param(UNIT, 300, 4, 6, 2.0, 83, id="params3-300-4-6-2.0"),
        pytest.param(ProcessParams(1.3, 2.0), 16, 8, 40, 0.7, 0, id="seed-0"),
        pytest.param(ProcessParams(0.5, 1.0), 33, 4, 12, 0.2, 2 ** 64 - 1,
                     id="seed-2**64-1"),
    ])
    def test_per_trial_values_match_dense_loop(self, params, blocks,
                                               oversample, trials, rbar, seed):
        cfg = SimConfig(horizon_t=blocks / params.fs, oversample=oversample,
                        trials=trials, seed=seed)
        got = mc_test_channel_run(params, cfg, rbar).per_trial
        ref = dense_channel_trials(params, cfg, rbar)
        assert np.max(np.abs(got - ref) / ref) <= 1e-12
        got = empirical_mmse(params, cfg).per_trial
        ref = dense_mmse_trials(params, cfg)
        assert np.max(np.abs(got - ref) / np.maximum(ref, 1e-300)) <= 1e-12

    def test_chunking_leaves_trials_bit_identical(self):
        n, oversample, k = 8, 8, 5
        chunk = mc._chunk_rows(n, oversample)
        short = SimConfig(horizon_t=n, oversample=oversample, trials=k, seed=89)
        long = SimConfig(horizon_t=n, oversample=oversample,
                         trials=k + chunk + 1, seed=89)
        for run in (empirical_mmse,
                    lambda p, c: mc_test_channel_run(p, c, 0.8)):
            first = run(UNIT, short).per_trial
            again = run(UNIT, long).per_trial
            assert np.array_equal(first, again[:k])


class TestIntervalSplit:
    """The per-interval error split against the direct trapezoid of
    (fine path - interpolant of the nodes)**2 on the whole path."""

    @settings(max_examples=150, deadline=None)
    @given(st.integers(min_value=1, max_value=64),
           st.integers(min_value=1, max_value=40),
           st.integers(min_value=1, max_value=5), st.booleans(),
           st.integers(min_value=0, max_value=2 ** 32 - 1))
    @example(oversample=1, n=9, rows=3, node_errors=False, seed=0)
    @example(oversample=1, n=9, rows=3, node_errors=True, seed=0)
    @example(oversample=16, n=1, rows=2, node_errors=False, seed=1)
    @example(oversample=16, n=1, rows=2, node_errors=True, seed=1)
    @example(oversample=1, n=1, rows=1, node_errors=True, seed=2)
    def test_matches_direct_trapezoid(self, oversample, n, rows, node_errors,
                                      seed):
        rng = np.random.default_rng(seed)
        steps = rng.standard_normal((rows, n, oversample))
        fine = np.concatenate((np.zeros((rows, 1)),
                               np.cumsum(steps.reshape(rows, -1), axis=1)),
                              axis=1)
        nodes = fine[:, ::oversample].copy()
        if node_errors:
            nodes[:, 1:] += rng.standard_normal((rows, n)) \
                * 10.0 ** rng.uniform(-3.0, 1.0)
        # both routes see the same nodes; the errors W - nodes are formed
        # as the test-channel run forms them
        bridge = steps.copy()
        errors = fine[:, ::oversample] - nodes
        mc._split(bridge)
        got = mc._interval_error(bridge, errors if node_errors else None)
        for row in range(rows):
            ref = _trapezoid_mean(
                (fine[row] - _lerp(nodes[row], oversample)) ** 2, 1.0, 1.0)
            assert abs(got[row] - ref) <= 1e-12 * ref


class TestExpectations:
    """Reference and bias of a run: the grid-exact and continuous-time
    expectations of its per-trial values."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=2, max_value=40),
           st.integers(min_value=1, max_value=16),
           st.floats(min_value=0.01, max_value=6.0))
    @example(n=2, oversample=1, rbar=0.01)
    @example(n=40, oversample=16, rbar=6.0)
    def test_channel_reference_matches_dense_oracle(self, n, oversample,
                                                    rbar):
        params = ProcessParams(1.3, 2.0)
        cfg = SimConfig(horizon_t=n / params.fs, oversample=oversample,
                        trials=2, seed=1)
        got = mc_test_channel_run(params, cfg, rbar).reference
        ref = dense_grid_expectation(n, oversample, rbar) \
            / (n * oversample ** 2) * (params.sigma2 / params.fs)
        assert abs(got - ref) <= 1e-12 * ref

    @pytest.mark.parametrize("n,oversample,rbar", [
        (2, 1, 0.1), (17, 4, 0.7), (300, 8, 2.0), (1500, 3, 0.05)])
    def test_continuous_value_is_lower_bound_plus_last_term(self, n,
                                                            oversample, rbar):
        moments = ce_moment_oracle(UNIT, n, rbar)
        unit = ErrorMoments(oversample * moments.second,
                            oversample * moments.cross)
        got = mc._expectations(n, oversample, unit)[1] / (n * oversample ** 2)
        ref = lemma_bounds(moments, UNIT)[0] + moments.second[-1] / (3 * n)
        assert got == pytest.approx(ref, rel=1e-12)

    @pytest.mark.parametrize("params", [UNIT, ProcessParams(1.3, 2.0),
                                        ProcessParams(1e-3, 7.0)])
    @pytest.mark.parametrize("oversample", [1, 2, 3, 7, 16, 64])
    def test_mmse_reference_is_the_grid_floor(self, params, oversample):
        cfg = SimConfig(horizon_t=5.0, oversample=oversample, trials=2,
                        seed=1)
        r = empirical_mmse(params, cfg)
        floor = params.sigma2 / (6.0 * params.fs)
        expected = floor * (1.0 - 1.0 / oversample ** 2)
        assert abs(r.reference - expected) <= 4 * math.ulp(expected)
        assert r.bias == pytest.approx(floor / oversample ** 2, rel=1e-12)

    @pytest.mark.parametrize("run", sorted(SPLIT_RUNS))
    def test_z_does_not_depend_on_sigma2(self, run):
        cfg = SimConfig(horizon_t=12.0, oversample=8, trials=30, seed=7)
        base = SPLIT_RUNS[run](ProcessParams(1.3, 2.0), cfg)
        for power in (40, -40):
            scaled = SPLIT_RUNS[run](ProcessParams(1.3 * 2.0 ** power, 2.0),
                                     cfg)
            assert scaled.z_score == base.z_score
            assert np.array_equal(scaled.per_trial,
                                  base.per_trial * 2.0 ** power)


class TestCeDistortionEstimate:
    def test_converges_to_closed_form(self):
        est = ce_distortion_estimate(UNIT, 256, 2.0)
        assert est.estimate == pytest.approx(5.0 / 24.0, rel=0.01)
        est = ce_distortion_estimate(UNIT, 512, 1.0)
        assert est.estimate == pytest.approx(1.0 / 3.0, rel=0.01)

    def test_gap_shrinks_with_blocklength(self):
        gaps = [ce_distortion_estimate(UNIT, n, 2.0).gap
                for n in (64, 128, 256, 512)]
        assert gaps == sorted(gaps, reverse=True)
        assert all(g > 0 for g in gaps)

    def test_scales_with_units(self):
        params = ProcessParams(3.0, 2.0)
        est = ce_distortion_estimate(params, 256, 2.0)
        assert est.estimate == pytest.approx(
            (3.0 / 2.0) * ce_distortion_estimate(UNIT, 256, 2.0).estimate,
            rel=1e-9)


class TestTestChannelRun:
    def test_lands_on_oracle(self):
        cfg = SimConfig(horizon_t=32.0, oversample=16, trials=300, seed=53)
        result = mc_test_channel_run(UNIT, cfg, 2.0)
        tolerance = 3.0 * result.stderr + (2.0 / 32.0) * result.reference
        assert abs(result.estimate - result.reference) <= tolerance

    @pytest.mark.parametrize("rbar", [1.0, 2.0])
    def test_sandwiched_by_lemma_bounds(self, rbar):
        cfg = SimConfig(horizon_t=32.0, oversample=16, trials=250, seed=59)
        result = mc_test_channel_run(UNIT, cfg, rbar)
        lo, hi = lemma_bounds(ce_moment_oracle(UNIT, 32, rbar), UNIT)
        # the Monte-Carlo average sits between the bounds up to noise and
        # the oversampling bias of the fine-grid time integral
        slack = 3.0 * result.stderr + result.bias
        assert lo - slack <= result.estimate <= hi + slack

    def test_infinite_rate_reduces_to_mmse(self):
        cfg = SimConfig(horizon_t=16.0, oversample=16, trials=400, seed=61)
        result = mc_test_channel_run(UNIT, cfg, 40.0)
        expected = empirical_mmse(UNIT, cfg)
        # identical seeds reproduce the same paths, and the channel noise is
        # scaled by a vanishing gain, so the estimates agree almost exactly
        assert result.estimate == pytest.approx(expected.estimate, rel=1e-6)

    def test_oversample_refinement_within_bias(self):
        coarse_cfg = SimConfig(horizon_t=24.0, oversample=8, trials=400, seed=67)
        fine_cfg = SimConfig(horizon_t=24.0, oversample=16, trials=400, seed=67)
        coarse = mc_test_channel_run(UNIT, coarse_cfg, 2.0)
        fine = mc_test_channel_run(UNIT, fine_cfg, 2.0)
        slack = (coarse.bias + fine.bias
                 + 3.0 * (coarse.stderr + fine.stderr))
        assert abs(coarse.estimate - fine.estimate) <= slack

    def test_deterministic(self):
        cfg = SimConfig(horizon_t=8.0, oversample=8, trials=20, seed=71)
        a = mc_test_channel_run(UNIT, cfg, 1.5)
        # by keyword, as README calls it
        b = mc_test_channel_run(params=UNIT, config=cfg, rbar=1.5)
        assert np.array_equal(a.per_trial, b.per_trial)


def split_values(run, cfg, monkeypatch, workers=1):
    """Per-trial values of ``run`` cut across ``workers`` processes."""
    monkeypatch.setattr(mc, "_workers", lambda trials, increments: workers)
    return run(UNIT, cfg).per_trial


def assert_children_reaped():
    """Close the worker pool; then no child process may be left."""
    mc._close_pool()
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def pool_pids():
    return [worker.pid for worker in mc._pool]


class TestSplitRuns:
    """Runs cut across forked workers against one process, starting at
    most 3 children per test.  A test that patches what the workers run
    closes the pool first, so that its workers are forked after the patch.
    """

    def test_worker_rule(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
        assert mc._workers(500, 16 * 16) == 1        # under 2**19 increments
        assert mc._workers(2048, 16 * 16) == 2
        assert mc._workers(2000, 8 * 64) == 3
        assert mc._workers(10 ** 6, 64) == 4         # one per CPU
        assert mc._workers(2, 10 ** 6) == 2          # one per trial
        # a test-channel row draws n (oversample + 1) normals: tc-16 splits
        assert mc._workers(1960, 16 * 16) == 1
        assert mc._workers(1960, 16 * (16 + 1)) == 2
        assert mc._workers(12, 1236 * (32 + 1)) == 1  # kl tc-fine stays here
        release = threading.Event()
        other = threading.Thread(target=release.wait)
        other.start()
        try:
            assert mc._workers(10 ** 6, 64) == 1     # another live thread
        finally:
            release.set()
            other.join(timeout=10)
        assert not other.is_alive()
        got = []
        caller = threading.Thread(target=lambda: got.append(
            mc._workers(10 ** 6, 64)))
        caller.start()
        caller.join(timeout=10)
        assert got == [1]                            # off the main thread
        monkeypatch.delattr(os, "fork")
        assert mc._workers(10 ** 6, 64) == 1

    @pytest.mark.parametrize("run", sorted(SPLIT_RUNS))
    @pytest.mark.parametrize("blocks,oversample,trials", [
        (8, 8, 7), (8, 8, 2), (700, 100, 5)],
        ids=["indivisible", "fewer-than-workers", "one-row-chunks"])
    def test_split_equals_one_process(self, monkeypatch, run, blocks,
                                      oversample, trials):
        cfg = SimConfig(horizon_t=blocks, oversample=oversample,
                        trials=trials, seed=97)
        if blocks == 700:
            assert mc._chunk_rows(blocks, oversample) == 1
        one = split_values(SPLIT_RUNS[run], cfg, monkeypatch)
        for workers in (2, 3):   # the second run reuses the first's worker
            got = split_values(SPLIT_RUNS[run], cfg, monkeypatch, workers)
            assert np.array_equal(got, one)
        assert_children_reaped()

    @pytest.mark.parametrize("run", sorted(SPLIT_RUNS))
    @pytest.mark.parametrize("failure", ["raise", "exit", "killed", "short"])
    def test_failed_child_part_is_recomputed(self, monkeypatch, run,
                                             failure):
        cfg = SimConfig(horizon_t=8, oversample=8, trials=9, seed=98)
        one = split_values(SPLIT_RUNS[run], cfg, monkeypatch)
        parent, intervals, values = os.getpid(), mc._intervals, mc._values

        def failing(*args):
            if os.getpid() != parent:
                if failure == "raise":
                    raise RuntimeError("child fails")
                if failure == "exit":
                    os._exit(1)
                os.kill(os.getpid(), 9)
            return intervals(*args)

        def short(*args):   # a worker sends one value too few and lives on
            return values(*args)[:-1 if os.getpid() != parent else None]

        if failure == "short":
            monkeypatch.setattr(mc, "_values", short)
        else:
            monkeypatch.setattr(mc, "_intervals", failing)
        mc._close_pool()
        got = split_values(SPLIT_RUNS[run], cfg, monkeypatch, 2)
        assert np.array_equal(got, one)
        assert mc._pool == []   # the failed worker was dropped
        assert_children_reaped()

    @pytest.mark.parametrize("error,code", [(MemoryError, 2),
                                            (FloatingPointError, 3)])
    def test_error_of_every_process_is_the_one_process_error(
            self, tmp_path, capsys, monkeypatch, error, code):
        def failing(*args):
            raise error("fails everywhere")

        monkeypatch.setattr(mc, "_intervals", failing)
        mc._close_pool()
        out = str(tmp_path / "sim.csv")
        argv = ["simulate", "--scheme", "mmse-only", "--horizon", "8",
                "--oversample", "8", "--trials", "9", "--seed", "5",
                "--out", out]
        results = []
        for workers in (1, 2):
            monkeypatch.setattr(mc, "_workers",
                                lambda trials, increments: workers)
            results.append((main(argv), capsys.readouterr()))
            assert_children_reaped()
            assert os.listdir(tmp_path) == []
        assert results[0] == results[1]
        assert results[0][0] == code

    def test_error_here_kills_running_children(self, monkeypatch):
        parent = os.getpid()

        def failing(*args):
            if os.getpid() != parent:
                time.sleep(30)
            raise ValueError("fails here")

        monkeypatch.setattr(mc, "_intervals", failing)
        mc._close_pool()
        cfg = SimConfig(horizon_t=8, oversample=8, trials=9, seed=5)
        start = time.monotonic()
        with pytest.raises(ValueError, match="fails here"):
            split_values(empirical_mmse, cfg, monkeypatch, 2)
        assert time.monotonic() - start < 10
        assert mc._pool == []   # the busy worker was killed and dropped
        assert_children_reaped()

    def test_failing_fork_runs_in_one_process(self, monkeypatch):
        cfg = SimConfig(horizon_t=8, oversample=8, trials=9, seed=99)
        mc._close_pool()
        for run in SPLIT_RUNS.values():
            one = split_values(run, cfg, monkeypatch)

            def no_fork():
                raise OSError(11, "Resource temporarily unavailable")

            monkeypatch.setattr(os, "fork", no_fork)
            assert np.array_equal(
                split_values(run, cfg, monkeypatch, 3), one)
            monkeypatch.undo()
            assert_children_reaped()

    def test_split_runs_reuse_one_worker(self, monkeypatch):
        cfg = SimConfig(horizon_t=8, oversample=8, trials=9, seed=61)
        one = split_values(empirical_mmse, cfg, monkeypatch)
        forks, fork = [], os.fork

        def counted():
            forks.append(os.getpid())
            return fork()

        mc._close_pool()
        monkeypatch.setattr(os, "fork", counted)
        for _ in range(2):
            assert np.array_equal(
                split_values(empirical_mmse, cfg, monkeypatch, 2), one)
        assert len(forks) == 1 and len(pool_pids()) == 1
        assert_children_reaped()

    def test_dead_worker_is_reaped_and_replaced(self, monkeypatch):
        cfg = SimConfig(horizon_t=8, oversample=8, trials=9, seed=62)
        one = split_values(empirical_mmse, cfg, monkeypatch)
        mc._close_pool()
        split_values(empirical_mmse, cfg, monkeypatch, 2)
        [dead] = pool_pids()
        os.kill(dead, 9)
        os.waitid(os.P_PID, dead, os.WEXITED | os.WNOWAIT)   # not reaped
        assert np.array_equal(
            split_values(empirical_mmse, cfg, monkeypatch, 2), one)
        with pytest.raises(ChildProcessError):
            os.waitpid(dead, os.WNOHANG)
        assert mc._pool == []   # its part was computed here
        assert np.array_equal(
            split_values(empirical_mmse, cfg, monkeypatch, 2), one)
        [live] = pool_pids()
        assert live != dead and os.waitpid(live, os.WNOHANG) == (0, 0)
        assert_children_reaped()

    def test_worker_reaped_elsewhere_is_not_signalled(self, monkeypatch):
        cfg = SimConfig(horizon_t=8, oversample=8, trials=9, seed=64)
        one = split_values(empirical_mmse, cfg, monkeypatch)
        mc._close_pool()
        split_values(empirical_mmse, cfg, monkeypatch, 2)
        [reaped] = pool_pids()
        os.kill(reaped, 9)
        os.waitpid(reaped, 0)   # its pid is free for another process
        signals, kill = [], os.kill

        def recorded(pid, signal):
            signals.append((pid, signal))
            if pid != reaped:
                kill(pid, signal)

        monkeypatch.setattr(os, "kill", recorded)
        assert np.array_equal(
            split_values(empirical_mmse, cfg, monkeypatch, 2), one)
        assert [pid for pid, _ in signals if pid == reaped] == []
        assert_children_reaped()

    def test_process_with_a_pool_exits_and_reaps_it(self, tmp_path):
        script = (
            "from wienerdr import mc\n"
            "from wienerdr.mc import SimConfig, empirical_mmse\n"
            "from wienerdr.spectral import ProcessParams\n"
            "mc._workers = lambda trials, draws: 3\n"
            "empirical_mmse(ProcessParams(1.0, 1.0), SimConfig(8, 8, 9, 5))\n"
            "print(*(worker.pid for worker in mc._pool))\n")
        src = os.path.dirname(os.path.dirname(wienerdr.__file__))
        done = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, timeout=60,
                              env=dict(os.environ, PYTHONPATH=src))
        assert done.returncode == 0, done.stderr
        pids = [int(pid) for pid in done.stdout.split()]
        assert len(pids) == 2
        for pid in pids:
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)

    def test_forked_process_forgets_the_pool(self, monkeypatch):
        cfg = SimConfig(horizon_t=8, oversample=8, trials=9, seed=63)
        mc._close_pool()
        split_values(empirical_mmse, cfg, monkeypatch, 2)
        assert len(pool_pids()) == 1
        pid = os.fork()
        if pid == 0:
            os._exit(0 if mc._pool == [] else 1)
        assert os.waitpid(pid, 0)[1] == 0
        assert_children_reaped()
