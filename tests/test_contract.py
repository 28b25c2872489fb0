"""The library contract: every public route, given its arguments in any form
a type reads or ill-formed, returns its documented type, finite where it is
a float, an array or a tuple, or raises a ``ParameterError`` naming one of
its arguments, a ``ValueError`` or a ``FloatingPointError``; nothing else
(no ``TypeError``, ``IndexError`` or ``AttributeError``) escapes.

The routes are every public name of the modules below, so a new public name
fails ``test_each_public_name_has_a_route`` until it has a route here or an
exemption with its reason.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wienerdr
from test_cli import as_form, counts, outcome, reals
from wienerdr import drf, mc, spectral, waterfill

MODULES = (wienerdr, spectral, drf, waterfill, mc)
PUBLIC = sorted({name for module in MODULES for name in module.__all__})

#: values that no argument should take as they stand
ILL_FORMED = ("x", object(), math.nan, math.inf, 0, -1, [], [1.0], [1.0, 2.0],
              [[1.0, 2.0]], True)


def arrays(elements, min_size, max_size):
    """Lists of ``elements``, as a list or as a float64 array."""
    return st.lists(elements, min_size=min_size, max_size=max_size).flatmap(
        lambda values: as_form(values, (list, np.array)))


#: each argument by its name, in the forms ``test_a_type_keeps_the_value_it_
#: checked`` draws, over ranges that keep a Monte-Carlo run to a few rows
VALUES = {
    "sigma2": reals(0.25, 4.0), "fs": reals(0.25, 4.0),
    "rate": reals(2.0 ** -4, 2.0 ** 4), "rbar": reals(2.0 ** -4, 2.0 ** 4),
    "rate_bits_per_sample": reals(2.0 ** -4, 2.0 ** 4),
    "horizon_t": reals(0.5, 8.0), "oversample": counts(1, 4),
    "trials": counts(1, 4), "seed": counts(0, 2 ** 32),
    "n": counts(1, 6), "k": counts(1, 6), "grid_points": counts(2, 6),
    "phi": reals(2.0 ** -10, 1.0), "theta": reals(2.0 ** -10, 2.0 ** 4),
    "t": reals(2.0 ** -4, 8.0),
    "eigenvalues": arrays(st.floats(2.0 ** -10, 2.0 ** 10), 1, 6),
    "second": arrays(st.floats(0.25, 4.0), 3, 3),
    "cross": arrays(st.floats(-0.25, 0.25), 2, 2),
    "shift": st.sampled_from((0.0, 1.0 / 6.0)),
    "order": st.sampled_from(("first", "second")),
}


class Args:
    """The arguments of one call, each drawn from ``VALUES`` or
    ``ILL_FORMED`` when the route reads it; ``read`` names those read."""

    def __init__(self, draw):
        self.draw, self.read = draw, []

    def __getattr__(self, name):
        self.read.append(name)
        return self.draw(st.one_of(VALUES[name], st.sampled_from(ILL_FORMED)),
                         label=name)


def params(a):
    return spectral.ProcessParams(a.sigma2, a.fs)


def rate(a):
    return drf.RateSpec(a.rate)


def config(a):
    return mc.SimConfig(a.horizon_t, a.oversample, a.trials, a.seed)


def moments(a):
    return mc.ErrorMoments(a.second, a.cross)


REAL = (float, np.ndarray)   # a scalar route returns np.float64, a float
WALK, SHIFTED = spectral.SAMPLED_WIENER, spectral.SHIFTED_SAMPLED_WIENER

#: public name -> (the call of the route from its arguments, its result type)
ROUTES = {
    "ProcessParams": (params, spectral.ProcessParams),
    "RateSpec": (rate, drf.RateSpec),
    "SimConfig": (config, mc.SimConfig),
    "ErrorMoments": (moments, mc.ErrorMoments),
    "SpectralDensity": (lambda a: spectral.SpectralDensity(a.shift),
                        spectral.SpectralDensity),
    "SAMPLED_WIENER": (lambda a: WALK(a.phi), REAL),
    "SHIFTED_SAMPLED_WIENER": (lambda a: SHIFTED(a.phi), REAL),
    "read_real": (lambda a: spectral.read_real("rate", a.rate), float),
    "check_positive": (lambda a: spectral.check_positive("rate", a.rate),
                       float),
    "read_int": (lambda a: spectral.read_int("seed", a.seed), int),
    "check_count": (lambda a: spectral.check_count("n", a.n), int),
    "discrete_wiener_eigenvalues": (
        lambda a: spectral.discrete_wiener_eigenvalues(params(a), a.n),
        np.ndarray),
    "interp_kernel_eigenvalues": (
        lambda a: spectral.interp_kernel_eigenvalues(params(a), a.n),
        np.ndarray),
    "interp_kernel_eigensystem": (
        lambda a: spectral.interp_kernel_eigensystem(params(a), a.n),
        spectral.EigenSystem),
    # the two accessors of a built system, one through each builder
    "discrete_wiener_eigensystem": (
        lambda a: spectral.discrete_wiener_eigensystem(params(a), a.n)
        .eigenvector(a.k), np.ndarray),
    "EigenSystem": (
        lambda a: spectral.interp_kernel_eigensystem(params(a), a.n)
        .eigenfunction(a.k, a.t), REAL),
    "nystrom_interp_eigenvalues": (
        lambda a: spectral.nystrom_interp_eigenvalues(params(a), a.n,
                                                      a.grid_points),
        np.ndarray),
    "distortion_at_theta": (
        lambda a: waterfill.distortion_at_theta(WALK, a.theta), REAL),
    "rate_at_theta": (lambda a: waterfill.rate_at_theta(SHIFTED, a.theta),
                      REAL),
    "solve_theta_for_rate": (
        lambda a: waterfill.solve_theta_for_rate(WALK, a.rate_bits_per_sample),
        waterfill.WaterfillPoint),
    "water_levels": (lambda a: waterfill.water_levels(WALK, a.rbar),
                     waterfill.WaterLevels),
    "sections": (lambda a: drf.sections(a.rbar), drf.Sections),
    "sweep": (lambda a: drf.sweep(a.sigma2, a.fs, a.rate),
              drf.DistortionBundle),
    "bundle": (lambda a: drf.bundle(params(a), rate(a)), drf.DistortionBundle),
    "d_w": (lambda a: drf.d_w(rate(a), a.sigma2), float),
    "mmse_fs": (lambda a: drf.mmse_fs(params(a)), float),
    "equilibrium_rbar": (lambda a: drf.equilibrium_rbar(), float),
    "dr_asym_coeffs": (lambda a: drf.dr_asym_coeffs(a.order), dict),
    "effective_grid": (lambda a: mc.effective_grid(params(a), config(a)),
                       tuple),
    "empirical_mmse": (lambda a: mc.empirical_mmse(params(a), config(a)),
                       mc.MomentEstimate),
    "mc_test_channel_run": (
        lambda a: mc.mc_test_channel_run(params(a), config(a), a.rbar),
        mc.MomentEstimate),
    "lemma_bounds": (lambda a: mc.lemma_bounds(moments(a), params(a)), tuple),
    "finite_waterfill_theta": (
        lambda a: mc.finite_waterfill_theta(a.eigenvalues, a.rbar), float),
    "ce_moment_oracle": (
        lambda a: mc.ce_moment_oracle(params(a), a.n, a.rbar),
        mc.ErrorMoments),
    "ce_distortion_estimate": (
        lambda a: mc.ce_distortion_estimate(params(a), a.n, a.rbar),
        mc.CeEstimate),
}
for _name in ("d_bar", "d_opt", "d_ce", "d_upper"):   # (params, rate) -> float
    ROUTES[_name] = (lambda a, f=getattr(drf, _name): f(params(a), rate(a)),
                     float)
for _name in ("d_tilde", "g_fun", "ratio_smp", "ratio_qnt", "ce_penalty"):
    ROUTES[_name] = (lambda a, f=getattr(drf, _name): f(a.rbar), REAL)

#: public name -> why it is no route of outside values
EXEMPT = {
    "__version__": "a string",
    "ParameterError": "the error the routes raise",
    "MAX_COUNT": "a constant",
    "MAX_RBAR": "a constant",
    "MIN_RBAR": "a constant",
    "DistortionBundle": "a result record that sweep builds",
    "Sections": "a result record that sections builds",
    "WaterLevels": "a result record that water_levels builds",
    "WaterfillPoint": "a result record that solve_theta_for_rate builds",
    "MomentEstimate": "a result record of the Monte-Carlo runs",
    "CeEstimate": "a result record of ce_distortion_estimate",
    "check_normal": "checks the results that the routes build",
    "unit": "scales values the routes have already read",
}


def test_each_public_name_has_a_route():
    assert [name for name in PUBLIC if name not in {**ROUTES, **EXEMPT}] == []
    assert sorted({**ROUTES, **EXEMPT}) == PUBLIC   # and no stale entry
    assert not ROUTES.keys() & EXEMPT.keys()


@pytest.mark.parametrize("name", [name for name in PUBLIC
                                  if name not in EXEMPT])
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_each_route_answers_or_names_its_argument(name, data):
    call, returns = ROUTES[name]
    args = Args(data.draw)
    try:
        result = call(args)
    except spectral.ParameterError as exc:
        assert exc.field in args.read
    except (ValueError, FloatingPointError):
        pass
    else:
        assert isinstance(result, returns)
        if isinstance(result, (float, np.ndarray, tuple)) \
                and name != "read_real":   # a reader returns what it read
            assert np.all(np.isfinite(result))


P, SHIFT = spectral.ProcessParams, spectral.SpectralDensity
PAST = "{} is past the floating-point range".format
EIGEN = (FloatingPointError, PAST("eigenvalues"))

#: probe -> (its call, its outcome: a value or an error's type and text; an
#: in-range call of the same route, and the value it has always given)
PROBES = {
    "shift-array": (lambda: SHIFT(np.array([0.0, 0.0])),
                    (spectral.ParameterError, "shift must be one number"),
                    lambda: SHIFT(1.0 / 6.0)(0.5), 0.3333333333333335),
    "shift-bool": (lambda: SHIFT(False).shift, 0.0,
                   lambda: SHIFT(0.0).shift, 0.0),
    "shift-0-d": (lambda: SHIFT(np.array(0.0)).shift, 0.0,
                  lambda: SHIFT(1.0 / 6.0).shift, 1.0 / 6.0),
    "shift-true": (lambda: SHIFT(True),
                   (spectral.ParameterError, "shift must be 0 or 1/6"),
                   lambda: SHIFT(0.0)(1.0), 0.25),
    "interp-inf": (
        lambda: spectral.interp_kernel_eigenvalues(P(1.0, 1e-310), 2), EIGEN,
        lambda: spectral.interp_kernel_eigenvalues(P(1.0, 3.0), 2),
        [0.17116001272443118, 0.014025172460753979]),
    "discrete-zero": (
        lambda: spectral.discrete_wiener_eigenvalues(P(1e-320, 1e10), 3),
        EIGEN, lambda: spectral.discrete_wiener_eigenvalues(P(2.0, 3.0), 3),
        [3.3659448930148703, 0.4287360880718604, 0.2053190189132694]),
    "nystrom-inf": (
        lambda: spectral.nystrom_interp_eigenvalues(P(1e300, 1e-10), 2, 4),
        EIGEN, lambda: spectral.nystrom_interp_eigenvalues(P(3.0, 0.5), 2, 4),
        [18.610281374238568, 1.63971862576143]),
    "ts-inf": (
        lambda: spectral.interp_kernel_eigensystem(P(5e-324, 1e-310), 2),
        (FloatingPointError, PAST("ts")),
        lambda: spectral.interp_kernel_eigensystem(P(5e-324, 1e-300), 2)
        .eigenvalues,
        [7.610785400600286e+276, 6.236420300871551e+275]),
    "d_w-inf": (lambda: drf.d_w(drf.RateSpec(1e-300), 1e300),
                (FloatingPointError, PAST("d_w")),
                lambda: drf.d_w(drf.RateSpec(1e-300), 1e-10),
                2.923511383556014e+289),
    "d_w-subnormal": (lambda: drf.d_w(drf.RateSpec(1e300), 1e-300),
                      (FloatingPointError, PAST("d_w")),
                      lambda: drf.d_w(drf.RateSpec(1e300), 1e-5),
                      2.923511383556014e-306),
    "mmse-inf": (lambda: drf.mmse_fs(P(1e308, 1e-10)),
                 (FloatingPointError, PAST("mmse")),
                 lambda: drf.mmse_fs(P(1e308, 1.0)), 1.6666666666666666e+307),
    "mmse-subnormal": (lambda: drf.mmse_fs(P(1e-310, 1.0)),
                       (FloatingPointError, PAST("mmse")),
                       lambda: drf.mmse_fs(P(1e-300, 1.0)),
                       1.6666666666666667e-301),
}


@pytest.mark.filterwarnings("error")   # and no RuntimeWarning escapes
@pytest.mark.parametrize("probe", sorted(PROBES))
def test_a_route_refuses_what_floats_cannot_hold(probe):
    """A shift is read as a real field is, and a result past the floats is
    refused by the name of its field; beside each probe, an in-range call
    of the same route answers bit for bit as it always has."""
    call, want, in_range, value = PROBES[probe]
    got = outcome(call)
    assert type(got) is type(want) and got == want
    assert np.array_equal(in_range(), value)


@pytest.mark.parametrize("seed,kept", [
    (2 ** 64 - 1, 2 ** 64 - 1), (np.uint64(2 ** 64 - 1), 2 ** 64 - 1),
    ("3.0", 3), (np.float64(3.0), 3)])
def test_a_seed_is_read_as_a_count_is(seed, kept):
    """An integer type keeps its exact value; anything else is read once as
    a float that must be integral."""
    kept_seed = mc.SimConfig(1.0, 8, 2, seed).seed
    assert type(kept_seed) is int and kept_seed == kept
