"""The waterfilling kernel within a stated number of ulps of 40-digit values.

``kernel_reference.json`` holds, at about 200 rbar over [MIN_RBAR, MAX_RBAR]
(most of them in the crossing band 0.1 <= rbar <= 1.45, where Newton's start
is worst), both densities' water level theta and distortion D and the walk's
g and compress-and-estimate term ce, from their closed forms in the crossing
c = cot(pi phic / 2), with phic = (2/pi) arctan(1/c):

    theta      = (1 + c^2) / 4 - s
    D          = theta phic + c / (2 pi) - s (1 - phic)
    2 ln2 rbar = (2/pi) Cl2(pi phic) - phic ln theta
                 + integral_0^phic ln(1 - 4 s sin^2(pi phi / 2)) dphi
    g          = 2 theta (phic - sin(pi phic) / pi) + 1 - phic
    ce         = D - g / 6

with s = 0 for the walk (whose integral vanishes) and 1/6 for the
interpolator; past each density's border rate the level is saturated,
theta = D = K 2^(-2 rbar) with K = 1 and (2 + sqrt 3)/6.  It also holds
both densities' rate at about 300 water levels theta, where
c^2 = 4 (theta + s) - 1 (phic = 1 at or below the floor 1/4 - s), both
densities 1/(4 sin^2(pi phi / 2)) - s at about 600 phi over (0, 1], and
the interpolator's eigenvalues, that density at the midpoints
(k - 1/2)/n, at about 800 (n, k).  The
table is written with mpmath at 60 digits, Cl2 from its series, and c
solved by bisection and then secant steps on the relative residual
rate / rbar - 1, which stays of order one where the rate itself is as
small as 1e-154; the test only reads it, so it needs no mpmath:

    python tests/test_kernel_reference.py --write
"""

import json
import math
import os
import sys
from fractions import Fraction

import numpy as np
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
REFERENCE = os.path.join(ROOT, "tests", "kernel_reference.json")

#: the bands (low, high] of rbar that ``ULP_BOUNDS`` splits: below the
#: crossing band, where theta ~ 1/(pi ln2 rbar)^2 is large, the crossing
#: band, and past it, where theta ~ 2^(-2 rbar) is small
BANDS = {"low": (0.0, 0.1), "crossing": (0.1, 1.45), "high": (1.45, math.inf)}

#: the largest error of ``drf.sections`` over the table, in ulps of each
#: field in each band of ``BANDS``, as measured and rounded up.  The rate
#: is formed without cancelling ln theta (up to about 700 in the low band),
#: so one Newton step leaves theta within a few ulps in every band; past
#: the border rate the level is the saturated K 2^(-2 rbar), formed as
#: K exp2(-2 rbar)
ULP_BOUNDS = {
    "shifted.theta": {"low": 4, "crossing": 6, "high": 1},
    "shifted.distortion": {"low": 3, "crossing": 6, "high": 1},
    "sampled.theta": {"low": 5, "crossing": 5, "high": 1},
    "sampled.distortion": {"low": 3, "crossing": 4, "high": 1},
    "g": {"low": 1, "crossing": 2, "high": 1},
    "ce": {"low": 3, "crossing": 5, "high": 2},
}

#: the largest error of ``waterfill.rate_at_theta`` over the table's levels,
#: in ulps of the rate, rounded up.  Above theta ~ 1e2, where ln theta and
#: 2 ln(pi phic) would cancel from about 700 down to about 2, the rate
#: forms their sum ln(theta (pi phic)^2) from 1/c, with no cancellation
RATE_ULP_BOUNDS = {"shifted.rate": 3, "sampled.rate": 3}

#: the largest error of ``SpectralDensity`` over the table's phi, and of
#: ``interp_kernel_eigensystem`` at sigma2 = fs = 1 over its (n, k), in ulps,
#: rounded up.  The shifted density is formed as
#: (2 + cos pi phi) / (12 sin^2(pi phi / 2)), which does not cancel toward
#: phi = 1 (as 1/(4 sin^2(pi phi / 2)) - 1/6 did, up to 5.86 ulp here)
DENSITY_ULP_BOUNDS = {"shifted.density": 5, "sampled.density": 5}
EIGEN_ULP_BOUNDS = {"interp.eigenvalues": 5}


def reference_rbar():
    """The table's bits per sample, ascending: 40 log-spaced below the
    crossing band, 110 across it, 40 log-spaced past it, and each border
    rate with its neighbours, 0.65 of it (where an earlier Newton start
    changed branch), 1e-4 and 1e-3."""
    from wienerdr.waterfill import MAX_RBAR, MIN_RBAR

    border = math.log2(1.0 + math.sqrt(3.0))
    edges = [1e-4, 1e-3, 0.65, 0.65 * border]
    for rate in (1.0, border):
        edges += [rate * (1.0 - 1e-9), rate, rate * (1.0 + 1e-9)]
    rbar = np.concatenate([np.geomspace(MIN_RBAR, 0.1, 41)[:-1],
                           np.linspace(0.1, 1.45, 110),
                           np.geomspace(1.45, MAX_RBAR, 41)[1:], edges])
    return sorted(set(float(x) for x in rbar))


def reference_theta():
    """The table's water levels for ``rate_at_theta``, ascending: 300
    log-uniform over [1e2, 1e308], where the rate's two logarithms would
    cancel most, and five at or below a density floor (1/4 for the walk,
    1/12 for the interpolator)."""
    draws = 10.0 ** np.random.default_rng(0).uniform(2, 308, 300)
    floors = {1e-300, 1e-10, 0.01, 0.08, 0.25}
    return sorted({float(x) for x in draws} | floors)


def reference_phi():
    """The table's phi for both densities, ascending: 60 log-spaced from
    1e-150 (where the density is about 1e299) to 1e-2, 200 evenly spaced
    and 200 uniform draws over (0, 1], and 140 within 1e-3 of 1, where the
    shifted density as 1/(4 sin^2) - 1/6 would cancel."""
    rng = np.random.default_rng(0)
    phi = np.concatenate([np.geomspace(1e-150, 1e-2, 60),
                          np.linspace(0.0, 1.0, 201)[1:],
                          rng.uniform(0, 1, 200),
                          1.0 - np.geomspace(2.0 ** -53, 1e-3, 40),
                          1.0 - rng.uniform(0, 1e-3, 100)])
    return sorted({float(x) for x in phi if 0.0 < x <= 1.0})


def reference_modes():
    """The table's (n, k) of the interpolator's eigenvalues: every k for
    n <= 64, and for n = 1000, 4096 and 5018 the 32 first and the 64 last
    k (phi near 1) and 160 uniform draws between."""
    rng = np.random.default_rng(0)
    modes = []
    for n in (1, 2, 3, 7, 64, 1000, 4096, 5018):
        k = np.arange(1, n + 1)
        if n > 64:
            k = np.unique(np.concatenate([k[:32], k[-64:],
                                          rng.integers(33, n - 63, 160)]))
        modes += [(n, int(j)) for j in k]
    return modes


def write():
    """Solve every rbar of ``reference_rbar``, and evaluate the rate at every
    theta of ``reference_theta``, in mpmath and write the table."""
    import mpmath as mp

    def clausen(z):
        # Cl2(z) = z - z ln z + sum_k zeta(2k) z^(2k+1) / (k (2k+1) (2 pi)^2k)
        # for 0 < z <= pi; mp.clsin loses up to 25 of 60 digits for z
        # between 1e-40 and 1e-5, which the series keeps
        total, k, ratio = z - z * mp.log(z), 1, (z / (2 * mp.pi)) ** 2
        power = z * ratio
        while True:
            term = mp.zeta(2 * k) * power / (k * (2 * k + 1))
            total += term
            if term < mp.eps * z:
                return total
            k, power = k + 1, power * ratio

    def two_ln2_rate(s, theta, phic):
        rate = 2 / mp.pi * clausen(mp.pi * phic) - phic * mp.log(theta)
        if s:
            rate += mp.quad(lambda phi: mp.log(
                1 - 4 * s * mp.sin(mp.pi * phi / 2) ** 2), [0, phic])
        return rate

    def density(s, rbar):
        target = 2 * mp.log(2) * rbar

        def point(log_c):
            # the residual is relative: below rbar ~ 1e-50 the rate is far
            # smaller than any absolute tolerance the root finder would take
            c = mp.exp(log_c)
            phic = 2 / mp.pi * mp.atan(1 / c)
            theta = (1 + c * c) / 4 - s
            return c, phic, theta, two_ln2_rate(s, theta, phic) / target - 1

        saturation = 1 if s == 0 else (2 + mp.sqrt(3)) / 6
        if rbar >= mp.log(saturation / (mp.mpf(1) / 4 - s), 2) / 2:
            theta = saturation * mp.power(2, -2 * rbar)
            return theta, theta, 2 * theta, 2 * theta / 3
        # the rate falls as c grows; c ~ 2 / (pi ln2 rbar) for small rbar
        low, high = mp.mpf(-80), mp.log(4 / (mp.pi * mp.log(2) * rbar)) + 1
        with mp.workdps(20):
            for _ in range(30):   # to a bracket the 20 digits can sign
                middle = (low + high) / 2
                if point(middle)[3] > 0:
                    low = middle
                else:
                    high = middle
        log_c = mp.findroot(lambda u: point(u)[3], (low, high))   # secant
        c, phic, theta, residual = point(log_c)
        assert abs(residual) < mp.mpf(10) ** (10 - mp.mp.dps), (rbar, residual)
        d = theta * phic + c / (2 * mp.pi) - s * (1 - phic)
        # phic - sin(pi phic) / pi ~ pi^2 phic^3 / 6 cancels 2 log10(1/phic)
        # digits, which the working precision gains back
        with mp.extradps(int(-2 * mp.log10(phic)) + 5):
            g = 2 * theta * (phic - mp.sin(mp.pi * phic) / mp.pi) + 1 - phic
        return theta, d, g, d - g / 6

    def rate(s, theta):
        square = 4 * (theta + s) - 1   # c^2, <= 0 at or below the floor
        phic = 2 / mp.pi * mp.atan(1 / mp.sqrt(square)) if square > 0 else 1
        return two_ln2_rate(s, theta, mp.mpf(phic)) / (2 * mp.log(2))

    def shifted(s, phi):
        return 1 / (4 * mp.sin(mp.pi * phi / 2) ** 2) - s

    table = {name: [] for name in (*ULP_BOUNDS, *RATE_ULP_BOUNDS,
                                   *DENSITY_ULP_BOUNDS, *EIGEN_ULP_BOUNDS)}
    table["rbar"], table["theta"] = reference_rbar(), reference_theta()
    table["phi"], table["modes"] = reference_phi(), reference_modes()
    with mp.workdps(60):
        for rbar in table["rbar"]:
            fields = (density(mp.mpf(1) / 6, mp.mpf(rbar))[:2]
                      + density(mp.mpf(0), mp.mpf(rbar)))
            for name, value in zip(ULP_BOUNDS, fields):
                table[name].append(mp.nstr(value, 40))
        for theta in table["theta"]:
            for name, s in zip(RATE_ULP_BOUNDS, (mp.mpf(1) / 6, mp.mpf(0))):
                table[name].append(mp.nstr(rate(s, mp.mpf(theta)), 40))
        for phi in table["phi"]:
            for name, s in zip(DENSITY_ULP_BOUNDS, (mp.mpf(1) / 6, 0)):
                table[name].append(mp.nstr(shifted(s, mp.mpf(phi)), 40))
        for n, k in table["modes"]:   # at the exact midpoint, not its float
            table["interp.eigenvalues"].append(mp.nstr(
                shifted(mp.mpf(1) / 6, mp.mpf(2 * k - 1) / (2 * n)), 40))
    with open(REFERENCE, "w") as f:
        json.dump(table, f, indent=1)
        f.write("\n")


def ulps(got, want) -> np.ndarray:
    """|got - want| / ulp(want) at each entry, ``want`` as decimal strings."""
    return np.array([float(abs(Fraction(float(x)) - Fraction(w))
                           / Fraction(math.ulp(float(w))))
                     for x, w in zip(got, want)])


def read_table() -> dict:
    with open(REFERENCE) as f:
        return json.load(f)


def ulp_errors(table) -> dict:
    """The ``ulps`` of each field of ``ULP_BOUNDS`` at each rbar of the
    table, with ``drf.sections`` solving them as one array, and of each
    field of ``RATE_ULP_BOUNDS`` at each theta, from
    ``waterfill.rate_at_theta``, of each density at each phi and of the
    interpolator's eigenvalues at each (n, k)."""
    from wienerdr import drf
    from wienerdr.spectral import (SAMPLED_WIENER, SHIFTED_SAMPLED_WIENER,
                                   ProcessParams, interp_kernel_eigensystem)
    from wienerdr.waterfill import rate_at_theta

    curves = drf.sections(np.array(table["rbar"]))
    errors = {"rbar": np.array(table["rbar"])}
    for name in ULP_BOUNDS:
        got = curves
        for part in name.split("."):
            got = getattr(got, part)
        errors[name] = ulps(got, table[name])
    for name, density in zip(RATE_ULP_BOUNDS, (SHIFTED_SAMPLED_WIENER,
                                               SAMPLED_WIENER)):
        errors[name] = ulps(rate_at_theta(density, np.array(table["theta"])),
                            table[name])
    for name, density in zip(DENSITY_ULP_BOUNDS, (SHIFTED_SAMPLED_WIENER,
                                                  SAMPLED_WIENER)):
        errors[name] = ulps(density(np.array(table["phi"])), table[name])
    eigenvalues = {n: interp_kernel_eigensystem(ProcessParams(1.0, 1.0),
                                                n).eigenvalues
                   for n in {n for n, _ in table["modes"]}}
    errors["interp.eigenvalues"] = ulps(
        [eigenvalues[n][k - 1] for n, k in table["modes"]],
        table["interp.eigenvalues"])
    return errors


def worst(errors, name, band) -> float:
    """The largest of ``errors[name]`` over the rbar of ``band``."""
    low, high = BANDS[band]
    rbar = errors["rbar"]
    return float(np.max(errors[name][(low < rbar) & (rbar <= high)]))


def report():
    """Print the worst ulp error of each field in each band (over the
    table's theta for a rate, its phi for a density and its (n, k) for the
    eigenvalues) beside its bound."""
    errors = ulp_errors(read_table())
    print(f"{'field':20} {'band':9} {'worst ulp':>10} {'bound':>6}")
    for name, bounds in ULP_BOUNDS.items():
        for band in BANDS:
            print(f"{name:20} {band:9} {worst(errors, name, band):10.2f}"
                  f" {bounds[band]:6}")
    for over, bounds in (("theta", RATE_ULP_BOUNDS),
                         ("phi", DENSITY_ULP_BOUNDS),
                         ("(n, k)", EIGEN_ULP_BOUNDS)):
        for name, bound in bounds.items():
            print(f"{name:20} {over:9} {np.max(errors[name]):10.2f}"
                  f" {bound:6}")


@pytest.fixture(scope="module")
def errors() -> dict:
    return ulp_errors(read_table())


@pytest.mark.parametrize("band", BANDS)
@pytest.mark.parametrize("name", ULP_BOUNDS)
def test_kernel_within_its_ulp_bound(errors, name, band):
    assert worst(errors, name, band) <= ULP_BOUNDS[name][band]


@pytest.mark.parametrize("name", RATE_ULP_BOUNDS)
def test_rate_within_its_ulp_bound(errors, name):
    assert np.max(errors[name]) <= RATE_ULP_BOUNDS[name]


@pytest.mark.parametrize("name", DENSITY_ULP_BOUNDS | EIGEN_ULP_BOUNDS)
def test_spectrum_within_its_ulp_bound(errors, name):
    assert np.max(errors[name]) <= (DENSITY_ULP_BOUNDS | EIGEN_ULP_BOUNDS)[name]


if __name__ == "__main__":
    modes = {"--write": write, "--report": report}
    if len(sys.argv) != 2 or sys.argv[1] not in modes:
        sys.exit("usage: python tests/test_kernel_reference.py"
                 " --write | --report")
    sys.path.insert(0, os.path.join(ROOT, "src"))
    modes[sys.argv[1]]()
