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
theta = D = K 2^(-2 rbar) with K = 1 and (2 + sqrt 3)/6.  The table is
written with mpmath at 60 digits, c solved by bisection and then a
bracketing root finder; the test only reads it, so it needs no mpmath:

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
#: field in each band of ``BANDS``, as measured when the table was made and
#: rounded up.  Newton's method in ln theta leaves theta a relative error of
#: about |ln theta| 2^-53, so the outer bands, where |ln theta| reaches 700,
#: allow hundreds of ulps; None marks a field that is lost there
ULP_BOUNDS = {
    "shifted.theta": {"low": 429, "crossing": 7, "high": 588},
    "shifted.distortion": {"low": 247, "crossing": 9, "high": 588},
    "sampled.theta": {"low": 429, "crossing": 5, "high": 497},
    "sampled.distortion": {"low": 247, "crossing": 4, "high": 497},
    "sampled.g": {"low": None, "crossing": 3, "high": 497},
    "sampled.ce": {"low": 247, "crossing": 6, "high": 500},
}


def reference_rbar():
    """The table's bits per sample, ascending: 40 log-spaced below the
    crossing band, 110 across it, 40 log-spaced past it, and each branch
    edge of Newton's start and each border rate with its neighbours."""
    from wienerdr.waterfill import _SERIES_SHARE, MAX_RBAR, MIN_RBAR

    border = math.log2(1.0 + math.sqrt(3.0))
    edges = [1e-4, 1e-3, _SERIES_SHARE, _SERIES_SHARE * border]
    for rate in (1.0, border):
        edges += [rate * (1.0 - 1e-9), rate, rate * (1.0 + 1e-9)]
    rbar = np.concatenate([np.geomspace(MIN_RBAR, 0.1, 41)[:-1],
                           np.linspace(0.1, 1.45, 110),
                           np.geomspace(1.45, MAX_RBAR, 41)[1:], edges])
    return sorted(set(float(x) for x in rbar))


def write():
    """Solve every rbar of ``reference_rbar`` in mpmath and write the table."""
    import mpmath as mp

    def density(s, rbar):
        target = 2 * mp.log(2) * rbar

        def point(log_c):
            c = mp.exp(log_c)
            phic = 2 / mp.pi * mp.atan(1 / c)
            theta = (1 + c * c) / 4 - s
            rate = 2 / mp.pi * mp.clsin(2, mp.pi * phic) - phic * mp.log(theta)
            if s:
                rate += mp.quad(lambda phi: mp.log(
                    1 - 4 * s * mp.sin(mp.pi * phi / 2) ** 2), [0, phic])
            return c, phic, theta, rate - target

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
        log_c = mp.findroot(lambda u: point(u)[3], (low, high),
                            solver="anderson")
        c, phic, theta, _ = point(log_c)
        d = theta * phic + c / (2 * mp.pi) - s * (1 - phic)
        # phic - sin(pi phic) / pi ~ pi^2 phic^3 / 6 cancels 2 log10(1/phic)
        # digits, which the working precision gains back
        with mp.extradps(int(-2 * mp.log10(phic)) + 5):
            g = 2 * theta * (phic - mp.sin(mp.pi * phic) / mp.pi) + 1 - phic
        return theta, d, g, d - g / 6

    table = {name: [] for name in ULP_BOUNDS}
    table["rbar"] = reference_rbar()
    with mp.workdps(60):
        for rbar in table["rbar"]:
            fields = (density(mp.mpf(1) / 6, mp.mpf(rbar))[:2]
                      + density(mp.mpf(0), mp.mpf(rbar)))
            for name, value in zip(ULP_BOUNDS, fields):
                table[name].append(mp.nstr(value, 40))
    with open(REFERENCE, "w") as f:
        json.dump(table, f, indent=1)
        f.write("\n")


@pytest.fixture(scope="module")
def ulp_errors() -> dict:
    """|computed - reference| / ulp(reference) of each field at each rbar of
    the table, with ``drf.sections`` solving them as one array."""
    from wienerdr import drf

    with open(REFERENCE) as f:
        table = json.load(f)
    curves = drf.sections(np.array(table["rbar"]))
    errors = {"rbar": np.array(table["rbar"])}
    for name in ULP_BOUNDS:
        got = curves
        for part in name.split("."):
            got = getattr(got, part)
        errors[name] = np.array([
            float(abs(Fraction(float(x)) - Fraction(want))
                  / Fraction(math.ulp(float(want))))
            for x, want in zip(got, table[name])])
    return errors


@pytest.mark.parametrize("band", BANDS)
@pytest.mark.parametrize("name", ULP_BOUNDS)
def test_kernel_within_its_ulp_bound(ulp_errors, name, band):
    low, high = BANDS[band]
    rbar = ulp_errors["rbar"]
    worst = np.max(ulp_errors[name][(low < rbar) & (rbar <= high)])
    if ULP_BOUNDS[name][band] is None:
        pytest.xfail("g = 2 theta (phic - sin(pi phic)/pi) + 1 - phic cancels"
                     " for small phic: g_fun(1.34e-116) is 3.3e99, not 1")
    assert worst <= ULP_BOUNDS[name][band], worst


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_kernel_reference.py --write")
    sys.path.insert(0, os.path.join(ROOT, "src"))
    write()
