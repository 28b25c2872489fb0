"""Reverse waterfilling over the sampled-Wiener eigenvalue densities, in closed form.

A water level theta splits a density S(phi) = 1/(4 sin^2(pi phi/2)) - s,
shift s = 0 (the sample walk) or s = 1/6 (the interpolator), into a flooded
part counted toward distortion and the part above water counted toward rate:

    distortion(theta) = integral_0^1 min{theta, S(phi)} dphi
    rate(theta)       = 1/2 integral_0^1 log2+[S(phi) / theta] dphi

Rates are in bits per sample throughout; distortions carry the density's
units (sigma2/fs).  The density supplies the crossing point phic, where
S(phic) = theta, and c = cot(pi phic / 2) (``SpectralDensity.cot_crossing``;
phic = 1 once theta sits at or below the density floor 1/4 - s).  Then

    distortion = theta phic + c / (2 pi) - s (1 - phic)
    2 ln2 rate = (2/pi) Cl2(pi phic) - phic ln theta
                 + integral_0^phic ln(1 - 4 s sin^2(pi phi / 2)) dphi

with Cl2 the Clausen function.  The rate is evaluated without cancellation
as phic (2 - 2 ln(pi phic) - ln theta) plus the integral over (0, phic] of
ln[(1 - 4 s sin^2(pi phi/2)) / sinc^2(phi/2)], where sinc x = sin(pi x)/(pi x);
that integrand is analytic on a disc around [0, 1] (its nearest complex
singularity lies 0.42 off phi = 1), so one fixed 24-node Gauss-Legendre
rule evaluates it to rounding.

Because d rate / d ln theta = -phic / (2 ln2) exactly, ``water_levels``
inverts the rate map by Newton's method in ln theta, which bounds theta's
relative error by about |ln theta| 2^-53.  One kernel does every solve: it
takes a stack of levels with one row per density, so ``drf.sections``
solves both densities of a sweep in one pass and ``water_levels`` is that
pass over one density.  Each entry stops stepping on its own step and sums
its own nodes, so a level depends on its density and rbar alone, bit for
bit the same in any array and as a scalar.  The rate is convex in ln theta,
so a start above the root overshoots once to below it and then climbs
monotonically.  Each entry starts from one of three forms, which keeps
every solve over [MIN_RBAR, MAX_RBAR] within four rate evaluations:

* at or past the border rate r_b = (1/2) log2(K / floor), where theta
  reaches the floor (r_b = 1 for s = 0, log2(1 + sqrt 3) ~ 1.449984 for
  s = 1/6), the exact saturated level ln theta = ln K - 2 rbar ln2, with
  K = 1 for s = 0 and (2 + sqrt 3)/6 for s = 1/6;
* between 0.65 r_b and r_b, the border expansion
  2 ln2 (r_b - rbar) = ln(1 + delta/floor) - (8 / (3 pi floor)) delta^(3/2)
  in delta = theta - floor, taken through one fixed-point pass (it adds
  nothing once rbar >= r_b, where it reduces to the saturated level);
* below 0.65 r_b, the small-phic series pi ln2 rbar = x (1 - x^2/36) for
  s = 0 and x (1 + x^2/36) for s = 1/6 in x = pi phic, inverted for x by
  one fixed-point pass from x = pi ln2 rbar; then theta = S(x / pi).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .spectral import SpectralDensity, check_positive, read_real

__all__ = [
    "MAX_RBAR",
    "MIN_RBAR",
    "WaterfillPoint",
    "WaterLevels",
    "distortion_at_theta",
    "rate_at_theta",
    "solve_theta_for_rate",
    "water_levels",
]

_LN2 = math.log(2.0)

#: the shifted density's saturated level is this times 2**(-2 rbar)
_SHIFTED_SATURATION = (2.0 + math.sqrt(3.0)) / 6.0

#: the supported bits per sample: below MIN_RBAR (about 6.85e-155) 4 theta of
#: the walk's level, about 1/(pi ln2 rbar)**2, passes the largest float, and
#: past MAX_RBAR (about 510.66) the shifted one the smallest normal float
MIN_RBAR = 2.0 / (math.pi * _LN2 * math.sqrt(sys.float_info.max))
MAX_RBAR = 0.5 * (math.log2(_SHIFTED_SATURATION)
                  - math.log2(sys.float_info.min))

_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(24)
_NODES = 0.5 * (_NODES + 1.0)   # the rule moved onto [0, 1]
_WEIGHTS = 0.5 * _WEIGHTS

#: Newton starts from the small-phic series below this share of the border
#: rate and from the border expansion above it
_SERIES_SHARE = 0.65

_NEWTON_STEPS = 100
#: Newton stops once a step moves ln theta by less than this (relative to
#: max{1, |ln theta|}); convergence is quadratic, so the last step applied
#: leaves an error far below it
_NEWTON_TOL = 1e-12


@dataclass(frozen=True)
class WaterfillPoint:
    """A consistent (theta, rate, distortion) triple on one parametric curve."""

    theta: float
    rate: float
    distortion: float


@dataclass(frozen=True)
class WaterLevels:
    """Water levels solved at an array of rates on one density (or at a float).

    ``crossing`` is phic.  ``g`` and ``ce`` exist for the unshifted density
    only (None otherwise): g = integral of min{theta, S}/S
    = 2 theta (phic - sin(pi phic)/pi) + 1 - phic, and the
    compress-and-estimate term ce = integral of min{theta, S} (S - 1/6)/S
    = distortion - g/6.
    """

    theta: np.ndarray
    crossing: np.ndarray
    distortion: np.ndarray
    g: Optional[np.ndarray] = None
    ce: Optional[np.ndarray] = None


def _state(log_theta, floor):
    """(theta, c, phic) at the level ln theta over the density floor ``floor``
    (a float, or a column of one per row); c = cot(pi phic / 2)."""
    theta = np.exp(log_theta)
    return (theta, *SpectralDensity._cot_crossing(theta, floor))


def _two_ln2_rate(log_theta, phic, shift):
    """2 ln2 times the rate in bits per sample at levels of any shape, with
    ``shift`` broadcast against them.  Each entry sums its own 24 nodes, in
    an order that does not depend on the shape."""
    half = np.multiply.outer(0.5 * np.pi * phic, _NODES)
    sin2 = np.square(np.sin(half))
    terms = np.log((1.0 - 4.0 * np.expand_dims(shift, -1) * sin2)
                   * half * half / sin2)
    smooth = np.add.reduce(terms * _WEIGHTS, axis=-1)
    return phic * (2.0 - 2.0 * np.log(np.pi * phic) - log_theta + smooth)


def _start(density: SpectralDensity, target):
    """Newton's first ln theta where 2 ln2 rbar = target: the saturated level
    plus the border correction, or the inverted small-phic series below
    ``_SERIES_SHARE`` of the border rate (see the module docstring)."""
    shift, floor = density.shift, density.floor
    log_saturated = math.log(_SHIFTED_SATURATION) if shift else 0.0
    border = log_saturated - math.log(floor)   # 2 ln2 r_b
    delta = floor * np.expm1(np.maximum(border - target, 0.0))
    near = log_saturated - target + 8.0 / (3.0 * np.pi * floor) * delta ** 1.5
    y = 0.5 * np.pi * np.minimum(target, _SERIES_SHARE * border)   # pi ln2 rbar
    x = y / (1.0 + (1.0 if shift else -1.0) * y * y / 36.0)
    return np.where(target < _SERIES_SHARE * border,
                    np.log(density(x / np.pi)), near)


def _distortion(theta, c, phic, shift):
    return theta * phic + c / (2.0 * np.pi) - shift * (1.0 - phic)


def _log_level(theta):
    return np.log(check_positive("theta", theta, array=True))


def _solve(densities, rbar) -> tuple:
    """The ``WaterLevels`` of each density at rbar, in one Newton pass.

    The levels are solved as one stack with a row per density, so each
    array operation serves all of them.  Each entry stops stepping once its
    own step is below the tolerance, so every entry is bit for bit the solve
    of its density at its rbar alone.
    """
    rbar = read_real("rbar", rbar, array=True)
    if not np.logical_and.reduce(rbar > 0, axis=None):
        raise ValueError("rate must be > 0")
    if np.logical_or.reduce(rbar < MIN_RBAR, axis=None):
        raise FloatingPointError(
            f"{np.min(rbar):.6g} bits per sample is below the supported minimum"
            f" {MIN_RBAR:.6g}, where the water level overflows")
    if np.logical_or.reduce(rbar > MAX_RBAR, axis=None):
        raise FloatingPointError(
            f"{np.max(rbar):.6g} bits per sample is past the supported maximum"
            f" {MAX_RBAR:.6g}, where the water level underflows")
    target = 2.0 * _LN2 * rbar
    column = (-1,) + (1,) * rbar.ndim   # one row per density
    shift = np.reshape([d.shift for d in densities], column)
    floor = np.reshape([d.floor for d in densities], column)
    log_theta = np.array([_start(d, target) for d in densities])
    settled = np.zeros(log_theta.shape, dtype=bool)
    for _ in range(_NEWTON_STEPS):
        _, _, phic = _state(log_theta, floor)
        step = (_two_ln2_rate(log_theta, phic, shift) - target) / phic
        step[settled] = 0.0   # a settled entry keeps its level
        log_theta = log_theta + step
        scale = np.maximum(1.0, np.abs(log_theta))
        settled |= np.abs(step) <= _NEWTON_TOL * scale
        if np.logical_and.reduce(settled, axis=None):
            break
    else:
        raise FloatingPointError(
            f"Newton iteration for theta did not settle within {_NEWTON_STEPS}"
            f" steps (largest last step {np.max(np.abs(step)):.3g})")
    theta, c, phic = _state(log_theta, floor)
    distortion = _distortion(theta, c, phic, shift)
    g = 2.0 * theta * (phic - np.sin(np.pi * phic) / np.pi) + (1.0 - phic)
    rows = zip(theta, phic, distortion, g, distortion - g / 6.0)
    # g and ce are the walk's: a shifted density's row keeps three fields
    return tuple(WaterLevels(*row[:3] if density.shift else row)
                 for density, row in zip(densities, rows))


def water_levels(density: SpectralDensity, rbar) -> WaterLevels:
    """Solve rate(theta) = rbar for every entry of rbar (bits per sample).

    Newton's method in ln theta with the exact derivative -phic / (2 ln2),
    from the start of the module docstring: at most four rate evaluations
    and theta within about |ln theta| 2^-53 (against 40-digit values, at most
    7 ulp over 0.1 <= rbar <= 1.45).  The one range check: ValueError
    for rbar <= 0 or nan, FloatingPointError outside [MIN_RBAR, MAX_RBAR].
    Each entry is bit for bit its rbar solved alone, and that density's
    level in ``drf.sections``.
    """
    return _solve((density,), rbar)[0]


def distortion_at_theta(density: SpectralDensity, theta):
    """integral of min{theta, density} over (0, 1]; lies in (0, theta]."""
    theta, c, phic = _state(_log_level(theta), density.floor)
    return _distortion(theta, c, phic, density.shift)


def rate_at_theta(density: SpectralDensity, theta):
    """(1/2) integral of log2+[density / theta]; bits per sample.

    Finite for every theta > 0 (the log divergence at phi -> 0 is
    integrable) and strictly positive, since both densities are unbounded
    near 0.
    """
    log_theta = _log_level(theta)
    _, _, phic = _state(log_theta, density.floor)
    return _two_ln2_rate(log_theta, phic, density.shift) / (2.0 * _LN2)


def solve_theta_for_rate(density: SpectralDensity,
                         rate_bits_per_sample: float) -> WaterfillPoint:
    """Invert the rate map at one rate: the ``water_levels`` solve, as floats."""
    levels = water_levels(density, read_real("rate_bits_per_sample",
                                             rate_bits_per_sample))
    theta = float(levels.theta)
    return WaterfillPoint(theta=theta,
                          rate=float(rate_at_theta(density, theta)),
                          distortion=float(levels.distortion))
