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
inverts the rate map by Newton's method in ln theta.  The rate is convex in
ln theta, so a start above the root overshoots once to below it and then
climbs monotonically.  Each entry starts from one of three forms, which
keeps every solve over [1e-4, MAX_RBAR] within four rate evaluations:

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

from .spectral import SpectralDensity, check_positive

__all__ = [
    "MAX_RBAR",
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

#: bits per sample at which the smaller water level, the shifted one,
#: reaches the smallest normal float (about 510.66); past it the levels underflow
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


def _state(log_theta, density: SpectralDensity):
    """(theta, c, phic) at the level ln theta; c = cot(pi phic / 2)."""
    theta = np.exp(log_theta)
    return (theta, *density.cot_crossing(theta))


def _two_ln2_rate(log_theta, phic, shift: float):
    """2 ln2 times the rate in bits per sample."""
    half = np.multiply.outer(0.5 * np.pi * phic, _NODES)
    sin2 = np.sin(half) ** 2
    smooth = np.log((1.0 - 4.0 * shift * sin2) * half * half / sin2) @ _WEIGHTS
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


def _distortion(theta, c, phic, shift: float):
    return theta * phic + c / (2.0 * np.pi) - shift * (1.0 - phic)


def _log_level(theta):
    return np.log(check_positive("theta", theta))


def water_levels(density: SpectralDensity, rbar) -> WaterLevels:
    """Solve rate(theta) = rbar for every entry of rbar (bits per sample).

    Newton's method in ln theta with the exact derivative -phic / (2 ln2),
    from the two-sided start of the module docstring; at most four rate
    evaluations over [1e-4, MAX_RBAR].  Raises ValueError for rbar <= 0 and
    FloatingPointError past MAX_RBAR, where the water level would underflow.
    """
    shift = density.shift
    rbar = np.asarray(rbar, dtype=float)
    if not np.all(rbar > 0):
        raise ValueError("rate must be > 0")
    if np.any(rbar > MAX_RBAR):
        raise FloatingPointError(
            f"{np.max(rbar):.6g} bits per sample is past the supported maximum"
            f" {MAX_RBAR:.6g}, where the water level underflows")
    target = 2.0 * _LN2 * rbar
    log_theta = _start(density, target)
    for _ in range(_NEWTON_STEPS):
        _, _, phic = _state(log_theta, density)
        step = (_two_ln2_rate(log_theta, phic, shift) - target) / phic
        log_theta = log_theta + step
        scale = np.maximum(1.0, np.abs(log_theta))
        if np.all(np.abs(step) <= _NEWTON_TOL * scale):
            break
    else:
        raise FloatingPointError(
            f"Newton iteration for theta did not settle within {_NEWTON_STEPS}"
            f" steps (largest last step {np.max(np.abs(step)):.3g})")
    theta, c, phic = _state(log_theta, density)
    distortion = _distortion(theta, c, phic, shift)
    if shift:
        return WaterLevels(theta, phic, distortion)
    g = 2.0 * theta * (phic - np.sin(np.pi * phic) / np.pi) + (1.0 - phic)
    return WaterLevels(theta, phic, distortion, g, distortion - g / 6.0)


def distortion_at_theta(density: SpectralDensity, theta):
    """integral of min{theta, density} over (0, 1]; lies in (0, theta]."""
    theta, c, phic = _state(_log_level(theta), density)
    return _distortion(theta, c, phic, density.shift)


def rate_at_theta(density: SpectralDensity, theta):
    """(1/2) integral of log2+[density / theta]; bits per sample.

    Finite for every theta > 0 (the log divergence at phi -> 0 is
    integrable) and strictly positive, since both densities are unbounded
    near 0.
    """
    log_theta = _log_level(theta)
    _, _, phic = _state(log_theta, density)
    return _two_ln2_rate(log_theta, phic, density.shift) / (2.0 * _LN2)


def solve_theta_for_rate(density: SpectralDensity,
                         rate_bits_per_sample: float) -> WaterfillPoint:
    """Invert the rate map at one rate: the ``water_levels`` solve, as floats."""
    levels = water_levels(density, float(rate_bits_per_sample))
    theta = float(levels.theta)
    return WaterfillPoint(theta=theta,
                          rate=float(rate_at_theta(density, theta)),
                          distortion=float(levels.distortion))
