"""Reverse waterfilling over the sampled-Wiener eigenvalue densities, in closed form.

A water level theta splits a density S(phi) = 1/(4 sin^2(pi phi/2)) - s,
shift s = 0 (the sample walk) or s = 1/6 (the interpolator), into a flooded
part counted toward distortion and the part above water counted toward rate:

    distortion(theta) = integral_0^1 min{theta, S(phi)} dphi
    rate(theta)       = 1/2 integral_0^1 log2+[S(phi) / theta] dphi

Rates are in bits per sample throughout; distortions carry the density's
units (sigma2/fs).  The density supplies the crossing point phic, where
S(phic) = theta, and c = cot(pi phic / 2) (``SpectralDensity.crossing``;
phic = 1 once theta sits at or below the density floor 1/4 - s).  Then

    distortion = theta phic + c / (2 pi) - s (1 - phic)
    2 ln2 rate = (2/pi) Cl2(pi phic) - phic ln theta
                 + integral_0^phic ln(1 - 4 s sin^2(pi phi / 2)) dphi

with Cl2 the Clausen function.  The rate is evaluated without cancellation
as phic (2 - L) plus the integral over (0, phic] of
ln[(1 - 4 s sin^2(pi phi/2)) / sinc^2(phi/2)], where sinc x = sin(pi x)/(pi x);
that integrand is analytic on a disc around [0, 1] (its nearest complex
singularity lies 0.42 off phi = 1), so one fixed 24-node Gauss-Legendre
rule evaluates it to rounding.  Where c > 4, L = ln(theta (pi phic)^2) is
formed as ln(1 + (1 - 4 s) u^2) + 2 ln(arctan(u)/u), u = 1/c, since
pi phic = 2 arctan u, and not as ln theta + 2 ln(pi phic), whose two logs
(each up to about 700) cancel.

Because d rate / d ln theta = -phic / (2 ln2) exactly, one kernel
(``_solve``) inverts the rate map by one Newton step in ln theta, to
theta exp(step), within a few ulp.  Every curve needs both densities'
levels at one rbar, so the kernel's stack, built once, has a row for each,
and every solve solves both: ``drf.sections`` over arrays and
``solve_theta_for_rate``, which reads its density's row, at one rate.  It
walks the flattened rbar in blocks of a fixed number of entries, so its
temporaries are bounded by one block whatever the grid's length.  Every
entry starts from the same closed form, takes the same Newton step, at one
rate evaluation, and sums its own nodes, so a level depends on its density
and rbar alone, bit for bit the same in any array and alone.

theta reaches the floor at the border rate r_b = (1/2) log2(K / floor), with
K = 1 for s = 0 and (2 + sqrt 3)/6 for s = 1/6 (r_b = 1 and
log2(1 + sqrt 3) ~ 1.449984); at and past it the level is the saturated
K 2^(-2 rbar), which replaces Newton's.  Below it, c is analytic
in v = sqrt(r_b - rbar) near r_b and grows as 2 / (pi ln2 rbar) near
rbar = 0, so rbar c / v is smooth over 0 <= v <= sqrt(r_b), and one
polynomial of degree 12 in v per density starts Newton at c, and
theta = c^2/4 + floor, to within 5e-9 max{1, |ln theta|} in ln theta (at
and past r_b it starts at the floor).  After the step h, Newton's error
bound f'' h^2 / (2 phic), with f'' = theta / (pi c (theta + s)) the
curvature of 2 ln2 rate in ln theta, lies below 0.16 of
2^-52 max{1, |ln theta|} over [MIN_RBAR, MAX_RBAR]; an entry that misses
it raises FloatingPointError.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .spectral import (SAMPLED_WIENER, SHIFTED_SAMPLED_WIENER,
                       SpectralDensity, check_positive, read_real)

__all__ = [
    "MAX_RBAR",
    "MIN_RBAR",
    "WaterLevels",
    "distortion_at_theta",
    "rate_at_theta",
    "solve_theta_for_rate",
]

_LN2 = math.log(2.0)

#: the shifted density's saturated level is this times 2**(-2 rbar)
_SHIFTED_SATURATION = (2.0 + math.sqrt(3.0)) / 6.0

#: the supported bits per sample: below MIN_RBAR (about 6.85e-155) 4 theta of
#: the walk's level, about 1/(pi ln2 rbar)**2, passes the largest float, and
#: MAX_RBAR (about 510.66) is the last float whose shifted level is normal
MIN_RBAR = 2.0 / (math.pi * _LN2 * math.sqrt(sys.float_info.max))
MAX_RBAR = 0.5 * (math.log2(_SHIFTED_SATURATION)
                  - math.log2(sys.float_info.min))
while _SHIFTED_SATURATION * np.exp2(-2.0 * MAX_RBAR) < sys.float_info.min:
    MAX_RBAR = math.nextafter(MAX_RBAR, 0.0)

_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(24)
_NODES = 0.5 * (_NODES + 1.0)   # the rule moved onto [0, 1]
_WEIGHTS = 0.5 * _WEIGHTS

#: Newton's start, rbar c / (2 v) as a polynomial of degree 12 in
#: v = sqrt(r_b - rbar), by density shift, lowest power first: half the
#: least-squares Chebyshev fit of rbar c / v over 0 <= v <= sqrt(r_b) to the
#: 40-digit levels of ``tests/kernel_reference.json`` below r_b
_START = {
    0.0: (0.5887050111692591, 0.1470930218842314, -0.2928898146788513,
          0.07046599823735494, -0.06601952272407174, 0.07087134186473211,
          -0.20739417342026256, 0.4638659745244864, -0.7457079690287138,
          0.8102107957296459, -0.5735650469160164, 0.23855463179051595,
          -0.04496615415539668),
    1.0 / 6.0: (0.4928337134700689, 0.07109772251405505, -0.14358821241727787,
                0.04667388232153988, -0.04641337354391696,
                0.061954506929610305, -0.1576864124002863,
                0.30015713524754606, -0.40818318552221555, 0.3755045505994167,
                -0.22441140739092266, 0.07853152219727019,
                -0.012152767222013373),
}
_START_POWERS = np.arange(13)

#: the kernel's stack, a row per density: the interpolator's (d_opt) first,
#: then the walk's (d_bar, d_ce).  Its columns are each row's shift, floor,
#: saturated factor K and border rate r_b = (1/2) log2(K / floor), each of
#: shape (2, 1), and the start's coefficients, of shape (2, 1, 13)
_SHIFT, _FLOOR, _SATURATION, _BORDER = np.array(
    [(d.shift, d.floor, factor, 0.5 * math.log2(factor / d.floor))
     for d, factor in ((SHIFTED_SAMPLED_WIENER, _SHIFTED_SATURATION),
                       (SAMPLED_WIENER, 1.0))]).T[..., np.newaxis]
_COEFFICIENTS = np.array([[_START[shift]] for shift in _SHIFT[:, 0]])

#: Newton's error bound after its step, relative to max{1, |ln theta|}
_NEWTON_TOL = 2.0 ** -52

#: the rbar entries solved as one block of array operations
_BLOCK = 4096

#: (x - sin x) / x^3 = sum_k (-1)^k x^(2k) / (2k + 3)!, through x^15: for
#: x = pi phic < 1/2 it gives g's phic - sin(x)/pi without cancellation
_SINE_GAP = np.array([(-1) ** k / math.factorial(2 * k + 3)
                      for k in range(7)])
_SINE_POWERS = np.arange(7)


@dataclass(frozen=True)
class WaterLevels:
    """One density's row of the kernel's stack: its water levels at an
    array of rates (``drf.sections``) or at one (``solve_theta_for_rate``),
    each with the distortion it leaves."""

    theta: np.ndarray
    distortion: np.ndarray


def _two_ln2_rate(theta, c, phic, shift):
    """2 ln2 times the rate in bits per sample at levels theta of any shape
    with their crossings (c, phic), ``shift`` a column against them.  The 24
    nodes take a last axis, and each entry sums its own, in an order that
    does not depend on the shape."""
    half = np.multiply.outer(0.5 * np.pi * phic, _NODES)
    sin2 = np.square(np.sin(half))
    terms = np.log((1.0 - 4.0 * np.expand_dims(shift, -1) * sin2)
                   * half * half / sin2)
    smooth = np.add.reduce(terms * _WEIGHTS, axis=-1)
    u = 1.0 / np.maximum(c, 4.0)   # L = ln(theta (pi phic)^2)
    log_level = np.where(c > 4.0, np.log1p((1.0 - 4.0 * shift) * u * u)
                         + 2.0 * np.log(np.arctan(u) / u),
                         np.log(theta) + 2.0 * np.log(np.pi * phic))
    return phic * (2.0 - log_level + smooth)


def _start(rbar) -> tuple:
    """Newton's start at rbar, a row against the stack's columns: theta and
    its crossing (c, phic), with c/2 = v P(v) / rbar for P of ``_START``,
    theta = c^2/4 + floor and phic = (2/pi) arctan(1/c); at and past the
    border rate v = 0, so theta is the floor."""
    v = np.sqrt(np.maximum(_BORDER - rbar, 0.0))
    c = 2.0 * v * np.add.reduce(np.power(v[..., np.newaxis], _START_POWERS)
                                * _COEFFICIENTS, axis=-1) / rbar
    return 0.25 * c * c + _FLOOR, c, (2.0 / np.pi) * np.arctan2(1.0, c)


def _distortion(theta, c, phic, shift):
    return theta * phic + c / (2.0 * np.pi) - shift * (1.0 - phic)


def _solve_block(rbar, out):
    """Write the fields of the flat rbar into ``out``, of shape (5, n): theta
    and distortion of each row of the stack, then the walk's g = integral of
    min{theta, S}/S = 2 theta (phic - sin(pi phic)/pi) + 1 - phic, its
    difference taken from its series where pi phic < 1/2."""
    theta, c, phic = _start(rbar)
    step = (_two_ln2_rate(theta, c, phic, _SHIFT) - 2.0 * _LN2 * rbar) / phic
    # Newton's error after the step is about f'' step^2 / (2 phic), with
    # f'' = theta / (pi c (theta + shift)) the curvature of the rate in
    # ln theta, and f'' = 0 on the flat side of the floor (c = 0)
    scale = np.maximum(1.0, np.abs(np.log(theta)))
    bounded = ((step * step * (theta / (theta + _SHIFT))
                <= (2.0 * np.pi * _NEWTON_TOL) * scale * c * phic) | (c == 0))
    if not np.logical_and.reduce(bounded, axis=None):
        missed = rbar[np.argmin(np.logical_and.reduce(bounded, axis=0))]
        raise FloatingPointError(
            f"Newton's step for theta at {missed:.17g} bits per sample"
            f" left an error bound above 2^-52 max{{1, |ln theta|}}")
    # at and past the border rate the level is the saturated K 2^(-2 rbar)
    theta = np.where(rbar >= _BORDER, _SATURATION * np.exp2(-2.0 * rbar),
                     theta * np.exp(step))
    c, phic = SpectralDensity._cot_crossing(theta, _FLOOR)
    out[:2] = theta
    out[2:4] = _distortion(theta, c, phic, _SHIFT)
    theta, phic = theta[1], phic[1]   # g is the walk's alone
    x = np.pi * phic
    series = x * np.add.reduce(np.power(np.square(x)[..., np.newaxis],
                                        _SINE_POWERS) * _SINE_GAP, axis=-1)
    out[4] = np.where(x < 0.5, 2.0 * (theta * x * x) * series / np.pi,
                      2.0 * theta * (phic - np.sin(x) / np.pi)) + (1.0 - phic)


def _solve(rbar) -> tuple:
    """The ``WaterLevels`` of the interpolator's density and of the walk's
    at rbar, in that order, and the walk's g: the rows of one (5, n) field
    array, filled block by block of ``_BLOCK`` entries (against 40-digit
    values, theta is within 6 ulp below rbar 1.45 and 1 ulp past it).  The
    one range check: ValueError for rbar <= 0 or nan, FloatingPointError
    outside [MIN_RBAR, MAX_RBAR]."""
    rbar = read_real("rbar", rbar, array=True)
    if not np.logical_and.reduce((rbar >= MIN_RBAR) & (rbar <= MAX_RBAR),
                                 axis=None):
        if not np.logical_and.reduce(rbar > 0, axis=None):
            raise ValueError("rate must be > 0")
        if np.logical_or.reduce(rbar < MIN_RBAR, axis=None):
            raise FloatingPointError(
                f"{np.min(rbar):.6g} bits per sample is below the supported"
                f" minimum {MIN_RBAR:.6g}, where the water level overflows")
        raise FloatingPointError(
            f"{np.max(rbar):.6g} bits per sample is past the supported maximum"
            f" {MAX_RBAR:.6g}, where the water level underflows")
    flat = rbar.reshape(-1)
    fields = np.empty((5, flat.size))
    for first in range(0, flat.size, _BLOCK):
        block = slice(first, first + _BLOCK)
        _solve_block(flat[block], fields[:, block])
    theta_opt, theta_walk, d_tilde, d_walk, g = fields.reshape(
        (5,) + rbar.shape)
    return WaterLevels(theta_opt, d_tilde), WaterLevels(theta_walk, d_walk), g


def distortion_at_theta(density: SpectralDensity, theta):
    """integral of min{theta, density} over (0, 1]; lies in (0, theta], and
    is theta at or below the density floor."""
    theta = check_positive("theta", theta, array=True)
    c, phic = SpectralDensity._cot_crossing(theta, density.floor)
    return _distortion(theta, c, phic, density.shift)


def rate_at_theta(density: SpectralDensity, theta):
    """(1/2) integral of log2+[density / theta]; bits per sample.

    Finite for every theta > 0 (the log divergence at phi -> 0 is
    integrable) and strictly positive, since both densities are unbounded
    near 0.
    """
    theta = check_positive("theta", theta, array=True)
    return _two_ln2_rate(theta, *SpectralDensity._cot_crossing(
        theta, density.floor), density.shift) / (2.0 * _LN2)


def solve_theta_for_rate(density: SpectralDensity,
                         rate_bits_per_sample: float) -> WaterLevels:
    """The ``WaterLevels`` of the density at one rate, read as one number:
    its row of the kernel's stack, bit for bit its entry of
    ``drf.sections``."""
    shifted, sampled, _ = _solve(read_real("rate_bits_per_sample",
                                           rate_bits_per_sample))
    return shifted if density.shift else sampled
