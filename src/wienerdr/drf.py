"""Distortion functions of the sampled Wiener process.

All curves live on one diagram.  With bitrate R (bits per unit time),
sampling rate fs and bits per sample rbar = R/fs:

* ``d_w``      distortion-rate function of the continuous process,
               2 sigma2 / (pi^2 ln2 R);
* ``d_bar``    distortion-rate function of the sample walk, waterfilled over
               the unshifted density (per-sample MSE, absolute units);
* ``mmse``     sampling-only error floor sigma2 / (6 fs);
* ``d_opt``    the optimal sampled encoding: mmse plus the waterfilled
               distortion of the shifted density;
* ``d_ce``     compress-the-samples-then-interpolate encoding;
* ``d_upper``  the cruder bound mmse + d_bar.

The dimensionless sections (``d_tilde``, ``g_fun`` and the excess-distortion
ratios) depend on rbar alone; the absolute functions scale linearly in
sigma2 and reduce to the rbar forms, which is what makes a single
equilibrium point and a single penalty curve meaningful.

Every curve comes from the closed-form waterfilling kernel
(``waterfill._solve``), called once over a whole array of rbar for both
densities: ``sections`` gives the dimensionless curves and ``sweep`` the
absolute ones; the scalar functions are the same computation at one point.

Two distinct water levels coexist: the shifted density's (d_opt) and the
unshifted density's (d_bar, d_ce).  ``DistortionBundle`` carries both so
they cannot be mixed up; constructing one is the one check of the values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .spectral import (SHIFTED_SAMPLED_WIENER, ProcessParams, _ldexp,
                       check_normal, check_positive, read_real, unit)
from .waterfill import (WaterLevels, _solve, distortion_at_theta,
                        rate_at_theta)

__all__ = [
    "RateSpec",
    "DistortionBundle",
    "Sections",
    "d_w",
    "d_bar",
    "d_opt",
    "equilibrium_rbar",
    "g_fun",
    "d_ce",
    "d_upper",
    "ratio_smp",
    "ratio_qnt",
    "ce_penalty",
    "bundle",
    "sections",
    "sweep",
]

_ORDERING_SLACK = 1e-9

#: d_w * R / sigma2, the leading R**-1 coefficient of d_bar and d_opt
_DW_COEF = 2.0 / (math.pi ** 2 * math.log(2.0))


@dataclass(frozen=True)
class RateSpec:
    """Bitrate in bits per unit time (> 0)."""

    rate: float

    def __post_init__(self):   # kept as the float checked
        object.__setattr__(self, "rate", check_positive("rate", self.rate))


@dataclass(frozen=True)
class DistortionBundle:
    """All distortion curves at one (params, rate) point, plus both water levels.

    Distortions are per unit time (units of sigma2); thetas are in units of
    sigma2/fs.  Fields are floats, or arrays of one shape for a ``sweep``,
    where a constant column is a view of its one value, never to be written.
    Construction refuses a field outside the normal floats, where it has
    lost its digits (FloatingPointError naming it), and, at any point, a
    violation of max{mmse, d_w} <= d_opt <= d_ce <= d_upper and d_bar <= d_w
    by more than 1e-9 |d_upper|, which indicates a defect in the curves.
    """

    d_opt: float
    d_ce: float
    d_upper: float
    d_w: float
    d_bar: float
    mmse: float
    theta_opt: float
    theta_ce: float

    def __post_init__(self):
        check_normal(**vars(self))
        # differences of two normal floats cannot overflow
        slack = _ORDERING_SLACK * self.d_upper
        ordered = ((np.maximum(self.mmse, self.d_w) - self.d_opt <= slack)
                   & (self.d_opt - self.d_ce <= slack)
                   & (self.d_ce - self.d_upper <= slack)
                   & (self.d_bar - self.d_w <= slack))
        if not np.logical_and.reduce(ordered, axis=None):
            raise ValueError(
                "distortion ordering violated; the curves are suspect")


@dataclass(frozen=True)
class Sections:
    """The dimensionless curves at bits per sample rbar (a float or an array).

    ``shifted`` holds the water levels of the interpolator's density (d_opt),
    ``sampled`` those of the walk's density (d_bar, d_ce), and ``g`` the
    walk's integral of min{theta, S}/S; the compress-and-estimate term
    ``ce``, integral of min{theta, S} (S - 1/6)/S, is distortion - g/6, and
    ``d_tilde`` the shifted distortion: d_opt = (sigma2/fs)(1/6 + d_tilde).
    """

    rbar: np.ndarray
    shifted: WaterLevels
    sampled: WaterLevels
    g: np.ndarray

    @property
    def ce(self):
        return self.sampled.distortion - self.g / 6.0

    @property
    def d_tilde(self):
        return self.shifted.distortion

    @property
    def ratio_smp(self):
        return self.rbar * (1.0 / 6.0 + self.d_tilde) / _DW_COEF

    @property
    def ratio_qnt(self):
        return 1.0 + 6.0 * self.d_tilde

    @property
    def ce_penalty(self):
        return (1.0 / 6.0 + self.ce) / (1.0 / 6.0 + self.d_tilde)


def sections(rbar) -> Sections:
    """Both water levels over rbar (float or array, in the waterfill range),
    the kernel's two rows solved in one Newton pass: each entry is bit for
    bit its rbar solved alone, in any grid, and its density's
    ``solve_theta_for_rate``."""
    rbar = read_real("rbar", rbar, array=True)
    return Sections(rbar, *_solve(rbar))


def sweep(sigma2, fs, rate) -> DistortionBundle:
    """``bundle`` over arrays of sigma2, fs and rate (bits per unit time).

    Each must be positive and finite (``ParameterError`` names the first
    that is not); they broadcast where they meet, so a sigma2 sweep solves
    one rbar.  The bundle's fields are arrays of the broadcast shape (floats
    for scalars): the sections times sigma2/fs (d_w: sigma2/R), each unit
    applied last through ``spectral.unit``, so sigma2 = fs gives the
    sections and a field leaves the floats only where its value does.  An
    R/fs out of range or a field past the normal floats (refused by the
    bundle) raises FloatingPointError.
    """
    sigma2, fs, rate = (check_positive(name, value, array=True) for name, value
                        in (("sigma2", sigma2), ("fs", fs), ("rate", rate)))
    with np.errstate(over="ignore", under="ignore"):   # the bundle refuses
        curves = sections(np.maximum(rate / fs, 5e-324))   # 0: out of range
        scale, exp = unit(sigma2, fs)
        mmse = scale / 6.0
        walk = scale * curves.sampled.distortion
        per_rate, exp_rate = unit(sigma2, rate)
        fields = (np.ldexp(mmse + scale * curves.d_tilde, exp),
                  np.ldexp(mmse + scale * curves.ce, exp),
                  np.ldexp(mmse + walk, exp),
                  np.ldexp(_DW_COEF * per_rate, exp_rate),
                  np.ldexp(walk, exp), np.ldexp(mmse, exp),
                  curves.shifted.theta, curves.sampled.theta)
        if np.ndim(fields[0]):   # a sweep: a constant column becomes a view
            fields = np.broadcast_arrays(*fields)
        return DistortionBundle(*fields)


def bundle(params: ProcessParams, rate: RateSpec) -> DistortionBundle:
    """All six distortion values plus both water levels, computed once."""
    return sweep(params.sigma2, params.fs, rate.rate)


def d_w(rate: RateSpec, sigma2: float) -> float:
    """DRF of the continuous Wiener process: 2 sigma2 / (pi^2 ln2 R)."""
    per_rate, exp = unit(check_positive("sigma2", sigma2), rate.rate)
    return float(_ldexp("d_w", _DW_COEF * per_rate, exp))


def d_bar(params: ProcessParams, rate: RateSpec) -> float:
    """DRF of the sampled walk at rbar bits per sample, in absolute units.

    Equals (sigma2/fs) * 2**(-2 rbar) exactly for rbar >= 1, where the water
    level drops below the density floor 1/4.
    """
    return bundle(params, rate).d_bar


def d_opt(params: ProcessParams, rate: RateSpec) -> float:
    """Optimal distortion from rate-R encoded samples: mmse + shifted waterfill."""
    return bundle(params, rate).d_opt


def equilibrium_rbar() -> float:
    """Bits per sample at which sampling and compression errors are equal.

    Solves d_tilde = 1/6 for the shifted water level by Newton's method
    (d distortion / d theta = phic), then returns the rate at that level;
    lands near 0.98.  The distortion is concave in theta and the start 1/6
    lies below the root, so the iterates climb to it monotonically.
    """
    theta = 1.0 / 6.0
    for _ in range(50):
        gap = 1.0 / 6.0 - distortion_at_theta(SHIFTED_SAMPLED_WIENER, theta)
        step = gap / SHIFTED_SAMPLED_WIENER.crossing(theta)
        theta += step
        if abs(step) <= 1e-15 * theta:
            break
    return float(rate_at_theta(SHIFTED_SAMPLED_WIENER, theta))


def g_fun(rbar):
    """Auxiliary integral of min{density, theta} / density on the unshifted curve.

    theta solves the unshifted rate equation at rbar; for rbar >= 1 the
    integral collapses to 2 * theta = 2**(1 - 2 rbar).
    """
    return sections(rbar).g


def d_ce(params: ProcessParams, rate: RateSpec) -> float:
    """Distortion of compress-the-samples-then-interpolate, in absolute units.

    mmse plus the weighted integral of min{theta, S} (S - 1/6)/S with theta
    solved on the unshifted density; reduces to
    mmse + (2/3)(sigma2/fs) 2**(-2 rbar) for rbar >= 1.
    """
    return bundle(params, rate).d_ce


def d_upper(params: ProcessParams, rate: RateSpec) -> float:
    """Upper bound mmse + d_bar; equals (sigma2/fs)(1/6 + 2**(-2 rbar)) for rbar >= 1."""
    return bundle(params, rate).d_upper


def ratio_smp(rbar):
    """Excess distortion of sampling: d_opt / d_w at matching bits per sample."""
    return sections(rbar).ratio_smp


def ratio_qnt(rbar):
    """Excess distortion of lossy compression: d_opt / mmse = 1 + 6 d_tilde."""
    return sections(rbar).ratio_qnt


def ce_penalty(rbar):
    """Penalty of compress-first encoding: d_ce / d_opt (fs-free)."""
    return sections(rbar).ce_penalty

