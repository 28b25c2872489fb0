"""Spectral densities and Karhunen-Loeve eigensystems of the sampled Wiener model.

A Wiener process of intensity sigma2, sampled at rate fs, yields a Gaussian
random walk whose covariance matrix is (sigma2/fs) * min{i, j}.  Its KL
eigenvalue staircase converges to the density

    S(phi) = 1 / (4 sin^2(pi phi / 2)),   phi in (0, 1],

while the piecewise-linear interpolator of the samples has the shifted
density S(phi) - 1/6.  A density is its shift (``SpectralDensity``), which
gives its form, its floor and the one formula for the water-level crossing;
the two are ``SAMPLED_WIENER`` and ``SHIFTED_SAMPLED_WIENER``.  The module
also builds, in O(n), the ``EigenSystem`` of each of the two covariance
kernels (the discrete walk and the interpolator kernel on [0, n/fs]): its
closed-form finite-rank eigenvalues, the interpolator's its density at the
midpoints, and no eigenvector, as every result needs only the eigenvalues.
``nystrom_interp_eigenvalues`` checks the closed forms by one ``eigvalsh`` of
an exact n x n matrix with the trapezoid Nystrom matrix's nonzero spectrum,
which is the closed form's plus sigma2 ts^2/(6 g^2) on g nodes per interval.

Every outside value is read by ``read_real`` (one float, or a float64 array
on a route built for arrays) or ``read_int`` (a count or the seed), which
name its field in a ``ParameterError``; ``check_positive`` and
``check_count`` add the rules of reals and counts, ``unit`` scales every
dimensionless result to absolute units (sigma2/fs, sigma2/R, sigma2 ts**2),
and ``check_normal`` refuses a result, named, outside the normal floats.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
import numpy as np

__all__ = [
    "ParameterError",
    "read_real",
    "read_int",
    "check_positive",
    "check_count",
    "check_normal",
    "MAX_COUNT",
    "unit",
    "ProcessParams",
    "SpectralDensity",
    "SAMPLED_WIENER",
    "SHIFTED_SAMPLED_WIENER",
    "EigenSystem",
    "discrete_wiener_eigensystem",
    "interp_kernel_eigensystem",
    "nystrom_interp_eigenvalues",
]


class ParameterError(ValueError):
    """A bad value of the parameter ``field``, which ``reason`` explains."""

    def __init__(self, field: str, reason: str):
        super().__init__(f"{field} {reason}")
        self.field, self.reason = field, reason


def read_real(field: str, value, array: bool = False):
    """``value`` read once as one float, or as a float64 array of any shape
    on a route built for arrays; what numpy cannot read as reals, or an
    array where one number is read, is a ParameterError naming ``field``."""
    try:
        value = np.asarray(value, dtype=float)
    except (TypeError, ValueError):   # "x", object()
        raise ParameterError(field, "must be real") from None
    if not (array or value.ndim == 0):
        raise ParameterError(field, "must be one number")
    return value if array else float(value)


def check_positive(field: str, value, array: bool = False):
    """``read_real(field, value, array)``, if positive and finite throughout."""
    value = read_real(field, value, array)
    if not np.logical_and.reduce((value > 0) & (value < np.inf),   # nan: false
                                 axis=None):
        raise ParameterError(field, "must be positive and finite")
    return value


#: the largest count: no command builds more than 32 float64 values per
#: counted item, so no array a count sizes can pass sys.maxsize bytes
MAX_COUNT = sys.maxsize >> 8


def read_int(field: str, value) -> int:
    """``value``, a count or the seed, as an int: an integer type as it is
    (exact at any size), else read once as a float that must be integral; a
    bool is no integer."""
    if isinstance(value, bool) or getattr(value, "dtype", None) == bool:
        value = np.nan
    if not isinstance(value, (int, np.integer)):   # else read once, as a float
        try:
            value = float(value)
        except (TypeError, ValueError):
            value = np.nan
        if not value.is_integer():
            raise ParameterError(field, "must be an integer")
    return int(value)


def check_count(field: str, value, least: int = 1) -> int:
    """``read_int(field, value)``, if from ``least`` to ``MAX_COUNT`` (2**55 - 1
    on 64 bits): a larger one is too long to allocate, so it is refused."""
    value = read_int(field, value)
    if value < least:
        raise ParameterError(field, f"must be >= {least}")
    if value > MAX_COUNT:
        raise ParameterError(field, "is too long to allocate")
    return value


def check_normal(**values) -> None:
    """Refuse a named result (a float or an array) outside the positive normal
    floats, where it has lost its digits (FloatingPointError naming the first
    such name); a record passes its fields, ``check_normal(**vars(self))``."""
    for field, value in values.items():
        if not np.logical_and.reduce((sys.float_info.min <= value)
                                     & (value <= sys.float_info.max), axis=None):
            raise FloatingPointError(f"{field} is past the floating-point range")


def unit(num, den, power=1):
    """num / den**power as (m_num / m_den**power, e_num - power e_den) of the
    ``np.frexp`` mantissas and exponents, so c num / den**power is
    ``np.ldexp(c * ratio, exponent)``: it leaves the floats only where that
    value does.  power is 1 (sigma2/fs, sigma2/R) or 2 (sigma2/fs**2), whose
    square ``np.power`` rounds once (a scalar ``**`` is at times 1 ulp off)."""
    (m_num, e_num), (m_den, e_den) = np.frexp(num), np.frexp(den)
    return m_num / np.power(m_den, power), e_num - power * e_den


def _ldexp(field: str, value, exp):
    """``np.ldexp(value, exp)``, a result's last step under ``unit``, refused by
    ``check_normal`` as ``field`` where a nonzero value leaves the floats."""
    with np.errstate(over="ignore"):   # refused below
        scaled = np.ldexp(value, exp)
    check_normal(**{field: np.where(value == 0, 1.0, scaled)})
    return scaled


@dataclass(frozen=True)
class ProcessParams:
    """Wiener intensity sigma2 and uniform sampling rate fs (both > 0); the
    units sigma2/fs and sigma2 ts**2 are applied through ``unit``."""

    sigma2: float
    fs: float

    def __post_init__(self):   # kept as the floats checked
        for name in ("sigma2", "fs"):
            object.__setattr__(self, name, check_positive(name, getattr(self, name)))

    @property
    def ts(self) -> float:
        """Sampling interval 1/fs (derived, never stored)."""
        return 1.0 / self.fs


@dataclass(frozen=True)
class SpectralDensity:
    """The eigenvalue density 1/(4 sin^2(pi phi/2)) - shift on (0, 1], in
    units of sigma2/fs: nothing but its shift, 0 for the sampled walk and 1/6
    for the interpolator, formed as (2 + cos pi phi)/(12 sin^2(pi phi/2))
    without cancellation.  Both are strictly decreasing with infimum ``floor``
    at phi = 1, so the water-level crossing, where the waterfilling
    integrands kink, has one closed form (``crossing``).
    """

    shift: float

    def __post_init__(self):   # kept as the float read
        shift = read_real("shift", self.shift)
        if shift not in (0.0, 1.0 / 6.0):
            raise ParameterError("shift", "must be 0 or 1/6")
        object.__setattr__(self, "shift", shift)

    def __call__(self, phi):
        phi = check_positive("phi", phi, array=True)
        if np.logical_or.reduce(phi > 1.0, axis=None):
            raise ParameterError("phi", "must lie in (0, 1]")
        a, b, d = (2.0, 1.0, 12.0) if self.shift else (1.0, 0.0, 4.0)
        with np.errstate(divide="ignore", over="ignore"):   # refused below
            value = (a + b * np.cos(np.pi * phi)) / (
                d * np.square(np.sin(0.5 * np.pi * phi)))
        check_normal(density=value)
        return value

    @property
    def floor(self) -> float:
        """Infimum of the density over (0, 1], its value at phi = 1."""
        return 0.25 - self.shift

    @staticmethod
    def _cot_crossing(theta, floor):
        """(c, phic) at water level theta over ``floor`` (one density's, or a
        column of floors, one per row of a stack of levels solved together),
        as arrays.

        phic is where the density equals theta; c = cot(pi phic / 2)
        = 2 sqrt(max{theta - floor, 0}), finite for every float theta, so
        phic = (2/pi) arctan(1/c) without cancellation, and phic = 1 at or
        below the floor.
        """
        c = 2.0 * np.sqrt(np.maximum(theta - floor, 0.0))
        return c, (2.0 / np.pi) * np.arctan2(1.0, c)

    def crossing(self, theta):
        """The crossing phic in (0, 1] where the density equals theta."""
        return self._cot_crossing(theta, self.floor)[1]


SAMPLED_WIENER = SpectralDensity(0.0)
SHIFTED_SAMPLED_WIENER = SpectralDensity(1.0 / 6.0)


@dataclass(frozen=True)
class EigenSystem:
    """Finite-rank spectrum of a covariance kernel on n samples: its n
    ``eigenvalues``, strictly positive and sorted decreasing, in O(n)
    memory."""

    eigenvalues: np.ndarray


def discrete_wiener_eigensystem(params: ProcessParams, n: int) -> EigenSystem:
    """The eigensystem of the covariance (sigma2/fs) * min{i, j}: eigenvalues
    (sigma2/fs) / (4 sin^2((2k-1) pi / (2(2n+1)))), k = 1..n; decreasing in
    k, O(n)."""
    n = check_count("n", n)
    k = np.arange(1, n + 1)
    ratio, exp = unit(params.sigma2, params.fs)
    return EigenSystem(_ldexp("eigenvalues", ratio / (
        4.0 * np.sin((2 * k - 1) * np.pi / (2.0 * (2 * n + 1))) ** 2), exp))


def interp_kernel_eigensystem(params: ProcessParams, n: int) -> EigenSystem:
    """The eigensystem of the sample-interpolator kernel on [0, n*ts], O(n):

        lam_k = sigma2 ts^2 S~((k - 1/2)/n),   k = 1..n,

    sigma2 ts^2 (``unit(sigma2, fs, 2)``) times ``SHIFTED_SAMPLED_WIENER`` at
    the midpoints, exactly at every n: the finite-rank spectrum already is
    its density limit.  It is decreasing in k, as the density is.
    """
    n = check_count("n", n)
    ratio, exp = unit(params.sigma2, params.fs, 2)
    return EigenSystem(_ldexp("eigenvalues", ratio * SHIFTED_SAMPLED_WIENER(
        (np.arange(1, n + 1) - 0.5) / n), exp))


def nystrom_interp_eigenvalues(params: ProcessParams, n: int,
                               grid_points: int = 200) -> np.ndarray:
    """The n largest eigenvalues, sorted decreasing, of the Nystrom matrix
    W^1/2 K W^1/2 of the interpolator kernel K on g = ``grid_points`` nodes
    per sampling interval with trapezoid weights W, by one ``eigvalsh``.

    K = H L L^T H^T for the samples' hats H and covariance L L^T, so the
    Nystrom matrix's nonzero eigenvalues are those of L^T (H^T W H) L, built
    exactly at sigma2 = ts = 1 and scaled by ``unit(sigma2, fs, 2)``.  L is
    ``np.tri(n)``; H^T W H is tridiagonal, 2a on its diagonal (a at the last
    sample) and b off it, where a = (2g^2 + 1)/(6g^2) and b = (g^2 - 1)/(6g^2)
    are one interval's trapezoid sums of (1 - u)^2 and u (1 - u), u = m/g.
    Summed over j' >= j, k' >= k with 2a + 2b = 1, entry (j, k) is
    n - max{j, k} + 1/2 - b [j = k].  H^T W H exceeds its g -> oo limit by
    T/(6g^2), T = tridiag(-1, 2, -1) with last diagonal 1 = L^-T L^-1, so
    these are ``interp_kernel_eigensystem``'s plus sigma2 ts^2/(6g^2).
    """
    n = check_count("n", n)
    grid_points = check_count("grid_points", grid_points, least=2)
    check_count("n", n * n)
    j = np.arange(1, n + 1)
    gram = (n + 0.5) - np.maximum.outer(j, j)
    gram.flat[::n + 1] -= (grid_points ** 2 - 1) / (6.0 * grid_points ** 2)
    ratio, exp = unit(params.sigma2, params.fs, 2)
    return _ldexp("eigenvalues", ratio * np.linalg.eigvalsh(gram)[::-1], exp)
