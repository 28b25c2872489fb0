"""Spectral densities and Karhunen-Loeve eigensystems of the sampled Wiener model.

A Wiener process of intensity sigma2, sampled at rate fs, yields a Gaussian
random walk whose covariance matrix is (sigma2/fs) * min{i, j}.  Its KL
eigenvalue staircase converges to the density

    S(phi) = 1 / (4 sin^2(pi phi / 2)),   phi in (0, 1],

while the piecewise-linear interpolator of the samples has the shifted
density S(phi) - 1/6.  A density is its shift (``SpectralDensity``), which
gives S, its floor and the one formula for the water-level crossing; the
two are the objects ``SAMPLED_WIENER`` and ``SHIFTED_SAMPLED_WIENER``.  The
module also provides the closed-form finite-rank eigenvalues, in O(n), of
the two covariance kernels (the discrete walk and the interpolator kernel
on [0, n/fs]), alone or as an ``EigenSystem`` with n and ts; no eigenvector
is built, as every result needs only the eigenvalues.
``nystrom_interp_eigenvalues`` checks the closed forms: it gives the
interpolator's discretized spectrum by one route, an n x n matrix with the
same nonzero eigenvalues as the Nystrom matrix.

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
    "discrete_wiener_eigenvalues",
    "discrete_wiener_eigensystem",
    "interp_kernel_eigenvalues",
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
    """``np.ldexp(value, exp)``, the last step of a result scaled by ``unit``,
    refused by ``check_normal`` as ``field`` where it leaves the floats."""
    with np.errstate(over="ignore"):   # refused below
        value = np.ldexp(value, exp)
    check_normal(**{field: value})
    return value


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
    units of sigma2/fs.

    A density is nothing but its shift: 0 for the sampled walk, 1/6 for the
    interpolator.  Both are strictly decreasing with infimum ``floor`` at
    phi = 1, so the water-level crossing, where the waterfilling integrands
    kink, has one closed form (``crossing``).
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
        return 1.0 / (4.0 * np.square(np.sin(0.5 * np.pi * phi))) - self.shift

    @property
    def floor(self) -> float:
        """Infimum of the density over (0, 1], its value at phi = 1."""
        return 0.25 - self.shift

    def cot_crossing(self, theta):
        """(c, phic) at water level theta, as arrays.

        phic is where the density equals theta; c = cot(pi phic / 2)
        = sqrt(max{4 (theta - floor), 0}), so phic = (2/pi) arctan(1/c)
        without cancellation, and phic = 1 at or below the floor.
        """
        return self._cot_crossing(theta, self.floor)

    @staticmethod
    def _cot_crossing(theta, floor):
        """``cot_crossing`` over ``floor``: one density's, or a column of
        floors, one per row of a stack of levels solved together."""
        c = np.sqrt(np.maximum(4.0 * (theta - floor), 0.0))
        return c, (2.0 / np.pi) * np.arctan2(1.0, c)

    def crossing(self, theta):
        """The crossing phic in (0, 1] of ``cot_crossing``."""
        return self.cot_crossing(theta)[1]


SAMPLED_WIENER = SpectralDensity(0.0)
SHIFTED_SAMPLED_WIENER = SpectralDensity(1.0 / 6.0)


@dataclass(frozen=True)
class EigenSystem:
    """Finite-rank spectrum of a covariance kernel on n samples at interval
    ts: its n ``eigenvalues``, strictly positive and sorted decreasing, in
    O(n) memory."""

    n: int
    eigenvalues: np.ndarray
    ts: float

    def __post_init__(self):   # a ts of 0 or inf places no sample
        check_normal(ts=self.ts)


def discrete_wiener_eigenvalues(params: ProcessParams, n: int) -> np.ndarray:
    """Eigenvalues (sigma2/fs) / (4 sin^2((2k-1) pi / (2(2n+1)))), k = 1..n,
    of the covariance (sigma2/fs) * min{i, j}; decreasing in k, O(n)."""
    n = check_count("n", n)
    k = np.arange(1, n + 1)
    ratio, exp = unit(params.sigma2, params.fs)
    return _ldexp("eigenvalues", ratio / (
        4.0 * np.sin((2 * k - 1) * np.pi / (2.0 * (2 * n + 1))) ** 2), exp)


def discrete_wiener_eigensystem(params: ProcessParams, n: int) -> EigenSystem:
    """The eigensystem of the covariance (sigma2/fs) * min{i, j}, its
    eigenvalues from ``discrete_wiener_eigenvalues``."""
    lam = discrete_wiener_eigenvalues(params, n)
    return EigenSystem(len(lam), lam, params.ts)   # n as checked


def interp_kernel_eigenvalues(params: ProcessParams, n: int) -> np.ndarray:
    """Eigenvalues of the sample-interpolator kernel on [0, n*ts], O(n).

        lam_k = sigma2 ts^2 (2 + cos x_k) / (12 sin^2(x_k / 2)),
        x_k = (2k-1) pi / (2n),   k = 1..n,

    which is sigma2 ts^2 (``unit(sigma2, fs, 2)``) times the shifted
    density at (k - 1/2)/n.  The form has no cancellation (relative error a
    few ulp at any n) and is decreasing in k: the numerator falls and the
    denominator rises.
    """
    n = check_count("n", n)
    x = (2 * np.arange(1, n + 1) - 1) * np.pi / (2.0 * n)
    ratio, exp = unit(params.sigma2, params.fs, 2)
    return _ldexp("eigenvalues", (ratio / 12.0) * (
        (2.0 + np.cos(x)) / np.sin(0.5 * x) ** 2), exp)


def interp_kernel_eigensystem(params: ProcessParams, n: int) -> EigenSystem:
    """The eigensystem of the sample-interpolator kernel on [0, n*ts], its
    eigenvalues from ``interp_kernel_eigenvalues``."""
    lam = interp_kernel_eigenvalues(params, n)
    return EigenSystem(len(lam), lam, params.ts)   # n as checked


def nystrom_interp_eigenvalues(params: ProcessParams, n: int,
                               grid_points: int = 200) -> np.ndarray:
    """Brute-force spectrum of the interpolator kernel on a uniform grid.

    Discretizes the kernel K on ``grid_points`` nodes per sampling interval
    with trapezoid weights W and returns the n largest eigenvalues of the
    symmetrized Nystrom matrix W^1/2 K W^1/2, sorted decreasing.

    The interpolator is a linear map of the samples, so K = H C H^T with hat
    factors H and the samples' covariance C = L L^T.  The Nystrom matrix is
    then A A^T with A = W^1/2 H L, whose nonzero eigenvalues are those of
    the n x n matrix A^T A = L^T (H^T W H) L, which is what is diagonalized.
    It is built at sigma2 = ts = 1 and scaled by ``unit(sigma2, fs, 2)``; its
    largest array, the (n grid_points + 1) x n hat matrix, passes ``check_count``.
    """
    n = check_count("n", n)
    grid_points = check_count("grid_points", grid_points, least=2)
    check_count("grid_points", (n * grid_points + 1) * n)
    dt = 1.0 / grid_points
    # node positions in sampling intervals; column j of H is the hat of
    # sample j + 1, its weight in the interpolant (sample 0 is pinned at 0)
    pos = np.arange(n * grid_points + 1) / grid_points
    hmat = np.maximum(1.0 - np.abs(pos[:, None] - np.arange(1, n + 1)), 0.0)
    w = np.full(len(pos), dt)   # trapezoid weights
    w[[0, -1]] = 0.5 * dt
    chol = np.linalg.cholesky(np.minimum.outer(np.arange(1, n + 1),
                                               np.arange(1, n + 1)))
    mid = hmat.T @ (w[:, None] * hmat)
    ratio, exp = unit(params.sigma2, params.fs, 2)
    return _ldexp("eigenvalues",
                  ratio * np.linalg.eigvalsh(chol.T @ mid @ chol)[::-1], exp)
