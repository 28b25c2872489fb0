"""Spectral densities and Karhunen-Loeve eigensystems of the sampled Wiener model.

A Wiener process of intensity sigma2, sampled at rate fs, yields a Gaussian
random walk whose covariance matrix is (sigma2/fs) * min{i, j}.  Its KL
eigenvalue staircase converges to the density

    S(phi) = 1 / (4 sin^2(pi phi / 2)),   phi in (0, 1],

while the piecewise-linear interpolator of the samples has the shifted
density S(phi) - 1/6.  A density is its shift (``SpectralDensity``), which
gives S, its floor and the one formula for the water-level crossing.  The
module also provides closed-form finite-rank eigenvalues in O(n) and
eigensystems for the two covariance kernels (the discrete walk and the
interpolator kernel on [0, n/fs]), and brute-force eigensolver / Nystrom
oracles used to validate the closed forms.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

__all__ = [
    "ParameterError",
    "check_positive",
    "ProcessParams",
    "SpectralDensity",
    "SAMPLED_WIENER",
    "SHIFTED_SAMPLED_WIENER",
    "s_bar",
    "s_tilde_density",
    "EigenSystem",
    "discrete_wiener_eigenvalues",
    "discrete_wiener_eigensystem",
    "interp_kernel_eigenvalues",
    "interp_kernel_eigensystem",
    "interp_covariance",
    "nystrom_interp_eigenvalues",
]


class ParameterError(ValueError):
    """A bad value of the parameter ``field``, which ``reason`` explains."""

    def __init__(self, field: str, reason: str):
        super().__init__(f"{field} {reason}")
        self.field, self.reason = field, reason


def check_positive(field: str, value) -> np.ndarray:
    """``value`` as a float array, if positive and finite throughout."""
    value = np.asarray(value, dtype=float)   # a nan is the min and the max
    if not (value.min(initial=np.inf) > 0 and value.max(initial=0.0) < np.inf):
        raise ParameterError(field, "must be positive and finite")
    return value


@dataclass(frozen=True)
class ProcessParams:
    """Wiener intensity sigma2 and uniform sampling rate fs (both > 0)."""

    sigma2: float
    fs: float

    def __post_init__(self):
        check_positive("sigma2", self.sigma2)
        check_positive("fs", self.fs)

    @property
    def ts(self) -> float:
        """Sampling interval 1/fs (derived, never stored)."""
        return 1.0 / self.fs

    @property
    def sigma2_ts2(self) -> float:
        """sigma2 (ts * ts), rounded once (``**`` is one ulp off for 1 fs in
        1,200), or (sigma2 ts) ts where ts * ts is not a finite normal float."""
        sigma2, ts = float(self.sigma2), float(self.ts)
        if sys.float_info.min <= ts * ts <= sys.float_info.max:
            return sigma2 * (ts * ts)
        return sigma2 * ts * ts


def _check_phi(phi):
    arr = np.asarray(phi, dtype=float)
    if np.any(arr <= 0.0) or np.any(arr > 1.0):
        raise ValueError("phi must lie in (0, 1]")
    return arr


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

    def __post_init__(self):
        if self.shift not in (0.0, 1.0 / 6.0):
            raise ValueError(f"density shift must be 0 or 1/6, got {self.shift}")

    def __call__(self, phi):
        arr = _check_phi(phi)
        out = 1.0 / (4.0 * np.sin(0.5 * np.pi * arr) ** 2) - self.shift
        return float(out) if np.isscalar(phi) or arr.ndim == 0 else out

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
        c = np.sqrt(np.maximum(4.0 * (theta - self.floor), 0.0))
        return c, (2.0 / np.pi) * np.arctan2(1.0, c)

    def crossing(self, theta):
        """The crossing phic in (0, 1] of ``cot_crossing``; a float for a float."""
        phic = self.cot_crossing(theta)[1]
        return float(phic) if np.ndim(phic) == 0 else phic


SAMPLED_WIENER = SpectralDensity(0.0)
SHIFTED_SAMPLED_WIENER = SpectralDensity(1.0 / 6.0)


def s_bar(phi):
    """Eigenvalue density of the sampled Wiener walk: 1/(4 sin^2(pi phi/2)).

    Strictly decreasing on (0, 1] with infimum 1/4 at phi = 1; diverges like
    (pi phi / 2)**-2 / 4 as phi -> 0+.  Accepts scalars or arrays.
    """
    return SAMPLED_WIENER(phi)


def s_tilde_density(phi):
    """Shifted density s_bar(phi) - 1/6; infimum 1/12 at phi = 1."""
    return SHIFTED_SAMPLED_WIENER(phi)


@dataclass(frozen=True)
class EigenSystem:
    """Finite-rank eigen-decomposition of a covariance kernel.

    ``eigenvalues`` are strictly positive and sorted decreasing.  For the
    discrete walk kernel, ``eigenvectors`` holds the unit-norm eigenvectors
    as rows (entry [k-1, m-1] pairs eigenvalue k with sample index m = 1..n).
    For the interpolator kernel, ``node_values`` holds the already-normalized
    eigenfunction values on the sampling grid t = m*ts, m = 0..n; the
    eigenfunctions are piecewise linear between those nodes.
    ``normalizers`` keeps the per-mode normalization constants (for the
    discrete kernel all equal 2/sqrt(2n+1), so n * normalizers**2 -> 2).
    """

    n: int
    eigenvalues: np.ndarray
    ts: float
    eigenvectors: Optional[np.ndarray] = None
    node_values: Optional[np.ndarray] = None
    normalizers: Optional[np.ndarray] = field(default=None, repr=False)

    def _mode(self, rows: Optional[np.ndarray], k: int, what: str):
        if rows is None:
            raise ValueError(f"this eigensystem has no {what}")
        if not 1 <= k <= self.n:
            raise ParameterError("k", f"must be in 1..{self.n}")
        return rows[k - 1]

    def eigenvector(self, k: int) -> np.ndarray:
        """Unit-norm eigenvector for mode k (1-based)."""
        return self._mode(self.eigenvectors, k, "discrete eigenvectors")

    def eigenfunction(self, k: int, t):
        """Piecewise-linear eigenfunction for mode k evaluated at time(s) t."""
        v = self._mode(self.node_values, k, "eigenfunctions")
        t_arr = np.asarray(t, dtype=float)
        horizon = self.n * self.ts
        if np.any(t_arr < 0) or np.any(t_arr > horizon * (1 + 1e-12)):
            raise ValueError("t must lie in [0, n*ts]")
        pos = t_arr / self.ts
        idx = np.minimum(pos.astype(int), self.n - 1)
        frac = pos - idx
        out = v[idx] * (1.0 - frac) + v[idx + 1] * frac
        return float(out) if t_arr.ndim == 0 else out


def discrete_wiener_eigenvalues(params: ProcessParams, n: int) -> np.ndarray:
    """Eigenvalues (sigma2/fs) / (4 sin^2((2k-1) pi / (2(2n+1)))), k = 1..n,
    of the covariance (sigma2/fs) * min{i, j}; decreasing in k, O(n)."""
    if n < 1:
        raise ParameterError("n", "must be a positive integer")
    k = np.arange(1, n + 1)
    return (params.sigma2 / params.fs) / (
        4.0 * np.sin((2 * k - 1) * np.pi / (2.0 * (2 * n + 1))) ** 2)


def discrete_wiener_eigensystem(params: ProcessParams, n: int) -> EigenSystem:
    """Closed-form eigensystem of the covariance (sigma2/fs) * min{i, j}.

    Eigenvalues from ``discrete_wiener_eigenvalues``; eigenvectors are the
    sine vectors sin((2k-1) pi m / (2n+1)), m = 1..n.  Every such row has
    squared norm (2n+1)/4, so one normalizer 2/sqrt(2n+1) serves all modes.
    """
    lam = discrete_wiener_eigenvalues(params, n)
    k = np.arange(1, n + 1)   # also the sample index m = 1..n
    norm = 2.0 / np.sqrt(2 * n + 1)
    vecs = np.sin(np.outer((2 * k - 1) * np.pi / (2 * n + 1), k))
    vecs *= norm
    return EigenSystem(n=n, eigenvalues=lam, ts=params.ts,
                       eigenvectors=vecs, normalizers=np.full(n, norm))


def _pwl_l2_norm_sq(values: np.ndarray, ts: float) -> np.ndarray:
    """Squared L2[0, n*ts] norm of piecewise-linear functions given node rows."""
    a = values[..., :-1]
    b = values[..., 1:]
    return (ts / 3.0) * np.sum(a * a + a * b + b * b, axis=-1)


def interp_kernel_eigenvalues(params: ProcessParams, n: int) -> np.ndarray:
    """Eigenvalues of the sample-interpolator kernel on [0, n*ts], O(n).

        lam_k = sigma2 ts^2 (2 + cos x_k) / (12 sin^2(x_k / 2)),
        x_k = (2k-1) pi / (2n),   k = 1..n,

    which is sigma2 ts^2 (``ProcessParams.sigma2_ts2``) times the shifted
    density at (k - 1/2)/n.  The form has no cancellation (relative error a
    few ulp at any n) and is decreasing in k: the numerator falls and the
    denominator rises.
    """
    if n < 1:
        raise ParameterError("n", "must be a positive integer")
    x = (2 * np.arange(1, n + 1) - 1) * np.pi / (2.0 * n)
    return (params.sigma2_ts2 / 12.0) * (
        (2.0 + np.cos(x)) / np.sin(0.5 * x) ** 2)


def interp_kernel_eigensystem(params: ProcessParams, n: int) -> EigenSystem:
    """Closed-form eigensystem of the sample-interpolator kernel on [0, n*ts].

    Eigenvalues from ``interp_kernel_eigenvalues``; the eigenfunctions are
    piecewise linear with node values sin((2k-1) pi m / (2n)), m = 0..n,
    normalized to unit L2 norm.
    """
    lam = interp_kernel_eigenvalues(params, n)
    ts = params.ts
    k = np.arange(1, n + 1)
    nodes = np.sin(np.outer((2 * k - 1) * np.pi / (2.0 * n), np.arange(n + 1)))
    scale = 1.0 / np.sqrt(_pwl_l2_norm_sq(nodes, ts))
    nodes *= scale[:, None]
    return EigenSystem(n=n, eigenvalues=lam, ts=ts, node_values=nodes,
                       normalizers=scale)


def _by_interval(times: np.ndarray, params: ProcessParams) -> dict:
    """Positions of ``times`` grouped by the sampling interval they fall in."""
    idx = np.floor(times * params.fs * (1 + 1e-14)).astype(int)
    order = np.argsort(idx, kind="stable")
    keys, starts = np.unique(idx[order], return_index=True)
    return dict(zip(keys.tolist(), np.split(order, starts[1:])))


def interp_covariance(params: ProcessParams, t, s):
    """Kernel of the sample interpolator: sigma2*min(t,s) minus the bridge
    term (sigma2/ts)(t_hi - max)(min - t_lo), which is 0 unless t and s share
    a sampling interval [t_lo, t_hi] and is subtracted on those blocks only."""
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    s_arr = np.atleast_1d(np.asarray(s, dtype=float))
    out = np.minimum.outer(t_arr, s_arr)
    out *= params.sigma2
    ts = params.ts
    rows, cols = _by_interval(t_arr, params), _by_interval(s_arr, params)
    for i in rows.keys() & cols.keys():
        ti, si = t_arr[rows[i]][:, None], s_arr[cols[i]][None, :]
        bridge = np.minimum(ti, si) - i * ts
        bridge *= (i + 1) * ts - np.maximum(ti, si)
        bridge *= params.sigma2 / ts
        out[np.ix_(rows[i], cols[i])] -= bridge
    if np.isscalar(t) and np.isscalar(s):
        return float(out[0, 0])
    return out


def nystrom_interp_eigenvalues(params: ProcessParams, n: int,
                               grid_points: int = 200,
                               method: str = "auto") -> np.ndarray:
    """Brute-force spectrum of the interpolator kernel on a uniform grid.

    Discretizes the kernel on ``grid_points`` nodes per sampling interval
    with trapezoid weights and returns the n largest eigenvalues of the
    symmetrized Nystrom matrix, sorted decreasing.

    method "dense" evaluates the kernel pointwise; the matrix has rank n
    (the covariance of the interpolant of n free samples), so a seeded
    range finder of n+8 columns and two power steps spans its range and the
    dense symmetric eigensolver runs on the projection.  "factored" uses
    that the interpolator is a linear map of the samples: the Nystrom matrix
    is H C H^T with hat factors H, reduced to n x n without changing the
    spectrum.  "auto" picks dense for small grids (the fully independent
    route) and factored above 3500 nodes, where the dense matrix no longer
    fits comfortably.
    """
    if n < 1:
        raise ParameterError("n", "must be a positive integer")
    if grid_points < 2:
        raise ValueError("grid_points must be >= 2")
    ts = params.ts
    total = n * grid_points + 1
    dt = ts / grid_points
    t = np.arange(total) * dt
    w = np.full(total, dt)   # trapezoid weights
    w[[0, -1]] = 0.5 * dt

    if method == "auto":
        method = "dense" if total <= 3500 else "factored"

    if method == "dense":
        sym = interp_covariance(params, t, t)
        root = np.sqrt(w)
        sym *= root[:, None]
        sym *= root
        q = np.random.default_rng(0).standard_normal((total, min(n + 8, total)))
        for _ in range(3):   # the range, then two power steps
            q = np.linalg.qr(sym @ q)[0]
        return np.linalg.eigvalsh(q.T @ sym @ q)[::-1][:n]
    if method != "factored":
        raise ValueError(f"unknown method {method!r}")

    # interpolator value at t in interval idx is (1-frac)*W_idx + frac*W_{idx+1};
    # column j of H carries the weight on sample j+1 (sample 0 is pinned at 0)
    idx = np.minimum((t / ts).astype(int), n - 1)
    frac = t / ts - idx
    hmat = np.zeros((total, n))
    rows = np.arange(total)
    inner = idx >= 1
    hmat[rows[inner], idx[inner] - 1] = 1.0 - frac[inner]
    hmat[rows, idx] += frac
    cov = (params.sigma2 * ts) * np.minimum.outer(np.arange(1, n + 1),
                                                  np.arange(1, n + 1))
    chol = np.linalg.cholesky(cov)
    mid = hmat.T @ (w[:, None] * hmat)
    vals = np.linalg.eigvalsh(chol.T @ mid @ chol)[::-1]
    return vals[:n]
