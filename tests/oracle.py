"""Quadrature oracle for the closed-form waterfilling kernel, dense
references for the Monte-Carlo layer, the dense eigenvectors of both
covariance kernels, and the pointwise interpolator kernel with the
Fredholm residual of its eigensystem.

Only the tests import this module.  It integrates the waterfilling
integrands directly, so it shares no formula with ``wienerdr.waterfill``.
The Monte-Carlo references at the end run one trial at a time with the
dense eigenvector matrix (``sine_vectors``) and a loop over waterfilling
segments, so they share no transform, batching or vectorized solve with
``wienerdr.mc``.  The witness of d_opt, estimate then compress with the
dense interpolant eigensystem on the fine grid, takes its level from
``mc.finite_waterfill_theta``, which it witnesses.
``argparse_parser`` is the command line as an argparse parser, against
which the tests check the one-pass reader of ``wienerdr.cli``.

Adaptive composite Gauss-Legendre quadrature on bounded intervals.  The
waterfilling integrands over (0, 1] are smooth away from the left endpoint
but inherit an integrable singularity at phi = 0 from the spectral densities
(a phi**-2 blow-up of the density itself, a log divergence of the rate
integrand).  Two strategies are supported:

* graded: substitute phi = u**2 and integrate in u, which clusters nodes at
  the singular endpoint and removes most of the stiffness (the default);
* plain: adaptive bisection directly in phi, kept as an independent
  cross-check of the graded scheme.

Panels are refined in breadth-first waves so the integrand is always
evaluated on one batched array per refinement level.  Every integral returns
an a-posteriori error estimate (the sum of the inter-refinement deltas of
the accepted panels).  Panels that fail to settle within the depth budget
raise :class:`QuadratureError` carrying the estimate reached, which is how
divergent integrands surface.

On top of the engine sit the waterfilling integrals at a water level theta
(``distortion_at_theta``, ``rate_at_theta``, and ``g_integral`` and
``ce_integral`` over the walk's density); each must come back with an
error estimate below ``ERROR_BOUND``.  The rate integrand is clipped,
0.5 max{log2(S/theta), 0}, and integrated over all of (0, 1], so the
density's crossing point enters every integral only as a breakpoint and no
oracle value rests on the product's crossing formula.
"""

from __future__ import annotations

import argparse
import math

import numpy as np

from wienerdr import mc
from wienerdr.cli import _cmd_curve, _cmd_eigen, _cmd_ratio, _cmd_simulate
from wienerdr.spectral import (SAMPLED_WIENER, ProcessParams,
                               discrete_wiener_eigensystem)

#: every waterfilling integral must come back with an error estimate below this
ERROR_BOUND = 1e-9

_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(32)

#: a panel is accepted where its coarse-vs-bisected discrepancy is at most
#: _TOL times its width, or times _PANEL_FLOOR of the interval if larger
_TOL = 1e-11
_PANEL_FLOOR = 1e-2
#: bisection depth and panel budget past which an integral is refused
_MAX_DEPTH = 52
_MAX_PANELS = 40000


class QuadratureError(RuntimeError):
    """Quadrature failed to converge; carries the achieved error estimate."""

    def __init__(self, message: str, error_estimate: float):
        super().__init__(f"{message} (achieved error estimate {error_estimate:.3e})")
        self.error_estimate = error_estimate


def _panel_values(f, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """32-node Gauss-Legendre values for a batch of panels [lo_i, hi_i]."""
    half = 0.5 * (hi - lo)
    nodes = half[:, None] * _NODES[None, :] + (0.5 * (hi + lo))[:, None]
    vals = np.asarray(f(nodes.ravel()), dtype=float).reshape(nodes.shape)
    return half * (vals @ _WEIGHTS)


def integrate(f, a: float, b: float, *, breakpoints=(),
              initial_panels: int = 4):
    """Integrate a vectorized integrand f on [a, b] as (value, error_estimate),
    never evaluating f at a or b.  Panel edges are placed at the known kinks
    ``breakpoints`` (e.g. the water-level crossing), so each panel sees a
    smooth integrand, and ``initial_panels`` uniform panels are laid over
    each segment between them before adaptivity."""
    if not b > a:
        raise ValueError("integration interval is empty")
    edges = sorted({a, b, *(float(p) for p in breakpoints if a < p < b)})
    floor = _PANEL_FLOOR * (b - a)
    cuts = [np.linspace(seg_lo, seg_hi, initial_panels + 1)
            for seg_lo, seg_hi in zip(edges, edges[1:])]
    lo = np.concatenate([c[:-1] for c in cuts])
    hi = np.concatenate([c[1:] for c in cuts])
    coarse = _panel_values(f, lo, hi)

    total = 0.0
    err = 0.0
    seen = len(lo)
    for depth in range(_MAX_DEPTH + 1):
        mid = 0.5 * (lo + hi)
        child_lo = np.concatenate([lo, mid])
        child_hi = np.concatenate([mid, hi])
        child_vals = _panel_values(f, child_lo, child_hi)
        n = len(lo)
        fine = child_vals[:n] + child_vals[n:]
        if not np.all(np.isfinite(fine)):
            raise QuadratureError("integrand is not finite", np.inf)
        delta = np.abs(fine - coarse)
        accept = delta <= _TOL * np.maximum(hi - lo, floor)
        total += float(fine[accept].sum())
        err += float(delta[accept].sum())
        keep = ~accept
        if not np.any(keep):
            return total, err
        if depth == _MAX_DEPTH:
            raise QuadratureError(
                "tolerance not reached at maximum panel refinement",
                err + float(delta[keep].sum()))
        lo = np.concatenate([lo[keep], mid[keep]])
        hi = np.concatenate([mid[keep], hi[keep]])
        coarse = np.concatenate([child_vals[:n][keep], child_vals[n:][keep]])
        seen += len(lo)
        if seen > _MAX_PANELS:
            raise QuadratureError("panel budget exhausted",
                                  err + float(delta[keep].sum()))
    raise AssertionError("unreachable")


def integrate_unit(f, *, graded: bool = True, breakpoints=(),
                   initial_panels: int = 2):
    """Integrate a vectorized integrand over (0, 1].

    With ``graded=True`` the integral is computed in the substituted
    variable u = sqrt(phi) on a partition graded geometrically toward the
    singular endpoint, so almost no adaptive bisection is left to do;
    breakpoints are given in phi either way.
    """
    if graded:
        g = lambda u: f(u * u) * (2.0 * u)
        bps = [np.sqrt(p) for p in breakpoints]
        bps += [2.0 ** (-j) for j in range(1, 16)]
        return integrate(g, 0.0, 1.0, breakpoints=bps,
                         initial_panels=initial_panels)
    return integrate(f, 0.0, 1.0, breakpoints=breakpoints,
                     initial_panels=initial_panels)


def _checked(value_err, what: str) -> float:
    value, err = value_err
    if err > ERROR_BOUND:
        raise QuadratureError(f"{what} integral exceeded the error budget", err)
    return value


def distortion_at_theta(density, theta: float, *,
                        graded: bool = True) -> float:
    """integral of min{theta, density} over (0, 1]; lies in (0, theta]."""
    if not theta > 0:
        raise ValueError("theta must be > 0")
    if theta <= density.floor:
        # the water level sits below the whole density, min saturates at theta
        return float(theta)
    f = lambda phi: np.minimum(theta, density(phi))
    return _checked(integrate_unit(f, graded=graded,
                                   breakpoints=(density.crossing(theta),)),
                    "distortion")


def rate_at_theta(density, theta: float, *, graded: bool = True) -> float:
    """(1/2) integral of log2+[density / theta]; bits per sample."""
    if not theta > 0:
        raise ValueError("theta must be > 0")
    f = lambda phi: 0.5 * np.maximum(np.log2(density(phi) / theta), 0.0)
    return _checked(integrate_unit(f, graded=graded,
                                   breakpoints=(density.crossing(theta),)),
                    "rate")


def _walk_integral(theta: float, weight, what: str) -> float:
    """integral of min{theta, S} weight(S) / S over the unshifted density S."""
    def f(phi):
        s = SAMPLED_WIENER(phi)
        return np.minimum(theta, s) * weight(s) / s

    return _checked(integrate_unit(
        f, breakpoints=(SAMPLED_WIENER.crossing(theta),)), what)


def g_integral(theta: float) -> float:
    """integral of min{theta, S} / S over the unshifted density S."""
    return _walk_integral(theta, lambda s: 1.0, "g")


def ce_integral(theta: float) -> float:
    """integral of min{theta, S} (S - 1/6) / S over the unshifted density S."""
    return _walk_integral(theta, lambda s: s - 1.0 / 6.0, "ce")


# --------------------------------------------------- Monte-Carlo references

def loop_waterfill_theta(eigenvalues, rbar: float) -> float:
    """Water level over finitely many eigenvalues, one segment at a time."""
    lam = np.sort(np.asarray(eigenvalues, dtype=float))[::-1]
    n = len(lam)
    log_prefix = np.cumsum(np.log(lam))
    budget = 2.0 * n * rbar * math.log(2.0)
    for m in range(1, n + 1):
        theta = math.exp((log_prefix[m - 1] - budget) / m)
        if theta <= lam[m - 1] * (1 + 1e-12) and (m == n or theta >= lam[m]):
            return theta
    raise RuntimeError("no consistent waterfilling segment found")


def _lerp(nodes: np.ndarray, oversample: int) -> np.ndarray:
    n = len(nodes) - 1
    j = np.arange(n * oversample + 1)
    base = np.minimum(j // oversample, n - 1)
    frac = j / oversample - base
    return nodes[base] * (1.0 - frac) + nodes[base + 1] * frac


def _trapezoid_mean(values_sq: np.ndarray, dt: float, horizon: float) -> float:
    inner = values_sq[1:-1].sum()
    return float((0.5 * values_sq[0] + inner + 0.5 * values_sq[-1]) * dt / horizon)


def _trial(params: ProcessParams, config, trial: int):
    """(generator left after the path, fine path, samples) of one trial."""
    seq = np.random.SeedSequence(entropy=int(config.seed), spawn_key=(trial,))
    rng = np.random.Generator(np.random.Philox(seq))
    n = round(config.horizon_t * params.fs)
    os_ = config.oversample
    dt = params.ts / os_
    fine = np.concatenate(([0.0], np.cumsum(
        rng.standard_normal(n * os_) * math.sqrt(params.sigma2 * dt))))
    return rng, fine, fine[::os_].copy()


def dense_mmse_trials(params: ProcessParams, config) -> np.ndarray:
    """Per-trial squared interpolation error, one trial at a time.

    ``config.horizon_t * params.fs`` must be an integer.
    """
    out = np.empty(config.trials)
    horizon = config.horizon_t
    dt = params.ts / config.oversample
    for trial in range(config.trials):
        _, fine, samples = _trial(params, config, trial)
        err_sq = (fine - _lerp(samples, config.oversample)) ** 2
        out[trial] = _trapezoid_mean(err_sq, dt, horizon)
    return out


def dense_channel_trials(params: ProcessParams, config,
                         rbar: float) -> np.ndarray:
    """Per-trial test-channel distortion with the dense KL matrix.

    ``config.horizon_t * params.fs`` must be an integer.
    """
    n = round(config.horizon_t * params.fs)
    lam = discrete_wiener_eigensystem(params, n).eigenvalues
    vecs = sine_vectors(n)
    theta = loop_waterfill_theta(lam, rbar)
    active = lam > theta
    gain = np.where(active, 1.0 - theta / lam, 0.0)
    noise_sd = np.sqrt(np.where(active, theta * lam, 0.0)
                       / np.where(active, lam - theta, 1.0))
    out = np.empty(config.trials)
    dt = params.ts / config.oversample
    for trial in range(config.trials):
        rng, fine, samples = _trial(params, config, trial)
        coeffs = vecs @ (samples[1:] - samples[0])
        noisy = gain * (coeffs + noise_sd * rng.standard_normal(n))
        nodes = np.concatenate(([samples[0]], vecs.T @ noisy))
        err_sq = (fine - _lerp(nodes, config.oversample)) ** 2
        out[trial] = _trapezoid_mean(err_sq, dt, config.horizon_t)
    return out


def dense_grid_expectation(n: int, oversample: int, rbar: float) -> float:
    """Expected trapezoid sum over the fine grid of the squared test-channel
    error, in units of one fine step's variance: the bridge variance
    m (os - m)/os plus h^T K h for the explicit hat weights h of each fine
    point and the node-error covariance K = V^T diag(min{theta, lambda}) V
    of the samples' covariance os * min{i, j} (e_0 = 0)."""
    lam = discrete_wiener_eigensystem(ProcessParams(float(oversample), 1.0),
                                      n).eigenvalues
    vecs = sine_vectors(n)
    d = np.minimum(loop_waterfill_theta(lam, rbar), lam)
    cov = np.zeros((n + 1, n + 1))
    cov[1:, 1:] = vecs.T @ (d[:, None] * vecs)
    j = np.arange(n * oversample + 1)
    base = np.minimum(j // oversample, n - 1)
    m = j - base * oversample
    hats = np.zeros((len(j), n + 1))
    hats[j, base] = 1.0 - m / oversample
    hats[j, base + 1] = m / oversample
    weights = np.ones(len(j))
    weights[[0, -1]] = 0.5
    per_point = m * (oversample - m) / oversample \
        + np.einsum("jp,pq,jq->j", hats, cov, hats)
    return float(weights @ per_point)


def _interpolant_system(n: int, oversample: int, rbar: float):
    """(L, hats, weights, eigenvalues, U, theta) of estimate, then compress,
    in units of one fine step's variance: L the Cholesky factor of the
    samples' covariance os * min{i, j}, i, j = 1..n; the hat of each sample
    (a column) at each fine point j = 0..n os (a row), the pinned start's
    left out; the trapezoid weights; A = L^T H^T diag(w) H L = U diag(eig)
    U^T, decreasing, the interpolant's KL eigensystem on the fine grid; and
    theta, ``mc.finite_waterfill_theta`` over those eigenvalues."""
    i = np.arange(1, n + 1)
    chol = np.linalg.cholesky(oversample * np.minimum.outer(i, i).astype(float))
    j = np.arange(n * oversample + 1)[:, None]
    hats = np.maximum(1.0 - np.abs(j - i * oversample) / oversample, 0.0)
    weights = np.ones(len(hats))
    weights[[0, -1]] = 0.5
    hc = hats @ chol
    lam, vecs = np.linalg.eigh(hc.T @ (weights[:, None] * hc))
    lam, vecs = lam[::-1], vecs[:, ::-1]
    return chol, hats, weights, lam, vecs, mc.finite_waterfill_theta(lam, rbar)


def dense_dopt_expectation(n: int, oversample: int, rbar: float) -> float:
    """Expected per-trial value of ``dense_dopt_trials``: the bridge's
    n (os**2 - 1)/6 plus sum min{theta, lambda_k}, as the bridge is
    independent of the samples and of the channel's noise."""
    *_, lam, _, theta = _interpolant_system(n, oversample, rbar)
    return n * (oversample ** 2 - 1) / 6.0 + float(np.minimum(theta, lam).sum())


def dense_dopt_trials(n: int, oversample: int, rbar: float, trials: int,
                      seed: int) -> np.ndarray:
    """Per-trial trapezoid sums over the fine grid of the squared path error
    of estimate, then compress, in units of one fine step's variance.

    The interpolant's KL coefficients a = sqrt(lambda) U^T L^-1 W of the
    samples W pass through the test channel as in ``mc_test_channel_run``;
    the samples are rebuilt as L U diag(lambda)**-1/2 a_hat and interpolated.
    """
    chol, hats, weights, lam, vecs, theta = _interpolant_system(n, oversample,
                                                                rbar)
    rng = np.random.default_rng(seed)
    fine = np.zeros((trials, n * oversample + 1))
    np.cumsum(rng.standard_normal((trials, n * oversample)), axis=1,
              out=fine[:, 1:])
    root = np.sqrt(lam)
    coeffs = root * (np.linalg.solve(chol, fine[:, oversample::oversample].T).T
                     @ vecs)
    gain = np.maximum(1.0 - theta / lam, 0.0)   # 0: a drowned coefficient
    noise_sd = np.sqrt(theta / np.where(gain > 0, gain, np.inf))
    sent = gain * (coeffs + noise_sd * rng.standard_normal((trials, n)))
    errors = fine - (sent / root) @ vecs.T @ chol.T @ hats.T
    return errors ** 2 @ weights


# ------------------------------------------ dense eigenvectors and nodes

def sine_vectors(n: int) -> np.ndarray:
    """Unit-norm eigenvectors of min{i, j}, i, j = 1..n, as rows: entry
    [k-1, m-1], 2 sin((2k-1) pi m / (2n+1)) / sqrt(2n+1), pairs eigenvalue k
    of ``discrete_wiener_eigensystem`` with sample m.  Every sine row has
    squared norm (2n+1)/4, so one factor normalizes all modes."""
    k = np.arange(1, n + 1)   # also the sample index m = 1..n
    vecs = np.sin(np.outer((2 * k - 1) * np.pi / (2 * n + 1), k))
    vecs *= 2.0 / np.sqrt(2 * n + 1)
    return vecs


def interp_node_values(n: int, ts: float) -> np.ndarray:
    """Node values of the interpolator kernel's eigenfunctions on [0, n ts],
    a row per mode k = 1..n at the samples t = m ts, m = 0..n: sin((2k-1) pi
    m / (2n)), normalized to unit L2 norm.  With x_k = (2k-1) pi / (2n), the
    squared norm (ts/3) sum(a^2 + ab + b^2) over the intervals' end values
    a, b sums in closed form to ts n (2 + cos x_k) / 6; the rows are
    normalized at ts = 1 and then scaled by 1/sqrt(ts), as ts n may pass the
    floats."""
    x = (2 * np.arange(1, n + 1) - 1) * np.pi / (2.0 * n)
    nodes = np.sin(np.outer(x, np.arange(n + 1)))
    scale = 1.0 / np.sqrt((n / 6.0) * (2.0 + np.cos(x)))   # 1 / norm at ts = 1
    nodes *= (scale / np.sqrt(ts))[:, None]
    return nodes


def interp_eigenfunction(nodes: np.ndarray, ts: float, t):
    """The piecewise-linear eigenfunction of one row of
    ``interp_node_values`` at the time(s) t in [0, n ts]."""
    return np.interp(np.asarray(t, dtype=float) / ts, np.arange(len(nodes)),
                     nodes)


# ------------------------------- pointwise kernel and Fredholm residual

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


def kernel_action(params: ProcessParams, grid_points: int, t: np.ndarray,
                  f: np.ndarray) -> np.ndarray:
    """sum_j K(t_i, t_j) f_j of the interpolator kernel on the uniform grid
    t with ``grid_points`` nodes per sampling interval, in O(N).

    The Wiener part splits at t_i, sum_j min(t_i, t_j) f_j =
    sum_{j<=i} t_j f_j + t_i sum_{j>i} f_j.  The bridge term couples only
    points of one interval [lo, hi), where it is
    (sigma2/ts) [(hi - t_i) sum_{j<=i} (t_j - lo) f_j
    + (t_i - lo) sum_{j>i} (hi - t_j) f_j]; the last node is alone in its
    interval and has none.
    """
    out = params.sigma2 * (np.cumsum(t * f) + t * (f.sum() - np.cumsum(f)))
    n = (len(t) - 1) // grid_points
    tt = t[:-1].reshape(n, grid_points)
    ff = f[:-1].reshape(n, grid_points)
    lo = params.ts * np.arange(n)[:, None]
    hi = lo + params.ts
    rising = np.cumsum((tt - lo) * ff, axis=1)
    falling = (hi - tt) * ff
    after = np.cumsum(falling[:, ::-1], axis=1)[:, ::-1] - falling
    out[:-1] -= (params.sigma2 / params.ts) * (
        (hi - tt) * rising + (tt - lo) * after).ravel()
    return out


def blocked_kernel_action(params: ProcessParams, t: np.ndarray,
                          f: np.ndarray) -> np.ndarray:
    """The same sum as ``kernel_action``, as blocks of the pointwise kernel
    ``interp_covariance`` times f; O(N**2), the cross-check at small N."""
    out = np.empty(len(t))
    chunk = max(1, 2_000_000 // len(t))
    for lo in range(0, len(t), chunk):
        out[lo:lo + chunk] = interp_covariance(params, t[lo:lo + chunk], t) @ f
    return out


def fredholm_residual(system, params: ProcessParams, k: int,
                      grid_points: int) -> float:
    """Sup-norm residual of the eigen-equation under trapezoid quadrature.

    Evaluates lam_k * phi_k(t) - integral K(t, s) phi_k(s) ds on a grid with
    ``grid_points`` nodes per sampling interval, for the eigenvalues of an
    interpolator-kernel ``system`` and the eigenfunctions of
    ``interp_node_values``; shrinks as the grid is refined, so it doubles as
    a convergence diagnostic for the closed-form eigensystem.
    """
    n, ts = len(system.eigenvalues), params.ts
    if not 1 <= k <= n:
        raise ValueError(f"k must be in 1..{n}")
    if grid_points < 50:
        raise ValueError("grid_points must be >= 50 per sampling interval")
    total = n * grid_points + 1
    dt = ts / grid_points
    t = np.arange(total) * dt
    phi = interp_eigenfunction(interp_node_values(n, ts)[k - 1], ts, t)
    w = np.full(total, dt)
    w[0] = w[-1] = 0.5 * dt
    resid = system.eigenvalues[k - 1] * phi \
        - kernel_action(params, grid_points, t, w * phi)
    return float(np.max(np.abs(resid)))


def argparse_parser() -> argparse.ArgumentParser:
    """The argument parser that ``wienerdr.cli`` was built on: ``cli._parse``
    must accept, refuse and fill in defaults as it does."""
    parser = argparse.ArgumentParser(
        prog="wienerdr",
        description="Distortion-rate curves of the uniformly sampled Wiener process")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--sigma2", type=float, default=1.0)
        p.add_argument("--fs", type=float, default=1.0)
        p.add_argument("--out", required=True)

    p_curve = sub.add_parser("curve", help="sweep the distortion curves")
    common(p_curve)
    p_curve.add_argument("--rate", type=float, default=None,
                         help="fix R and sweep fs (omit to sweep R at fixed --fs)")
    p_curve.add_argument("--min", type=float, required=True)
    p_curve.add_argument("--max", type=float, required=True)
    p_curve.add_argument("--points", type=int, required=True)
    p_curve.add_argument("--log", action="store_true")
    p_curve.add_argument("--normalized", action="store_true",
                         help="report distortions in units of sigma2/fs")
    p_curve.set_defaults(func=_cmd_curve)

    p_ratio = sub.add_parser("ratio", help="sweep the excess-distortion ratios")
    p_ratio.add_argument("--min", type=float, required=True)
    p_ratio.add_argument("--max", type=float, required=True)
    p_ratio.add_argument("--points", type=int, required=True)
    p_ratio.add_argument("--log", action="store_true")
    p_ratio.add_argument("--out", required=True)
    p_ratio.set_defaults(func=_cmd_ratio)

    p_eigen = sub.add_parser("eigen", help="tabulate an eigenvalue staircase")
    common(p_eigen)
    p_eigen.add_argument("--kind", choices=["discrete", "interp"], required=True)
    p_eigen.add_argument("--n", type=int, required=True)
    p_eigen.set_defaults(func=_cmd_eigen)

    p_sim = sub.add_parser("simulate", help="run a Monte-Carlo experiment")
    common(p_sim)
    p_sim.add_argument("--scheme", choices=["mmse-only", "test-channel"],
                       required=True)
    p_sim.add_argument("--horizon", type=float, required=True)
    p_sim.add_argument("--oversample", type=int, default=32)
    p_sim.add_argument("--trials", type=int, required=True)
    p_sim.add_argument("--seed", type=int, required=True)
    p_sim.add_argument("--rbar", type=float, default=None)
    p_sim.set_defaults(func=_cmd_simulate)
    return parser
