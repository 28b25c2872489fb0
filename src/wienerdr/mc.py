"""Monte-Carlo and semi-analytic validation of the distortion curves.

Paths are simulated from independent Gaussian increments on a fine grid of
``oversample`` points per sampling interval, interval by interval: a
chunk's increments fill a (trial, interval, fine step) array, and one
running sum along its last axis turns them into each interval's bridge B
(the path less its chord between two samples, 0 at both).  The error of
an interpolant of node values W - e is B plus the interpolant of e, so
its trapezoid time average splits per interval into sums of B**2, of B
times the ramps 1 - u and u, and fixed trapezoid sums of the ramps'
products times the node errors; no fine path is built for a run.

Reproducibility contract: the generator for trial k is
``Philox(SeedSequence(entropy=seed, spawn_key=(k,)))`` and each trial
consumes only its own stream, so any partitioning of the trial range
reproduces the sequential results bit for bit (statistics are always
reduced in trial order).  Runs fill chunks of trials row by row from
those streams and then work on whole chunks; every step acts on each row
alone, so the chunking leaves each trial's value unchanged to the bit.
The Philox keys of a chunk's trials are derived in one vectorized pass of
NumPy's documented SeedSequence mixing (pinned against ``SeedSequence`` by
the tests), and one bit generator per run is re-keyed before each row
instead of being built per trial.  A spawn key of one 32-bit word covers
trials 0 .. 2**32 - 1, so runs are capped at 2**32 trials.

Large runs use every CPU the process may run on: the trial range is cut
into ``max(1, min(CPUs, trials, trials * n * oversample // 2**18))``
contiguous parts (``_workers``), so a run under 2**19 path increments
stays in one process.  This process computes the first part; every other
part is computed by a forked child with the trial streams it inherited and
comes back through a pipe as float64 bytes.  By the contract above, the
results do not depend on the split, bit for bit.  A part whose child
fails is recomputed here, so errors and exit codes are those of one
process; no fork, no CPU affinity call, a caller off the main thread or
other live threads mean one process, and no child outlives its run.

The compress-and-estimate experiment replaces the random-codebook encoder
with the Gaussian test channel attaining the same per-coefficient error
second moments min{theta, lambda_k}; all error-moment quantities entering
the interpolation-error bounds are therefore preserved exactly, without the
exponential codebook search.  ``ce_moment_oracle`` evaluates those moments
in closed form (no sampling noise) and is the semi-analytic reference the
Monte-Carlo run is judged against.

The Karhunen-Loeve transform of the walk and its inverse are sine sums of
period M = 2n+1, each read off one real FFT of length M (O(n log n), no
n x n matrix); the oracle's moments are cosine sums of min{theta, lambda},
read off one real FFT of length M as well.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass
from typing import BinaryIO, Callable, Iterator, Optional, Tuple

import numpy as np

from .spectral import ProcessParams, discrete_wiener_eigenvalues

__all__ = [
    "SimConfig",
    "ErrorMoments",
    "MomentEstimate",
    "CeEstimate",
    "effective_grid",
    "empirical_mmse",
    "lemma_bounds",
    "finite_waterfill_theta",
    "ce_moment_oracle",
    "ce_distortion_estimate",
    "mc_test_channel_run",
]


@dataclass(frozen=True)
class SimConfig:
    """Horizon, oversampling factor, trial count and seed for one experiment.

    ``oversample`` is the number of fine-grid points per sampling interval;
    values >= 8 keep the grid bias of bridge statistics below 2%, while 1 is
    allowed (the interpolant then coincides with the path on the grid).
    """

    horizon_t: float
    oversample: int
    trials: int
    seed: int

    def __post_init__(self):
        if not (self.horizon_t > 0 and math.isfinite(self.horizon_t)):
            raise ValueError("horizon_t must be positive and finite")
        for name in ("oversample", "trials", "seed"):
            try:
                int(getattr(self, name))
            except (OverflowError, ValueError):   # inf or nan
                raise ValueError(f"{name} must be a finite integer,"
                                 f" got {getattr(self, name)}") from None
        if int(self.oversample) != self.oversample or self.oversample < 1:
            raise ValueError("oversample must be an integer >= 1")
        if int(self.trials) != self.trials or self.trials < 1:
            raise ValueError("trials must be an integer >= 1")
        if self.trials > 2 ** 32:   # spawn keys of one 32-bit word
            raise ValueError("trials must be <= 2**32")
        if int(self.seed) != self.seed or not 0 <= int(self.seed) < 2 ** 64:
            raise ValueError("seed must be an integer that fits in 64 bits")


@dataclass(frozen=True)
class ErrorMoments:
    """Second moments of sample reconstruction errors within one block.

    ``second[m-1] = E D_m^2`` for m = 1..N and
    ``cross[m-1] = E D_m D_{m+1}`` for m = 1..N-1, where D_m is the error of
    sample m.  Index 0 (the pinned start) and the cross moment across block
    boundaries are identically zero and are not stored; the error of the
    first sample past the block reuses the distribution of D_1 (blocks are
    re-zeroed and coded independently).
    """

    second: np.ndarray
    cross: np.ndarray

    def __post_init__(self):
        s = np.asarray(self.second, dtype=float)
        c = np.asarray(self.cross, dtype=float)
        if s.ndim != 1 or c.ndim != 1 or len(c) != len(s) - 1:
            raise ValueError("need N second moments and N-1 cross moments")
        if np.any(s < 0):
            raise ValueError("second moments must be non-negative")
        bound = np.sqrt(s[:-1] * s[1:]) * (1 + 1e-9) + 1e-300
        if np.any(np.abs(c) > bound):
            raise ValueError("cross moments violate Cauchy-Schwarz")

    def __len__(self) -> int:
        return len(self.second)


@dataclass(frozen=True)
class MomentEstimate:
    """Monte-Carlo estimate with its standard error and analytic reference."""

    estimate: float
    stderr: float
    reference: float
    bias: float
    per_trial: np.ndarray

    @property
    def z_score(self) -> float:
        """(estimate - reference) / stderr, and 0 when the two agree
        exactly, as without oversampling, where all three are 0."""
        diff = self.estimate - self.reference
        if diff != 0 and self.stderr == 0:
            raise FloatingPointError("nonzero difference over a zero stderr")
        return 0.0 if diff == 0 else diff / self.stderr


@dataclass(frozen=True)
class CeEstimate:
    """Midpoint of the interpolation-error bounds fed by the moment oracle."""

    estimate: float
    lower: float
    upper: float

    @property
    def gap(self) -> float:
        return self.upper - self.lower


def effective_grid(params: ProcessParams, config: SimConfig) -> Tuple[int, float]:
    """(number of sampling intervals, effective horizon).

    The horizon is rounded up so that horizon * fs is a positive integer;
    the effective value is reported back instead of being silently absorbed.
    """
    raw = config.horizon_t * params.fs
    nearest = round(raw)
    n = max(1, nearest if abs(raw - nearest) < 1e-9 else math.ceil(raw))
    return int(n), n / params.fs


#: constants of NumPy's SeedSequence (numpy/random/bit_generator.pyx), whose
#: mixing NumPy keeps stream-stable
_POOL_SIZE = 4
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


def _seed_pool(seed: int) -> Tuple[Tuple[int, ...], int]:
    """(entropy pool, hash constant) of SeedSequence after the seed's words.

    A spawned SeedSequence pads the seed's 32-bit words (at most two below
    2**64) with zeros to the pool size, mixes them into the pool and then
    mixes in the spawn word; everything before the spawn word depends on
    the seed alone.
    """
    hash_const = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = (hash_const * _MULT_A) & _MASK32
        value = (value * hash_const) & _MASK32
        return value ^ (value >> 16)

    pool = [hashmix((int(seed) >> (32 * i)) & _MASK32)
            for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                mixed = (_MIX_MULT_L * pool[dst]
                         - _MIX_MULT_R * hashmix(pool[src])) & _MASK32
                pool[dst] = mixed ^ (mixed >> 16)
    return tuple(pool), hash_const


def _hash_steps(hash_const: int, mult: int) -> Tuple[np.ndarray, np.ndarray]:
    """(xor, multiplier) constants of the next _POOL_SIZE hash steps, as
    uint64 columns: each step xors with the constant, advances it by
    ``mult`` and multiplies by the advanced value."""
    consts = [hash_const]
    for _ in range(_POOL_SIZE):
        consts.append((consts[-1] * mult) & _MASK32)
    column = np.array(consts, dtype=np.uint64)[:, None]
    return column[:-1], column[1:]


def _spawn_keys(seed_pool: Tuple[Tuple[int, ...], int],
                trials: range) -> np.ndarray:
    """Philox keys of ``trials`` from the seed's pool, one row per trial.

    Mixes each spawn word k into the pool and hashes the pool into four
    output words, as ``generate_state(2, np.uint64)`` does.  The uint32
    arithmetic is carried in a (pool word, k) uint64 array and masked after
    each product, which stays below 2**64.
    """
    pool, hash_const = seed_pool
    mask, shift = np.uint64(_MASK32), np.uint64(16)
    k = np.arange(trials.start, trials.stop, dtype=np.uint64)
    xor, mul = _hash_steps(hash_const, _MULT_A)
    h = (k ^ xor) * mul
    h &= mask
    h ^= h >> shift
    scaled_pool = [(_MIX_MULT_L * word) & _MASK32 for word in pool]
    words = np.array(scaled_pool, dtype=np.uint64)[:, None] \
        - np.uint64(_MIX_MULT_R) * h
    words &= mask
    words ^= words >> shift
    xor, mul = _hash_steps(_INIT_B, _MULT_B)
    words ^= xor
    words *= mul
    words &= mask
    words ^= words >> shift
    return (words[0::2] | (words[1::2] << np.uint64(32))).T


class _TrialStreams:
    """Trial streams of one run from a single Philox bit generator.

    Before each trial the generator is re-keyed with that trial's key and
    the rest of a fresh generator's state (counter 0, empty buffer, no
    cached half-word), which is exactly the state of
    ``Philox(SeedSequence(entropy=seed, spawn_key=(k,)))``.  The state's
    words are plain lists, which the state setter reads faster than uint64
    arrays.
    """

    def __init__(self, seed: int):
        self._pool = _seed_pool(seed)
        self._bitgen = np.random.Philox(0)   # any key: replaced before use
        fresh = self._bitgen.state
        fresh["state"] = {name: words.tolist()
                          for name, words in fresh["state"].items()}
        fresh["buffer"] = fresh["buffer"].tolist()
        self._fresh = fresh
        self._rng = np.random.Generator(self._bitgen)

    def each(self, trials: range) -> Iterator[np.random.Generator]:
        """Yield the generator keyed to each trial of ``trials`` in turn."""
        state = self._fresh
        for key in _spawn_keys(self._pool, trials).tolist():
            state["state"]["key"] = key
            self._bitgen.state = state
            yield self._rng


#: float64 elements per row chunk (1 MiB per array), which bounds the
#: working set of a run whatever its trial count
_CHUNK_ELEMENTS = 1 << 17


def _chunk_rows(n: int, oversample: int) -> int:
    """Trials per chunk: per row, the (n, oversample) increments, turned in
    place into the intervals' bridges, and the length-(2n+1) FFT input."""
    return max(1, _CHUNK_ELEMENTS // (n * (oversample + 2) + 1))


#: path increments per worker: a run forks one more process for each
#: 2**18 increments, so one under 2**19 increments never forks
_WORKER_INCREMENTS = 1 << 18

#: SIGKILL, 9 on every POSIX system (spares importing ``signal``)
_SIGKILL = 9


def _workers(trials: int, increments: int) -> int:
    """Processes for a run of ``trials`` rows of ``increments`` path
    increments each: at most one per CPU, one per trial and one per 2**18
    increments, and one alone where fork is missing or another thread is
    alive (a caller off the main thread makes two)."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")) \
            or threading.active_count() > 1:
        return 1
    return max(1, min(len(os.sched_getaffinity(0)), trials,
                      trials * increments // _WORKER_INCREMENTS))


def _fork(values: Callable[[range], np.ndarray],
          part: range) -> Optional[Tuple[int, BinaryIO]]:
    """(pid, pipe) of a forked child that writes ``values(part)`` to the
    pipe as float64 bytes and exits, or None when fork fails.  The child
    never returns, and a child that fails exits 1 without a word."""
    read, write = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read)
        os.close(write)
        return None
    if pid == 0:
        code = 1
        try:
            os.close(read)
            with open(write, "wb") as pipe:
                pipe.write(values(part).tobytes())
            code = 0
        finally:
            os._exit(code)
    os.close(write)
    return pid, open(read, "rb")


def _run(n: int, config: SimConfig,
         rows: Callable[[range, _TrialStreams], np.ndarray]) -> np.ndarray:
    """Per-trial values of a run of ``n`` intervals per trial,
    ``rows(chunk, streams)`` giving those of one chunk of trials from the
    run's one set of trial streams.

    The trial range is cut into ``_workers`` contiguous parts: the first is
    computed here and every other one by a forked child.  A part whose
    child fails, dies or sends a short result is computed here after the
    others, so the values and any error are those of one process.  On any
    exception the children still running are killed and reaped.
    """
    size = _chunk_rows(n, config.oversample)
    streams = _TrialStreams(config.seed)

    def values(part: range) -> np.ndarray:
        out = np.empty(len(part))
        for lo in range(part.start, part.stop, size):
            chunk = range(lo, min(lo + size, part.stop))
            out[lo - part.start:chunk.stop - part.start] = rows(chunk, streams)
        return out

    trials = config.trials
    workers = _workers(trials, n * config.oversample)
    cuts = [trials * i // workers for i in range(workers + 1)]
    parts = [range(lo, hi) for lo, hi in zip(cuts, cuts[1:])]
    per_trial = np.empty(trials)
    children = []   # (part, pid, pipe) of each child not yet reaped
    try:
        local = parts[:1]
        for part in parts[1:]:
            child = _fork(values, part)
            if child is None:
                local.append(part)
            else:
                children.append((part, *child))
        for part in local:
            per_trial[part.start:part.stop] = values(part)
        while children:
            part, pid, pipe = children[0]
            with pipe:
                data = pipe.read()
            _, status = os.waitpid(pid, 0)
            children.pop(0)
            if status == 0 and len(data) == 8 * len(part):
                per_trial[part.start:part.stop] = np.frombuffer(data)
            else:
                per_trial[part.start:part.stop] = values(part)
    finally:
        for _, pid, pipe in children:
            pipe.close()
            try:
                os.kill(pid, _SIGKILL)
                os.waitpid(pid, 0)
            except (ProcessLookupError, ChildProcessError):   # reaped
                pass
    return per_trial


def _split(steps: np.ndarray) -> np.ndarray:
    """Turn each interval's increments (last axis) into its bridge in place
    and return the interval's rise.

    The bridge at u = m/os, m = 1..os, is the path less its chord
    W_i + u rise: the running sum of the increments less their mean, so no
    difference of two path values enters it.  Its entry at m = os is 0 up
    to rounding and is never read.
    """
    rise = np.einsum("...m->...", steps)
    steps -= rise[..., None] / steps.shape[-1]
    # a running sum by whole slices (np.cumsum pays a call per interval)
    for m in range(1, steps.shape[-1]):
        steps[..., m] += steps[..., m - 1]
    return rise


def _intervals(params: ProcessParams, config: SimConfig, trials: range,
               streams: _TrialStreams, noise_len: int = 0
               ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(bridge, rise, noise) of ``trials``, one row each: ``_split`` of the
    scaled increments, shaped (trial, interval, fine step), and the channel
    noise.  Row r draws from trial ``trials[r]``'s own stream: the path
    increments first, interval by interval, then ``noise_len`` noise values.
    """
    n, _ = effective_grid(params, config)
    dt = params.ts / config.oversample
    steps = np.empty((len(trials), n, config.oversample))
    noise = np.empty((len(trials), noise_len))
    for row, rng in enumerate(streams.each(trials)):
        rng.standard_normal(out=steps[row])
        if noise_len:
            rng.standard_normal(out=noise[row])
    steps *= math.sqrt(params.sigma2 * dt)
    return steps, _split(steps), noise


def _interval_error(bridge: np.ndarray,
                    errors: Optional[np.ndarray] = None) -> np.ndarray:
    """Trapezoid sum over the fine grid of (path - interpolant of the nodes
    W - ``errors``)**2, one value per row.

    In interval i the error is B + (1 - u) e_i + u e_i+1 for the bridge B
    and node errors e (e_0 = 0; none means 0).  B is 0 at both nodes, so
    the sum is sum B**2 + 2 (e_i sum (1 - u) B + e_i+1 sum u B) + a (e_i**2
    + e_i+1**2) + 2 b e_i e_i+1, B over the interior points, with a and b
    the trapezoid sums over m = 0..os of (1 - u)**2 (or u**2) and u (1 - u).
    """
    os_ = bridge.shape[-1]
    inner = bridge[..., :-1]
    total = np.einsum("...im,...im->...", inner, inner)
    if errors is None:
        return total
    a = (2 * os_ * os_ + 1) / (6.0 * os_)
    b = (os_ * os_ - 1) / (6.0 * os_)
    u = np.arange(1, os_) / os_
    left, right = errors[..., :-1], errors[..., 1:]
    down = np.einsum("...m,m->...", inner, 1.0 - u)   # sum (1 - u) B
    up = np.einsum("...m,m->...", inner, u)           # sum u B
    row = "...i,...i->..."
    return total \
        + 2.0 * (np.einsum(row, left, down) + np.einsum(row, right, up)) \
        + a * (np.einsum(row, left, left) + np.einsum(row, right, right)) \
        + (2.0 * b) * np.einsum(row, left, right)


def _estimate(per_trial: np.ndarray, reference: float,
              bias: float) -> MomentEstimate:
    trials = len(per_trial)
    se = float(per_trial.std(ddof=1) / math.sqrt(trials)) \
        if trials > 1 else float("nan")
    return MomentEstimate(estimate=float(per_trial.mean()), stderr=se,
                          reference=reference, bias=bias, per_trial=per_trial)


def empirical_mmse(params: ProcessParams, config: SimConfig) -> MomentEstimate:
    """Trial-and-time average of the squared interpolation error.

    On the discrete grid the exact expectation is
    sigma2/(6 fs) * (1 - 1/oversample**2); the missing part is reported as
    ``bias`` instead of being silently absorbed, and ``reference`` is the
    biased (grid-exact) value.
    """
    n, horizon = effective_grid(params, config)
    os_ = config.oversample
    dt = params.ts / os_

    def rows(trials: range, streams: _TrialStreams) -> np.ndarray:
        bridge, _, _ = _intervals(params, config, trials, streams)
        return _interval_error(bridge) * dt / horizon

    per_trial = _run(n, config, rows)
    floor = params.sigma2 / (6.0 * params.fs)
    os_sq = os_ ** 2
    return _estimate(per_trial, reference=floor * (1.0 - 1.0 / os_sq),
                     bias=floor / os_sq)


def lemma_bounds(moments: ErrorMoments, params: ProcessParams) -> Tuple[float, float]:
    """Bounds on the path MSE implied by the sample error moments.

    lower = mmse + (2/3) mean_{n<N} E D_n^2 + (1/3) mean E D_n D_{n+1}
    and the matching (N+1)-normalized upper bound; the block-extension terms
    follow the ErrorMoments convention (zero boundary cross moment, first-
    sample second moment reused past the block).
    """
    s = moments.second
    c = moments.cross
    n = len(s)
    if n < 2:
        raise ValueError("need moments over at least 2 indices")
    mmse = params.sigma2 / (6.0 * params.fs)
    lower = mmse + (2.0 / 3.0) * s[:-1].sum() / n + (1.0 / 3.0) * c.sum() / n
    upper = (mmse + (2.0 / 3.0) * (s.sum() + s[0]) / (n + 1)
             + c.sum() / (3.0 * (n + 1)))
    return float(lower), float(upper)


def finite_waterfill_theta(eigenvalues: np.ndarray, rbar: float) -> float:
    """Water level over finitely many eigenvalues at rbar bits per sample.

    Solves mean_k (1/2) log2+(lambda_k / theta) = rbar exactly: on the
    segment where the m largest modes are active the level is the geometric
    mean of those eigenvalues scaled by 2**(-2 n rbar / m).  All n candidate
    levels come from one cumulative sum; the first consistent one is taken.
    """
    lam = np.asarray(eigenvalues, dtype=float)
    if np.any(lam <= 0):
        raise ValueError("eigenvalues must be positive")
    lam = np.sort(lam)[::-1]
    if not rbar > 0:
        raise ValueError("rbar must be > 0")
    n = len(lam)
    budget = 2.0 * n * rbar * math.log(2.0)
    theta = np.exp((np.cumsum(np.log(lam)) - budget) / np.arange(1, n + 1))
    consistent = theta <= lam * (1 + 1e-12)
    consistent[:-1] &= theta[:-1] >= lam[1:]
    first = np.flatnonzero(consistent)
    if first.size == 0:
        raise RuntimeError("no consistent waterfilling segment found")
    return float(theta[first[0]])


def _kl_forward(block: np.ndarray) -> np.ndarray:
    """KL coefficients V x of blocks x (last axis, length n) of the walk.

    V[k-1, m-1] = 2 sin((2k-1) pi m / M) / sqrt(M), M = 2n+1.  As
    sin(pi (2k-1) m / M) = (-1)**m sin(2 pi (n+k) m / M) and bin n+k of a
    real FFT of length M is the conjugate of bin n+1-k, V x is 2/sqrt(M)
    times the imaginary part of bins n..1 of the FFT of (-1)**m x_m in
    slots 1..n.
    """
    n = block.shape[-1]
    ext = np.zeros(block.shape[:-1] + (2 * n + 1,))
    np.multiply(block, (-1.0) ** np.arange(1, n + 1), out=ext[..., 1:n + 1])
    return np.fft.rfft(ext)[..., n:0:-1].imag * (2.0 / np.sqrt(2 * n + 1))


def _kl_inverse(coeffs: np.ndarray) -> np.ndarray:
    """Samples V^T y of KL coefficients y (last axis, length n): by the
    identities of ``_kl_forward``, (-1)**m 2/sqrt(M) times the imaginary
    part of bin m of the FFT of y reversed in slots n..1."""
    n = coeffs.shape[-1]
    ext = np.zeros(coeffs.shape[:-1] + (2 * n + 1,))
    ext[..., 1:n + 1] = coeffs[..., ::-1]
    signs = (-1.0) ** np.arange(1, n + 1) * (2.0 / np.sqrt(2 * n + 1))
    return np.fft.rfft(ext)[..., 1:].imag * signs


def _oracle_moments(lam: np.ndarray, theta: float) -> ErrorMoments:
    """Diagonal and first off-diagonal of V^T diag(min{theta, lam}) V.

    With d = min{theta, lam} and C_j = sum_k d_k cos(j (2k-1) pi / M),
    second[m] = (2/M) (sum d - C_2m) and cross[m] = (2/M) (C_1 - C_(2m+1)).
    As cos(pi (2k-1) j / M) = (-1)**j cos(2 pi (n+k) j / M), C_j =
    (-1)**j Re X[j] for j <= n, X the FFT of d reversed in slots n..1, and
    C_j = -C_(M-j) above n.
    """
    n = len(lam)
    d = np.minimum(theta, lam)
    slots = np.zeros(2 * n + 1)
    slots[1:n + 1] = d[::-1]
    low = np.fft.rfft(slots).real * (-1.0) ** np.arange(n + 1)
    c = np.concatenate((low, -low[:0:-1]))
    scale = 2.0 / (2 * n + 1)
    return ErrorMoments(second=scale * (d.sum() - c[2::2]),
                        cross=scale * (c[1] - c[3:2 * n:2]))


def ce_moment_oracle(params: ProcessParams, n: int, rbar: float) -> ErrorMoments:
    """Exact error moments of the per-coefficient test-channel distortions.

    With theta waterfilled over the n discrete eigenvalues, the error
    covariance of the reconstructed samples is U^T diag(min{theta, lam}) U,
    whose diagonal and first off-diagonal are returned.  No sampling noise;
    this is the semi-analytic reference for the compress-and-estimate limit.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    lam = discrete_wiener_eigenvalues(params, n)
    return _oracle_moments(lam, finite_waterfill_theta(lam, rbar))


def _midpoint(moments: ErrorMoments, params: ProcessParams) -> CeEstimate:
    lower, upper = lemma_bounds(moments, params)
    return CeEstimate(estimate=0.5 * (lower + upper), lower=lower, upper=upper)


def ce_distortion_estimate(params: ProcessParams, n: int, rbar: float) -> CeEstimate:
    """Midpoint of the moment-oracle bounds; converges to d_ce as n grows."""
    return _midpoint(ce_moment_oracle(params, n, rbar), params)


def mc_test_channel_run(params: ProcessParams, config: SimConfig,
                        rbar: float) -> MomentEstimate:
    """Monte-Carlo compress-and-estimate distortion via the Gaussian test channel.

    Per trial (one block of N_T samples, re-zeroed at its pinned start): KL
    transform the samples, pass each coefficient with lambda_k > theta
    through y_hat = (1 - theta/lambda)(y + z), z ~ N(0, theta lambda /
    (lambda - theta)) so that E (y - y_hat)^2 = min{theta, lambda} exactly,
    zero the drowned coefficients, inverse transform, interpolate linearly
    and average the squared path error on the fine grid.  ``reference`` is
    the moment-oracle midpoint at the same blocklength and water level.
    """
    n, horizon = effective_grid(params, config)
    if n < 2:
        raise ValueError("need horizon * fs > 1: 2 intervals per block")
    lam = discrete_wiener_eigenvalues(params, n)
    theta = finite_waterfill_theta(lam, rbar)
    active = lam > theta
    gain = np.where(active, 1.0 - theta / lam, 0.0)
    noise_sd = np.where(active,
                        np.sqrt(np.where(active, theta * lam, 0.0)
                                / np.where(active, lam - theta, 1.0)),
                        0.0)

    os_ = config.oversample
    dt = params.ts / os_

    def rows(trials: range, streams: _TrialStreams) -> np.ndarray:
        bridge, rise, noise = _intervals(params, config, trials, streams, n)
        samples = np.cumsum(rise, axis=1)
        recon = _kl_inverse(gain * (_kl_forward(samples) + noise_sd * noise))
        errors = np.zeros((len(trials), n + 1))   # e_0 = 0: the pinned start
        errors[:, 1:] = samples - recon
        return _interval_error(bridge, errors) * dt / horizon

    per_trial = _run(n, config, rows)
    reference = _midpoint(_oracle_moments(lam, theta), params).estimate
    return _estimate(per_trial, reference=reference,
                     bias=params.sigma2 / (6.0 * params.fs * os_ ** 2))
