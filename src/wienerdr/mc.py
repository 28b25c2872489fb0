"""Monte-Carlo and semi-analytic validation of the distortion curves.

A run works in units of one fine step's variance: it draws standard normal
increments on a grid of ``oversample`` points per sampling interval and
scales its statistics once by sigma2/fs (``spectral.unit``), last, so no
value overflows or underflows on the way to a result that a float can hold.
Interval by interval, a chunk's increments fill a (trial, interval, fine
step) array, and one running sum along its last axis turns them into each
interval's bridge B (the path less its chord between two samples, 0 at
both).  The error of an interpolant of node values W - e is B plus the
interpolant of e, so its trapezoid sum splits per interval into sums of
B**2, of B times the ramps 1 - u and u, and fixed ramp sums times the node
errors; no fine path is built.  The bridge is independent of the nodes, so
the run's expectation on the grid (``reference``) and in continuous time
(``reference + bias``) follow from the node errors' second moments alone.

Reproducibility contract: the generator for trial k is
``Philox(SeedSequence(entropy=seed, spawn_key=(k,)))`` and each trial
consumes only its own stream, so any partitioning of the trial range, into
chunks of rows (``_chunk_rows``) or into parts, reproduces the sequential
results bit for bit (statistics are always reduced in trial order).  The
keys take the seed's entropy pool from ``SeedSequence(seed)`` itself; only
the step that mixes in each spawn word is redone here, vectorized over the
trial range (``_spawn_keys``), since one SeedSequence per trial costs about
a hundred times as much.  A run of T trials of d standard normals (path
and noise draws) each has min(CPUs, T, T d // 2**18) parts (``_workers``);
parts 1.. go to a pool of workers (``_run``), each forked the first time a
run needs it, reused by later runs, killed on an error and reaped at exit,
and a part whose worker fails is computed here.  A spawn key of one 32-bit
word covers trials 0 .. 2**32 - 1, so runs are capped at 2**32 trials.

The compress-and-estimate experiment replaces the random-codebook encoder
with the Gaussian test channel attaining the same per-coefficient error
second moments min{theta, lambda_k}, without the exponential codebook
search.  ``ce_moment_oracle`` gives those moments in closed form; the
Karhunen-Loeve transform of the walk, its inverse and the oracle's cosine
sums are each read off one real FFT of length M = 2n+1, their period
(O(n log n), no n x n matrix).  It works at unit scale, as a run does.
"""

from __future__ import annotations

import atexit
import contextlib
import functools
import math
import os
import pickle
import sys
import threading
from dataclasses import dataclass
from typing import Callable, Iterator, List, Optional, Tuple

import numpy as np

from .spectral import (MAX_COUNT, ParameterError, ProcessParams, _ldexp,
                       check_count, check_normal, check_positive,
                       discrete_wiener_eigensystem, read_int, read_real, unit)

__all__ = [
    "SimConfig",
    "ErrorMoments",
    "MomentEstimate",
    "CeEstimate",
    "empirical_mmse",
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
    ``trials`` runs from 2, as a run reports a standard error, to 2**32.
    """

    horizon_t: float
    oversample: int
    trials: int
    seed: int

    def __post_init__(self):   # each kept as the value checked
        for name, read in zip(("horizon_t", "oversample", "trials", "seed"),
                              (check_positive, check_count, read_int, read_int)):
            object.__setattr__(self, name, read(name, getattr(self, name)))
        if self.trials < 2:
            raise ParameterError("trials", "must be >= 2: a standard error"
                                 " needs at least 2 trials")
        if check_count("trials", self.trials) > 2 ** 32:   # one spawn word
            raise ParameterError("trials", "must be <= 2**32")
        if not 0 <= self.seed < 2 ** 64:
            raise ParameterError("seed", "must fit in 64 bits")


@dataclass(frozen=True)
class ErrorMoments:
    """Second moments of the sample errors within one block, as
    ``ce_moment_oracle`` gives them: ``second[m-1] = E D_m^2`` for m = 1..N
    and ``cross[m-1] = E D_m D_{m+1}`` for m = 1..N-1, D_m the error of
    sample m (D_0, at the pinned start, is 0).  Each is a float64 array; a
    non-finite moment raises FloatingPointError naming its field."""

    second: np.ndarray
    cross: np.ndarray

    def __post_init__(self):   # kept as the float arrays checked
        for name in ("second", "cross"):
            value = read_real(name, getattr(self, name), True)
            if not np.isfinite(value).all():
                raise FloatingPointError(
                    f"{name} is past the floating-point range")
            object.__setattr__(self, name, value)


@dataclass(frozen=True)
class MomentEstimate:
    """Monte-Carlo estimate with its standard error, the grid-exact
    expectation (``reference``) and the continuous-time value less it
    (``bias``), each scaled by sigma2/fs after the run."""

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

    def __post_init__(self):
        check_normal(**vars(self))


def _interval_count(params: ProcessParams, config: SimConfig) -> int:
    """The number n of sampling intervals in a run: horizon_t fs rounded
    up, or rounded to nearest when it lies within 1e-9 of an integer, and
    at least 1.  An n past ``MAX_COUNT``, or a trial row of n
    (oversample + 2) floats past sys.maxsize bytes, is refused."""
    raw = config.horizon_t * params.fs
    if raw > MAX_COUNT or 8 * raw * (config.oversample + 2) > sys.maxsize:
        raise ParameterError(_row_field(params, config),
                             "is too long to allocate")
    nearest = round(raw)
    return max(1, nearest if abs(raw - nearest) < 1e-9 else math.ceil(raw))


def _row_field(params: ProcessParams, config: SimConfig) -> str:
    """The field that sized a trial row of horizon_t fs (oversample + 2)
    floats: ``oversample`` if it is the larger factor, else the larger of
    ``horizon_t`` and ``fs``."""
    if config.oversample > config.horizon_t * params.fs:
        return "oversample"
    return "horizon_t" if config.horizon_t >= params.fs else "fs"


#: constants of NumPy's SeedSequence (numpy/random/bit_generator.pyx), whose
#: mixing NumPy keeps stream-stable
_POOL_SIZE = 4
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
#: SeedSequence's hash constant after the 16 hashes (4 seed words in, 12
#: cross-mixes) that fill its pool from any seed below 2**128
_SEEDED_HASH = (_INIT_A * pow(_MULT_A, 16, 1 << 32)) & _MASK32


def _seed_pool(seed: int) -> Tuple[int, ...]:
    """Entropy pool of ``SeedSequence(seed)``, into which a spawned
    SeedSequence mixes its spawn word after the same seed words, so the
    pool and ``_SEEDED_HASH`` are all a trial key needs."""
    return tuple(np.random.SeedSequence(seed).pool.tolist())


def _hash_steps(hash_const: int, mult: int) -> Tuple[np.ndarray, np.ndarray]:
    """(xor, multiplier) constants of the next _POOL_SIZE hash steps, as
    uint32 columns: each step xors with the constant, advances it by
    ``mult`` and multiplies by the advanced value."""
    consts = [hash_const]
    for _ in range(_POOL_SIZE):
        consts.append((consts[-1] * mult) & _MASK32)
    column = np.array(consts, dtype=np.uint32)[:, None]
    return column[:-1], column[1:]


def _spawn_keys(pool: Tuple[int, ...], trials: range) -> np.ndarray:
    """Philox keys of ``trials`` from the seed's pool, one row per trial.

    Mixes each spawn word k into the pool and hashes the pool into four
    output words, as ``generate_state(2, np.uint64)`` does.  The arithmetic
    is carried in a (pool word, k) uint32 array, whose products wrap modulo
    2**32 as SeedSequence's do; only the final join widens to uint64.
    """
    k = np.arange(trials.start, trials.stop, dtype=np.uint32)
    xor, mul = _hash_steps(_SEEDED_HASH, _MULT_A)
    h = (k ^ xor) * mul
    h ^= h >> 16
    scaled_pool = [(_MIX_MULT_L * word) & _MASK32 for word in pool]
    words = np.array(scaled_pool, dtype=np.uint32)[:, None] \
        - np.uint32(_MIX_MULT_R) * h
    words ^= words >> 16
    xor, mul = _hash_steps(_INIT_B, _MULT_B)
    words ^= xor
    words *= mul
    words ^= words >> 16
    wide = words.astype(np.uint64)
    return (wide[0::2] | (wide[1::2] << 32)).T


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


#: standard normals per part: a run takes one part per 2**18 of its path and
#: noise draws, the first here and each other on a pool worker.  A warm pool
#: pays from about 2**16, but 2**18 stays: on a 2-CPU host whose other CPU
#: spins a BLAS thread beside each op (the kl benchmark's threaded probe),
#: 2**16 lost kl rows per second in 5 of 5 pairs; without it, won in 5 of 5
_WORKER_INCREMENTS = 1 << 18

#: SIGKILL, 9 on every POSIX system (spares importing ``signal``)
_SIGKILL = 9


def _workers(trials: int, draws: int) -> int:
    """Processes for a run of ``trials`` rows of ``draws`` standard normals
    each: at most one per CPU, one per trial and one per 2**18 draws, and
    one alone where fork is missing or another thread is alive (a caller
    off the main thread makes two)."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")) \
            or threading.active_count() > 1:
        return 1
    return max(1, min(len(os.sched_getaffinity(0)), trials,
                      trials * draws // _WORKER_INCREMENTS))


def _values(rows: Callable[[range, _TrialStreams], np.ndarray],
            streams: _TrialStreams, size: int, part: range) -> np.ndarray:
    """Per-trial values of ``part``, ``rows`` chunks of ``size`` trials."""
    out = np.empty(len(part))
    for lo in range(part.start, part.stop, size):
        chunk = range(lo, min(lo + size, part.stop))
        out[lo - part.start:chunk.stop - part.start] = rows(chunk, streams)
    return out


class _Worker:
    """A forked process that, for each (rows, seed, size, part) pickled
    down its task pipe, sends back 8 bytes of length and the part's
    ``_values`` as float64 bytes, until the pipe ends or anything fails."""

    def __init__(self):
        task_read, task_write = os.pipe()
        result_read, result_write = os.pipe()
        try:
            self.pid = os.fork()
        except OSError:
            for fd in (task_read, task_write, result_read, result_write):
                os.close(fd)
            raise
        if self.pid == 0:
            try:
                os.close(task_write)
                os.close(result_read)
                tasks, results = open(task_read, "rb"), open(result_write, "wb")
                while tasks.peek(1):
                    rows, seed, size, part = pickle.load(tasks)
                    values = _values(rows, _TrialStreams(seed), size, part)
                    results.write(values.nbytes.to_bytes(8, "little"))
                    results.write(values)
                    results.flush()
            finally:
                os._exit(0)   # never back into the caller's frames
        os.close(task_read)
        os.close(result_write)
        self.tasks, self.results = open(task_write, "wb"), open(result_read, "rb")


#: this process's workers, each forked the first time a run needs it
_pool: List[_Worker] = []


def _drop(worker: _Worker, signal: int = _SIGKILL) -> None:
    """Take ``worker`` out of the pool, close its pipes, and signal and reap
    it while it runs unreaped (once reaped, its pid may be another's)."""
    _pool.remove(worker)
    with contextlib.suppress(BrokenPipeError):   # a task left unsent
        worker.tasks.close()
    worker.results.close()
    with contextlib.suppress(ChildProcessError):   # reaped elsewhere
        if os.waitpid(worker.pid, os.WNOHANG) == (0, 0):
            os.kill(worker.pid, signal)
            os.waitpid(worker.pid, 0)


def _close_pool() -> None:
    """Close each worker's pipes, which ends it, and reap it if it is ours."""
    while _pool:
        _drop(_pool[-1], 0)


atexit.register(_close_pool)
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_close_pool)


def _run(n: int, config: SimConfig,
         rows: Callable[[range, _TrialStreams], np.ndarray],
         draws: int) -> np.ndarray:
    """Per-trial values of a run of ``n`` intervals and ``draws`` standard
    normals (path and noise) per trial, ``rows(chunk, streams)`` giving
    those of one chunk of trials from the run's one set of trial streams.

    The trial range is cut into ``_workers(trials, draws)`` contiguous
    parts, one per 2**18 draws and at most one per CPU: the first is
    computed here, each other one by a pool worker (forked if the pool is
    short).  A part whose worker fails, sends a short result or died since
    the last run is computed here after the others and the worker dropped,
    to be replaced by the next split run, so the values and any error are
    those of one process.  Any exception kills the busy workers.
    """
    size = _chunk_rows(n, config.oversample)
    workers = _workers(config.trials, draws)
    cuts = [config.trials * i // workers for i in range(workers + 1)]
    parts = [range(lo, hi) for lo, hi in zip(cuts, cuts[1:])]
    per_trial = np.empty(config.trials)
    busy = []   # (part, worker) of each part sent and not yet received
    try:
        while len(_pool) < workers - 1:   # fork the missing workers
            try:
                _pool.append(_Worker())
            except OSError:   # fewer workers: their parts are computed here
                break
        hired = _pool[:workers - 1]
        for part, worker in zip(parts[1:], hired):
            busy.append((part, worker))
            with contextlib.suppress(BrokenPipeError):   # dead: read as short
                worker.tasks.write(pickle.dumps((rows, config.seed, size, part)))
                worker.tasks.flush()
        streams = _TrialStreams(config.seed)
        for part in parts[:1] + parts[1 + len(hired):]:
            per_trial[part.start:part.stop] = _values(rows, streams, size, part)
        while busy:
            part, worker = busy[0]
            length = worker.results.read(8)   # then that many bytes of values
            data = worker.results.read(int.from_bytes(length, "little"))
            busy.pop(0)
            if len(data) != 8 * len(part):   # the worker failed
                _drop(worker)
                data = _values(rows, streams, size, part).tobytes()
            per_trial[part.start:part.stop] = np.frombuffer(data)
    finally:
        for _, worker in busy:
            _drop(worker)
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


def _intervals(n: int, oversample: int, trials: range,
               streams: _TrialStreams, noise_len: int = 0
               ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(bridge, rise, noise) of ``trials``, one row each: ``_split`` of
    standard normal increments shaped (trial, interval, fine step), and the
    channel noise.  Row r draws from trial ``trials[r]``'s own stream: the
    path increments first, interval by interval, then the noise."""
    steps = np.empty((len(trials), n, oversample))
    noise = np.empty((len(trials), noise_len))
    for row, rng in enumerate(streams.each(trials)):
        rng.standard_normal(out=steps[row])
        if noise_len:
            rng.standard_normal(out=noise[row])
    return steps, _split(steps), noise


def _ramp_sums(os_: int) -> Tuple[float, float]:
    """Trapezoid sums over m = 0..os of (1 - u)**2 and u (1 - u), u = m/os."""
    return (2 * os_ * os_ + 1) / (6.0 * os_), (os_ * os_ - 1) / (6.0 * os_)


def _interval_error(bridge: np.ndarray,
                    errors: Optional[np.ndarray] = None) -> np.ndarray:
    """Trapezoid sum over the fine grid of (path - interpolant of the nodes
    W - ``errors``)**2, one value per row.

    In interval i the error is B + (1 - u) e_i + u e_i+1 for the bridge B
    and node errors e (e_0 = 0; none means 0).  B is 0 at both nodes, so
    the sum is sum B**2 + 2 (e_i sum (1 - u) B + e_i+1 sum u B) + a (e_i**2
    + e_i+1**2) + 2 b e_i e_i+1, B over the interior points, with a and b
    from ``_ramp_sums``.
    """
    os_ = bridge.shape[-1]
    inner = bridge[..., :-1]
    total = np.einsum("...im,...im->...", inner, inner)
    if errors is None:
        return total
    a, b = _ramp_sums(os_)
    u = np.arange(1, os_) / os_
    left, right = errors[..., :-1], errors[..., 1:]
    down = np.einsum("...m,m->...", inner, 1.0 - u)   # sum (1 - u) B
    up = np.einsum("...m,m->...", inner, u)           # sum u B
    row = "...i,...i->..."
    return total \
        + 2.0 * (np.einsum(row, left, down) + np.einsum(row, right, up)) \
        + a * (np.einsum(row, left, left) + np.einsum(row, right, right)) \
        + (2.0 * b) * np.einsum(row, left, right)


def _expectations(n: int, oversample: int,
                  moments: Optional[ErrorMoments] = None) -> Tuple[float, float]:
    """(grid, continuous) expectations of the ``_interval_error`` sum over
    ``n`` intervals, in units of one fine step's variance, for node errors
    of unit-scale ``moments`` (s, c; none means e = 0).  The bridge is
    independent of the nodes, so E sum B**2 = n (os**2 - 1)/6 and
    grid = n (os**2 - 1)/6 + a (2 sum s[:-1] + s[-1]) + 2 b sum c
    (``_ramp_sums``); its os -> infinity form, ``continuous``, is
    n os**2/6 + os (2 sum s[:-1] + s[-1] + sum c)/3.
    """
    os_ = oversample
    grid = n * (os_ * os_ - 1) / 6.0
    continuous = n * os_ * os_ / 6.0
    if moments is not None:
        nodes = 2.0 * moments.second[:-1].sum() + moments.second[-1]
        cross = moments.cross.sum()
        a, b = _ramp_sums(os_)
        grid += a * nodes + 2.0 * b * cross
        continuous += os_ * (nodes + cross) / 3.0
    return float(grid), float(continuous)


def _estimate(per_trial: np.ndarray, params: ProcessParams, n: int,
              oversample: int,
              moments: Optional[ErrorMoments] = None) -> MomentEstimate:
    """The run's statistics: its unit-scale per-trial sums, each divided by
    n os**2 (dt / horizon) and scaled by sigma2/fs last; ``_ldexp`` refuses
    those that ``simulate`` writes, so only the unwritten bias may round to 0."""
    se = float(per_trial.std(ddof=1) / math.sqrt(len(per_trial)))
    grid, continuous = _expectations(n, oversample, moments)
    steps = n * oversample * oversample
    ratio, exp = unit(params.sigma2, params.fs)
    names = ("estimate", "stderr", "reference", "distortion")
    values = (float(per_trial.mean()), se, grid, per_trial)
    estimate, stderr, reference, per_trial = (
        _ldexp(name, v / steps * ratio, exp) for name, v in zip(names, values))
    bias = np.ldexp((continuous - grid) / steps * ratio, exp)
    return MomentEstimate(estimate, stderr, reference, bias, per_trial)


def empirical_mmse(params: ProcessParams, config: SimConfig) -> MomentEstimate:
    """Trial-and-time average of the squared interpolation error.

    Paths have unit-variance fine steps; sigma2/fs is applied last.
    ``reference`` is the grid-exact sigma2/(6 fs) (1 - 1/oversample**2) and
    ``bias`` the continuous-time sigma2/(6 fs) less it.
    """
    n = _interval_count(params, config)
    os_ = config.oversample
    rows = functools.partial(_mmse_rows, n, os_)
    return _estimate(_run(n, config, rows, n * os_), params, n, os_)


def _mmse_rows(n: int, oversample: int, trials: range,
               streams: _TrialStreams) -> np.ndarray:
    """``empirical_mmse``'s unit-scale per-trial sums of ``trials``."""
    return _interval_error(_intervals(n, oversample, trials, streams)[0])


def finite_waterfill_theta(eigenvalues: np.ndarray, rbar: float) -> float:
    """Water level over finitely many eigenvalues at rbar bits per sample.

    Solves mean_k (1/2) log2+(lambda_k / theta) = rbar exactly: with the m
    largest modes active the level is theta_m, the geometric mean of those
    eigenvalues scaled by 2**(-2 n rbar / m), all n from one cumulative sum.
    Mode m is active when theta_m < lambda_m, that is when
    F(m) = sum_{k<=m} ln(lambda_k / lambda_m) is below 2 n rbar ln 2; F
    never falls as m grows, so the active modes are a prefix and the level
    is theta at their count.  The top mode is always active.
    """
    lam = check_positive("eigenvalues", eigenvalues, array=True)
    if lam.ndim != 1 or not lam.size:
        raise ParameterError("eigenvalues", "must be a nonempty 1-D array")
    lam = np.sort(lam)[::-1]
    rbar = check_positive("rbar", rbar)
    n = len(lam)
    budget = 2.0 * n * rbar * math.log(2.0)
    theta = np.exp((np.cumsum(np.log(lam)) - budget) / np.arange(1, n + 1))
    return float(theta[np.count_nonzero(theta[1:] < lam[1:])])


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


def _oracle(n: int, rbar: float, scale=1.0) -> Tuple[np.ndarray, float, ErrorMoments]:
    """The walk's n unit-scale eigenvalues times ``scale``, their level at
    rbar and the diagonal and first off-diagonal of V^T diag(min{theta, lam}) V.

    With d = min{theta, lam} and C_j = sum_k d_k cos(j (2k-1) pi / M),
    second[m] = (2/M) (sum d - C_2m) and cross[m] = (2/M) (C_1 - C_(2m+1)).
    As cos(pi (2k-1) j / M) = (-1)**j cos(2 pi (n+k) j / M), C_j =
    (-1)**j Re X[j] for j <= n, X the FFT of d reversed in slots n..1, and
    C_j = -C_(M-j) above n.
    """
    n = check_count("n", n, least=2)
    lam = scale * discrete_wiener_eigensystem(ProcessParams(1.0, 1.0),
                                              n).eigenvalues
    theta = finite_waterfill_theta(lam, rbar)
    d = np.minimum(theta, lam)
    slots = np.zeros(2 * n + 1)
    slots[1:n + 1] = d[::-1]
    low = np.fft.rfft(slots).real * (-1.0) ** np.arange(n + 1)
    c = np.concatenate((low, -low[:0:-1]))
    fold = 2.0 / (2 * n + 1)
    return lam, theta, ErrorMoments(second=fold * (d.sum() - c[2::2]),
                                    cross=fold * (c[1] - c[3:2 * n:2]))


def ce_moment_oracle(params: ProcessParams, n: int, rbar: float) -> ErrorMoments:
    """Exact error moments of the per-coefficient test-channel distortions.

    With theta waterfilled over the n discrete eigenvalues, the error
    covariance of the reconstructed samples is U^T diag(min{theta, lam}) U,
    whose diagonal and first off-diagonal are returned.  No sampling noise;
    this is the semi-analytic reference for the compress-and-estimate limit.
    The moments are formed at unit scale and scaled by sigma2/fs last; a second
    moment past the floats is refused, a cross moment (noise about 0) is not.
    """
    moments = _oracle(n, rbar)[2]
    ratio, exp = unit(params.sigma2, params.fs)
    with np.errstate(over="ignore"):   # ErrorMoments refuses
        return ErrorMoments(_ldexp("second", ratio * moments.second, exp),
                            np.ldexp(ratio * moments.cross, exp))


def ce_distortion_estimate(params: ProcessParams, n: int, rbar: float) -> CeEstimate:
    """The lemma's bounds on the compress-and-estimate distortion, from the
    oracle's moments s and c of N = n sample errors, and their midpoint,
    which converges to d_ce as n grows:
    lower = mmse + max((2/3) sum_{m<N} s_m + (1/3) sum c, 0) / N and
    upper = mmse + ((2/3) (sum s + s_1) + (1/3) sum c) / (N + 1), mmse
    sigma2 / (6 fs), the bundle's ``mmse``; the upper bound extends the
    block by one sample, with zero cross moment across blocks and the first
    sample's second moment reused past the block.  The sums are formed at
    unit scale and sigma2/fs applied last, so the bounds answer where an
    absolute moment overflows.
    """
    moments = _oracle(n, rbar)[2]
    ratio, exp = unit(params.sigma2, params.fs)
    s, c = ratio * moments.second, ratio * moments.cross
    n, cross = len(s), c.sum() / 3.0
    with np.errstate(all="ignore"):   # CeEstimate refuses
        lower = ratio / 6.0 + max(((2.0 / 3.0) * s[:-1].sum() + cross) / n,
                                  0.0)
        upper = ratio / 6.0 + ((2.0 / 3.0) * (s.sum() + s[0]) + cross) / (n + 1)
        mid = lower + (upper - lower) / 2
        return CeEstimate(*np.ldexp((mid, lower, upper), exp))


def mc_test_channel_run(params: ProcessParams, config: SimConfig,
                        rbar: float) -> MomentEstimate:
    """Monte-Carlo compress-and-estimate distortion via the Gaussian test channel.

    Per trial (one block of N_T samples, re-zeroed at its pinned start): KL
    transform the samples, pass each coefficient with lambda_k > theta
    through y_hat = (1 - theta/lambda)(y + z), z ~ N(0, theta lambda /
    (lambda - theta)) so that E (y - y_hat)^2 = min{theta, lambda} exactly,
    zero the drowned coefficients, inverse transform, interpolate linearly
    and average the squared path error on the fine grid.  The run works in
    units of one fine step's variance (the samples' eigenvalues are
    ``oversample`` times those at sigma2 = fs = 1) and applies sigma2/fs
    last.  ``reference`` is the grid-exact expectation from the moment
    oracle's moments and ``bias`` the continuous-time value less it.
    """
    n = _interval_count(params, config)
    if n < 2:
        raise ParameterError("horizon_t", "must exceed 1/fs: horizon * fs > 1")
    os_ = config.oversample
    lam, theta, moments = _oracle(n, rbar, os_)
    gain = np.maximum(1.0 - theta / lam, 0.0)   # 0: a drowned coefficient
    noise_sd = np.sqrt(theta / np.where(gain > 0, gain, np.inf))
    rows = functools.partial(_channel_rows, n, os_, gain, noise_sd)
    return _estimate(_run(n, config, rows, n * (os_ + 1)), params, n, os_,
                     moments)


def _channel_rows(n: int, oversample: int, gain: np.ndarray,
                  noise_sd: np.ndarray, trials: range,
                  streams: _TrialStreams) -> np.ndarray:
    """``mc_test_channel_run``'s unit-scale per-trial sums of ``trials``."""
    bridge, rise, noise = _intervals(n, oversample, trials, streams, n)
    samples = np.cumsum(rise, axis=1)
    recon = _kl_inverse(gain * (_kl_forward(samples) + noise_sd * noise))
    errors = np.zeros((len(trials), n + 1))   # e_0 = 0: the pinned start
    errors[:, 1:] = samples - recon
    return _interval_error(bridge, errors)
