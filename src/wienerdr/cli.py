"""Command-line front end: curve sweeps, eigenvalue tables, ratio sweeps and
Monte-Carlo runs, emitted as deterministic CSV.

Exit codes: 0 success, 2 invalid arguments (a request too large to allocate
and an ``--out`` that cannot be written included), 3 numerical failure (a
non-finite or nonzero subnormal result included).  The CSV and its JSON
manifest (flags, versions, seed) are each written to a temporary file and
renamed on success, with the mode ``open`` gives under the umask; a failing
run leaves neither file behind.

``main(argv)`` may be called any number of times in one process: the
argument parser is built on the first call and reused, since parsing never
changes it and returns a fresh namespace each time.
"""

from __future__ import annotations

import argparse
import functools
import json
# argparse's messages go through gettext, which imports locale on the first
# parse; importing it here puts that one-time cost in start-up, not in the
# first command
import locale  # noqa: F401
import math
import os
import platform
import sys

import numpy as np

from . import __version__, drf, mc
from .spectral import (ProcessParams, discrete_wiener_eigenvalues,
                       interp_kernel_eigenvalues, s_bar, s_tilde_density)

#: FloatingPointError: a water level or a result past the floating-point range
_NUMERICAL_ERRORS = (FloatingPointError,)


#: rows formatted per string operation; bounds the writer's extra memory
_CSV_BLOCK_ROWS = 1024


def _fmt(value: float) -> str:
    return format(float(value), ".15g")


def _write_atomic(path: str, chunks) -> None:
    """Write the text ``chunks`` to a new file beside ``path`` and rename it
    into place; on any error the target path is untouched.  The file is
    created with mode 0o666 less the umask, as ``open`` creates files."""
    tmp = os.path.join(os.path.dirname(os.path.abspath(path)),
                       ".wienerdr-" + os.urandom(8).hex())
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", newline="\n") as fh:
            for text in chunks:
                fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_csv_atomic(path: str, header, table) -> None:
    """Write a 2-D float table atomically, every value as ``"%.15g"`` (the
    text of ``_fmt``) and each block of rows by one ``%`` operation."""
    table = np.asarray(table, dtype=float)
    line = ",".join(["%.15g"] * len(header)) + "\n"

    def chunks():
        yield ",".join(header) + "\n"
        for lo in range(0, len(table), _CSV_BLOCK_ROWS):
            block = table[lo:lo + _CSV_BLOCK_ROWS]
            yield (line * len(block)) % tuple(block.ravel().tolist())

    _write_atomic(path, chunks())


def _write_manifest(path: str, command: str, args: argparse.Namespace) -> None:
    flags = {k: v for k, v in sorted(vars(args).items()) if k != "func"}
    manifest = {
        "command": command,
        "flags": flags,
        "seed": flags.get("seed"),
        "versions": {
            "wienerdr": __version__,
            "numpy": np.__version__,
            "python": platform.python_version(),
        },
    }
    _write_atomic(path + ".manifest.json",
                  [json.dumps(manifest, indent=2, sort_keys=True), "\n"])


def _check_finite(values) -> None:
    """Raise FloatingPointError unless every value is 0 or a finite float of
    at least the smallest normal magnitude (a subnormal has lost digits)."""
    size = np.abs(np.asarray(values, dtype=float))
    if not np.all((size == 0) | ((size >= sys.float_info.min)
                                 & (size <= sys.float_info.max))):
        raise FloatingPointError("a result is not finite or is subnormal")


def _write_outputs(args, header, table) -> None:
    """Write the finite table's CSV and then its manifest, or neither; an
    ``OSError`` from either write is an ``--out`` that cannot be written."""
    _check_finite(table)
    try:
        _write_csv_atomic(args.out, header, table)
        try:
            _write_manifest(args.out, args.command, args)
        except BaseException:
            for path in (args.out, args.out + ".manifest.json"):
                if os.path.isfile(path):
                    os.unlink(path)
            raise
    except OSError as exc:
        raise ValueError(f"cannot write --out {args.out}: "
                         f"{exc.strerror or exc}") from exc


def _sweep(args) -> np.ndarray:
    if args.points < 2:
        raise ValueError("--points must be >= 2")
    if not (args.min > 0 and args.max > args.min):
        raise ValueError("need 0 < --min < --max")
    if args.log:
        return np.logspace(np.log10(args.min), np.log10(args.max), args.points)
    return np.linspace(args.min, args.max, args.points)


def _cmd_curve(args) -> int:
    grid = _sweep(args)
    if args.rate is None:
        fs, rate = args.fs, grid     # sweep R at fixed fs
    else:
        fs, rate = grid, args.rate   # sweep fs at fixed R
    b = drf.sweep(args.sigma2, fs, rate)
    scale = np.asarray(fs) / args.sigma2 if args.normalized else 1.0
    header = ["x", "d_opt", "d_ce", "d_upper", "d_w", "d_bar", "mmse",
              "theta_opt", "theta_ce"]
    columns = [grid] + [getattr(b, name) * scale for name in header[1:7]]
    rows = np.column_stack(columns + [b.theta_opt, b.theta_ce])
    _write_outputs(args, header, rows)
    return 0


def _cmd_ratio(args) -> int:
    rbars = _sweep(args)
    s = drf.sections(rbars)
    header = ["rbar", "ratio_smp", "ratio_qnt", "ce_penalty", "d_tilde"]
    rows = np.column_stack([rbars, s.ratio_smp, s.ratio_qnt, s.ce_penalty,
                            s.d_tilde])
    _write_outputs(args, header, rows)
    return 0


def _cmd_eigen(args) -> int:
    if args.n < 1:
        raise ValueError("--n must be >= 1")
    params = ProcessParams(sigma2=args.sigma2, fs=args.fs)
    k = np.arange(1, args.n + 1)
    phi = (k - 0.5) / args.n
    if args.kind == "discrete":
        lam = discrete_wiener_eigenvalues(params, args.n)
        limit = (params.sigma2 / params.fs) * s_bar(phi)
    else:
        lam = interp_kernel_eigenvalues(params, args.n)
        ts = float(params.ts)   # a float product overflows to inf
        limit = (params.sigma2 * (ts * ts)) * s_tilde_density(phi)
    header = ["k", "lambda", "density_limit"]
    _write_outputs(args, header, np.column_stack([k, lam, limit]))
    return 0


def _cmd_simulate(args) -> int:
    params = ProcessParams(sigma2=args.sigma2, fs=args.fs)
    config = mc.SimConfig(horizon_t=args.horizon, oversample=args.oversample,
                          trials=args.trials, seed=args.seed)
    if args.scheme == "mmse-only":
        result = mc.empirical_mmse(params, config)
    else:
        if args.rbar is None:
            raise ValueError("--rbar is required for the test-channel scheme")
        result = mc.mc_test_channel_run(params, config, args.rbar)
    values = (result.estimate, result.stderr, result.reference, result.z_score)
    _check_finite(values)
    summary = "estimate={} stderr={} reference={} z={}".format(
        *map(_fmt, values))
    table = np.column_stack([np.arange(len(result.per_trial)),
                             result.per_trial])
    _write_outputs(args, ["trial", "distortion"], table)
    print(summary)
    return 0


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
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


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        _precheck(args)
    except (ValueError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        with np.errstate(all="ignore"):   # non-finite results exit 3
            return args.func(args)
    except (ValueError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except _NUMERICAL_ERRORS as exc:
        op = getattr(args, "command", "computation")
        print(f"numerical failure in {op}: {exc}", file=sys.stderr)
        return 3
    except MemoryError:
        print(f"error: {args.command}: request too large to allocate",
              file=sys.stderr)
        return 2


def _precheck(args) -> None:
    """Validate every numeric flag before any computation starts."""
    for name in ("sigma2", "fs", "horizon", "rate", "rbar", "min", "max"):
        value = getattr(args, name, None)
        if value is not None and not (value > 0 and math.isfinite(value)):
            raise ValueError(f"--{name} must be positive and finite")
    for name in ("points", "n", "oversample"):
        value = getattr(args, name, None)
        if value is not None and value < 1:
            raise ValueError(f"--{name} must be a positive integer")
    trials = getattr(args, "trials", None)
    if trials is not None and trials < 2:
        raise ValueError("--trials must be >= 2: a standard error needs"
                         " at least 2 trials")
    seed = getattr(args, "seed", None)
    if seed is not None and not 0 <= seed < 2 ** 64:
        raise ValueError("--seed must fit in 64 bits")


if __name__ == "__main__":
    sys.exit(main())
