"""Command-line front end: curve sweeps, eigenvalue tables, ratio sweeps and
Monte-Carlo runs, emitted as deterministic CSV.

Exit codes: 0 success, 2 invalid arguments (a request too large to allocate,
named by the flag that sized it, and an ``--out`` that cannot be written
included), 3 numerical failure (a non-finite or nonzero subnormal result,
named by its column, or bits per sample outside the supported range,
included).  The type that owns a value (``ProcessParams``, ``Grid``, ...)
checks it before any computation, every count through ``check_count``, and
``main`` reports its ``ParameterError`` under the value's flag; a
``MemoryError`` is named here alone, by the flag that sized the array.  The CSV
and its JSON manifest (flags, versions, seed) are each written to a
temporary file and renamed on success, with the mode ``open`` gives under
the umask; a failing run leaves neither file behind.

``main(argv)`` may be called any number of times in one process.  The calls
share the argument parser, built on the first call (parsing never changes
it), and the pool of Monte-Carlo workers that ``mc`` forks on first need.
"""

from __future__ import annotations

import argparse
import functools
import json
# argparse's messages go through gettext, which imports locale on the first
# parse; importing it here puts that one-time cost in start-up, not in the
# first command
import locale  # noqa: F401
import os
import platform
import sys
from dataclasses import dataclass

import numpy as np

from . import __version__, drf, mc
from .spectral import (ParameterError, ProcessParams, check_count,
                       check_positive, discrete_wiener_eigenvalues,
                       interp_kernel_eigenvalues, s_bar, s_tilde_density, unit)


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


def _check_finite(header, table) -> None:
    """Raise FloatingPointError naming the first column of ``table`` (rows
    under ``header``) with a value that is not 0 or of a magnitude from the
    smallest normal float (a subnormal has lost digits) to
    1.797693134862315e308, above which the ``%.15g`` text reads as inf."""
    size = np.abs(np.asarray(table, dtype=float).reshape(-1, len(header)))
    fits = np.all((size == 0) | ((size >= sys.float_info.min)
                                 & (size <= 1.797693134862315e308)), axis=0)
    if not fits.all():
        raise FloatingPointError(
            f"{header[fits.argmin()]} is past the floating-point range")


def _write_outputs(args, header, table) -> None:
    """Write the finite table's CSV and then its manifest, or neither; an
    ``OSError`` from either write is an ``--out`` that cannot be written."""
    _check_finite(header, table)
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


@dataclass(frozen=True)
class Grid:
    """``points`` sweep values from ``min`` to ``max``, log-spaced if ``log``."""

    min: float
    max: float
    points: int
    log: bool

    def __post_init__(self):   # each kept as the value checked
        for name in ("min", "max"):
            object.__setattr__(self, name, check_positive(name, getattr(self, name)))
        object.__setattr__(self, "points",
                           check_count("points", self.points, least=2))
        if not self.min < self.max:
            raise ValueError("need 0 < --min < --max")

    def values(self) -> np.ndarray:
        """The sweep, whose first and last values are exactly min and max."""
        if not self.log:
            return np.linspace(self.min, self.max, self.points)
        with np.errstate(over="ignore"):   # an inf endpoint, then replaced
            return np.geomspace(self.min, self.max, self.points)


def _cmd_curve(args) -> int:
    grid = Grid(args.min, args.max, args.points, args.log).values()
    params = ProcessParams(args.sigma2, args.fs)   # --fs even where swept
    fs, rate = (params.fs, grid) if args.rate is None else (grid, args.rate)
    # sigma2 = fs makes the unit sigma2/fs exactly 1
    b = drf.sweep(fs if args.normalized else params.sigma2, fs, rate)
    header = ["x", "d_opt", "d_ce", "d_upper", "d_w", "d_bar", "mmse",
              "theta_opt", "theta_ce"]
    rows = np.column_stack([grid] + [getattr(b, name) for name in header[1:]])
    _write_outputs(args, header, rows)
    return 0


def _cmd_ratio(args) -> int:
    rbars = Grid(args.min, args.max, args.points, args.log).values()
    s = drf.sections(rbars)
    header = ["rbar", "ratio_smp", "ratio_qnt", "ce_penalty", "d_tilde"]
    rows = np.column_stack([rbars, s.ratio_smp, s.ratio_qnt, s.ce_penalty,
                            s.d_tilde])
    _write_outputs(args, header, rows)
    return 0


def _cmd_eigen(args) -> int:
    params = ProcessParams(sigma2=args.sigma2, fs=args.fs)
    if args.kind == "discrete":
        lam = discrete_wiener_eigenvalues(params, args.n)
        power, density = 1, s_bar
    else:
        lam = interp_kernel_eigenvalues(params, args.n)
        power, density = 2, s_tilde_density
    k = np.arange(1, args.n + 1)
    ratio, exp = unit(params.sigma2, params.fs, power)
    limit = np.ldexp(ratio * density((k - 0.5) / args.n), exp)
    if lam.min() == 0 or limit.min() == 0:   # every exact cell is positive
        raise FloatingPointError("an eigenvalue rounds to 0")
    header = ["k", "lambda", "density_limit"]
    _write_outputs(args, header, np.column_stack([k, lam, limit]))
    return 0


def _cmd_simulate(args) -> int:
    params = ProcessParams(sigma2=args.sigma2, fs=args.fs)
    if args.trials < 2:   # SimConfig takes 1; the summary cannot
        raise ValueError("--trials must be >= 2: a standard error needs"
                         " at least 2 trials")
    config = mc.SimConfig(horizon_t=args.horizon, oversample=args.oversample,
                          trials=args.trials, seed=args.seed)
    if args.scheme == "test-channel" and args.rbar is None:
        raise ValueError("--rbar is required for the test-channel scheme")
    if args.rbar is not None:   # refused if bad, even where unused
        args.rbar = check_positive("rbar", args.rbar)
    try:
        result = (mc.empirical_mmse(params, config)
                  if args.scheme == "mmse-only"
                  else mc.mc_test_channel_run(params, config, args.rbar))
        fields = ["estimate", "stderr", "reference", "z"]
        values = (result.estimate, result.stderr, result.reference,
                  result.z_score)
        _check_finite(fields, values)
        summary = " ".join(f"{name}={_fmt(value)}"
                           for name, value in zip(fields, values))
        table = np.column_stack([np.arange(len(result.per_trial)),
                                 result.per_trial])
        _write_outputs(args, ["trial", "distortion"], table)
    except MemoryError:   # the larger of the trial count and a trial row
        n = mc.effective_grid(params, config)[0]
        field = ("trials" if config.trials >= n * (config.oversample + 2)
                 else mc._row_field(params, config))
        raise ParameterError(field, "is too large to allocate") from None
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
        with np.errstate(all="ignore"):   # non-finite results exit 3
            return args.func(args)
    except (ValueError, OverflowError, MemoryError) as exc:
        if isinstance(exc, ParameterError):   # a field: name its flag
            flag = {"horizon_t": "horizon"}.get(exc.field, exc.field)
            exc = f"--{flag} {exc.reason}"
        elif isinstance(exc, MemoryError):   # the flag that sized the table
            flag = "n" if args.command == "eigen" else "points"
            exc = f"--{flag} is too large to allocate"
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FloatingPointError as exc:   # a result past the float range
        print(f"numerical failure in {args.command}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
