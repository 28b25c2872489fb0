"""Command-line front end: curve sweeps, eigenvalue tables, ratio sweeps and
Monte-Carlo runs, emitted as deterministic CSV.

Exit codes: 0 success, 2 invalid arguments (a request too large to allocate,
named by the flag that sized it, and an ``--out`` that cannot be written
included), 3 numerical failure (a non-finite or nonzero subnormal result,
named by its column or by the library field that refused it, or bits per
sample outside the supported range, included).  The owner of a value (a
type such as ``ProcessParams``, or the grid reader ``_grid``) checks it
before any computation, every count through ``check_count``, and
``main`` reports its ``ParameterError`` under the value's flag; a
``MemoryError`` is named here alone, by the flag that sized the array.  The CSV
and its JSON manifest (flags, versions, seed) are each written to a
temporary file and renamed on success, with the mode ``open`` gives under
the umask; a failing run leaves neither file behind.  The CSV is checked
and written block by block from the library's columns, never as one table.

``main(argv)`` reads argv in one pass against the flag table of its command,
``_COMMANDS``, as argparse would read it, and builds no parser: a refused
argv is one ``error:`` line and exit 2, and ``-h`` prints the table's help.
It may be called any number of times in one process; the calls share only
the pool of Monte-Carlo workers that ``mc`` forks on first need.
"""

from __future__ import annotations

import json
import os
import platform
import re
import sys
from types import SimpleNamespace

import numpy as np

from . import __version__, drf, mc
from .spectral import (SAMPLED_WIENER, ParameterError, ProcessParams,
                       check_count, check_positive, discrete_wiener_eigensystem,
                       interp_kernel_eigensystem, unit)


#: rows formatted per string operation; bounds the writer's extra memory
_CSV_BLOCK_ROWS = 1024


def _write_atomic(path: str, chunks) -> None:
    """Write the ASCII text ``chunks`` to a new file beside ``path`` and rename
    it into place; on any error the target path is untouched.  Each chunk is
    encoded once and handed to ``os.write`` on the file's descriptor, with no
    text or buffer layer between.  The file is created with mode 0o666 less
    the umask, as ``open`` creates files."""
    tmp = os.path.join(os.path.dirname(os.path.abspath(path)),
                       ".wienerdr-" + os.urandom(8).hex())
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        try:
            for text in chunks:
                data = text.encode()
                while data:   # a write may take only part of it
                    data = data[os.write(fd, data):]
        finally:
            os.close(fd)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_csv_atomic(path: str, header, columns) -> None:
    """Write the equal-length float ``columns`` atomically, every value as
    ``"%.15g"``: each block of rows is stacked, checked by ``_check_finite``
    (a refused cell leaves no file) and formatted by one ``%`` operation."""
    line = ",".join(["%.15g"] * len(header)) + "\n"

    def chunks():
        yield ",".join(header) + "\n"
        for lo in range(0, len(columns[0]), _CSV_BLOCK_ROWS):
            block = np.column_stack(
                [column[lo:lo + _CSV_BLOCK_ROWS] for column in columns])
            _check_finite(header, block)
            yield (line * len(block)) % tuple(block.ravel().tolist())

    _write_atomic(path, chunks())


def _write_manifest(path: str, command: str, args: SimpleNamespace) -> None:
    flags = {k: v for k, v in vars(args).items() if k != "func"}
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
                  [json.dumps(manifest, indent=2, sort_keys=True) + "\n"])


def _check_finite(header, table) -> None:
    """Raise FloatingPointError naming the first column of ``table`` (rows
    under ``header``) with a value that is not 0 or of a magnitude from the
    smallest normal float (a subnormal has lost digits) to
    1.797693134862315e308, above which the ``%.15g`` text reads as inf."""
    size = np.abs(np.asarray(table, dtype=float).reshape(-1, len(header)))
    fits = np.logical_and.reduce((size == 0) | (
        (size >= sys.float_info.min) & (size <= 1.797693134862315e308)), axis=0)
    if not fits.all():
        raise FloatingPointError(
            f"{header[fits.argmin()]} is past the floating-point range")


def _write_outputs(args, header, columns) -> None:
    """Write the CSV of ``columns``, each block checked as it is written, and
    then its manifest, or neither; an ``OSError`` from either write, one from
    opening the file coming before any check, is an unwritable ``--out``."""
    try:
        _write_csv_atomic(args.out, header, columns)
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


def _grid(lo, hi, points, log) -> np.ndarray:
    """The sweep of ``points`` values from ``lo`` to ``hi``, log-spaced if
    ``log``, whose first and last values are exactly ``lo`` and ``hi``."""
    lo, hi = check_positive("min", lo), check_positive("max", hi)
    points = check_count("points", points, least=2)
    if not lo < hi:
        raise ValueError("need 0 < --min < --max")
    if not log:
        return np.linspace(lo, hi, points)
    with np.errstate(over="ignore"):   # an inf endpoint, then replaced
        values = 10.0 ** np.linspace(np.log10(lo), np.log10(hi), points)
    values[[0, -1]] = lo, hi
    return values


def _cmd_curve(args) -> int:
    grid = _grid(args.min, args.max, args.points, args.log)
    params = ProcessParams(args.sigma2, args.fs)   # --fs even where swept
    fs, rate = (params.fs, grid) if args.rate is None else (grid, args.rate)
    # sigma2 = fs makes the unit sigma2/fs exactly 1
    b = drf.sweep(fs if args.normalized else params.sigma2, fs, rate)
    header = ["x", "d_opt", "d_ce", "d_upper", "d_w", "d_bar", "mmse",
              "theta_opt", "theta_ce"]
    _write_outputs(args, header,
                   [grid] + [getattr(b, name) for name in header[1:]])
    return 0


def _cmd_ratio(args) -> int:
    rbars = _grid(args.min, args.max, args.points, args.log)
    s = drf.sections(rbars)
    header = ["rbar", "ratio_smp", "ratio_qnt", "ce_penalty", "d_tilde"]
    _write_outputs(args, header, [rbars, s.ratio_smp, s.ratio_qnt,
                                  s.ce_penalty, s.d_tilde])
    return 0


def _cmd_eigen(args) -> int:
    params = ProcessParams(sigma2=args.sigma2, fs=args.fs)
    build = (discrete_wiener_eigensystem if args.kind == "discrete"
             else interp_kernel_eigensystem)
    lam = limit = build(params, args.n).eigenvalues
    k = np.arange(1, args.n + 1)   # after the builder has checked n
    if args.kind == "discrete":   # interp's eigenvalues are their limit
        ratio, exp = unit(params.sigma2, params.fs)
        limit = np.ldexp(ratio * SAMPLED_WIENER((k - 0.5) / args.n), exp)
    _write_outputs(args, ["k", "lambda", "density_limit"], [k, lam, limit])
    return 0


def _cmd_simulate(args) -> int:
    params = ProcessParams(sigma2=args.sigma2, fs=args.fs)
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
        summary = " ".join(f"{name}=%.15g" % value
                           for name, value in zip(fields, values))
        _write_outputs(args, ["trial", "distortion"],
                       [np.arange(len(result.per_trial)), result.per_trial])
    except MemoryError:   # the larger of the trial count and a trial row
        n = mc._interval_count(params, config)
        field = ("trials" if config.trials >= n * (config.oversample + 2)
                 else mc._row_field(params, config))
        raise ParameterError(field, "is too large to allocate") from None
    print(summary)
    return 0


#: flag -> (type, or its choices, bool for a switch; default, ... if required;
#: help), in the order argparse lists them; command -> (function, help, flags)
_COMMON = {"sigma2": (float, 1.0), "fs": (float, 1.0), "out": (str, ...)}
_GRID = {"min": (float, ...), "max": (float, ...), "points": (int, ...),
         "log": (bool, False)}
_COMMANDS = {
    "curve": (_cmd_curve, "sweep the distortion curves", {**_COMMON, "rate": (
        float, None, "fix R and sweep fs (omit to sweep R at fixed --fs)"),
        **_GRID, "normalized": (bool, False,
                                "report distortions in units of sigma2/fs")}),
    "ratio": (_cmd_ratio, "sweep the excess-distortion ratios",
              {**_GRID, "out": (str, ...)}),
    "eigen": (_cmd_eigen, "tabulate an eigenvalue staircase", {
        **_COMMON, "kind": (("discrete", "interp"), ...), "n": (int, ...)}),
    "simulate": (_cmd_simulate, "run a Monte-Carlo experiment", {
        **_COMMON, "scheme": (("mmse-only", "test-channel"), ...),
        "horizon": (float, ...), "oversample": (int, 32), "trials": (int, ...),
        "seed": (int, ...), "rbar": (float, None)})}


def _usage(command=None) -> str:
    """The help of ``command``, or of the program if None."""
    rows = {name: [text] for name, (_, text, _) in _COMMANDS.items()}
    if command:
        rows = {f"--{name}": [getattr(kind, "__name__", kind), "required"
                              if default is ... else f"default {default}", *text]
                for name, (kind, default, *text) in _COMMANDS[command][2].items()}
    return f"usage: wienerdr {command or '<command>'} [flags]\n" + "".join(
        f"  {key:<14}{', '.join(map(str, row))}\n" for key, row in rows.items())


def _flag(token: str, names) -> tuple | None:
    """None where argparse reads ``token`` as a value, else (the flag of
    ``names`` it names or abbreviates, None if none; the text after "=")."""
    if token.startswith("--"):
        prefix, eq, text = token[2:].partition("=")
        found = [prefix] if prefix in names else [
            name for name in names if name.startswith(prefix)]
        if len(found) > 1:
            raise ValueError(f"ambiguous option: {token} could match --"
                             + ", --".join(found))
        if found:
            return found[0], text if eq else None
    elif token.startswith("-h"):   # -hh is -h -h
        return "help", token[2:].lstrip("h") or None
    if not token.startswith("-") or token == "-" or " " in token \
            or re.match(r"-\d+$|-\d*\.\d+$", token):   # a negative number
        return None
    return None, None


def _read(flag: str, kind, text: str):
    """``text`` as a value of ``flag``: of the type, or a choice, ``kind``."""
    try:   # tuple.index refuses what is not a choice
        return kind(text) if isinstance(kind, type) else kind[kind.index(text)]
    except ValueError:
        raise ValueError(f"argument {flag}: " + (
            f"invalid {kind.__name__} value: {text!r}" if isinstance(kind, type)
            else f"invalid choice: {text!r} (choose from "
            f"{', '.join(map(repr, kind))})")) from None


def _parse(argv: list) -> SimpleNamespace | None:
    """The command of ``argv``, its ``func`` and every flag, defaults included,
    or None once the help asked for is printed: argparse's reading, whose
    refusals raise ValueError in its words.  The first value is the command."""
    command, flags, extras, found, i = None, {}, [], [], 0
    end = argv.index("--") if "--" in argv else len(argv)   # the rest is unread
    while i < end:
        if command is None:   # before the command, -h and --help are the flags
            found.append(_flag(argv[i], ["help"]))
        token, (name, text), i = argv[i], found[i] or (None, None), i + 1
        kind = flags.get(name, (bool,))[0]   # help is a switch
        if command is None and found[i - 1] is None:
            command = _read("command", tuple(_COMMANDS), token)
            func, _, flags = _COMMANDS[command]
            values = {flag: spec[1] for flag, spec in flags.items()}
            # an ambiguous flag is refused before any other fault
            found[i:] = [_flag(later, ["help", *flags]) for later in argv[i:end]]
        elif name is None:
            extras.append(token)
        else:
            if kind is not bool and text is None and i < end and found[i] is None:
                text, i = argv[i], i + 1
            if (kind is bool) != (text is None):
                flag = "-h/--help" if name == "help" else f"--{name}"
                raise ValueError(f"argument {flag}: " + (
                    "expected one argument" if text is None
                    else f"ignored explicit argument {text!r}"))
            if name == "help":
                print(_usage(command), end="")
                return None
            values[name] = True if kind is bool else _read(f"--{name}", kind, text)
    missing = ([f"--{name}" for name, value in values.items() if value is ...]
               if command else ["command"])
    if missing:
        raise ValueError("the following arguments are required: "
                         + ", ".join(missing))
    if extras + argv[end:]:
        raise ValueError("unrecognized arguments: "
                         + " ".join(extras + argv[end:]))
    return SimpleNamespace(command=command, func=func, **values)


def main(argv=None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else list(argv))
        if args is None:   # the help was asked for
            return 0
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
