"""Output checks for the benchmark's ops, run after the timed region.

Every check reads only the op's argv, its CSV and the line it printed, and
recomputes the expected values from the defining formulas, so it does not
depend on how ``wienerdr`` computes them.  The waterfilling reference uses
``scipy.integrate.quad`` directly on the eigenvalue densities.

A problem list that is not empty fails the op.  Problems that start with
``z:`` come from the statistical z bound; every other problem contradicts a
formula, an ordering or determinism.
"""

from __future__ import annotations

import contextlib
import filecmp
import io
import math
import os

import numpy as np
from scipy.integrate import quad
from scipy.optimize import brentq

#: |z| beyond which a printed Monte-Carlo z fails its op (two-sided
#: probability 7e-6 for an honest z)
Z_BOUND = 4.5

#: ordering slack, as stated by ``DistortionBundle``
ORDERING_SLACK = 1e-9
#: relations that are formulas of the printed values
EXACT_RTOL = 1e-12
#: closed forms reached through the program's own quadrature and bisection
CLOSED_FORM_RTOL = 1e-7
#: the quad reference against the program's values
QUAD_RTOL = 1e-7
RATE_ATOL = 1e-8
#: sum of eigenvalues against the kernel trace
TRACE_RTOL = 1e-8

SHIFT = 1.0 / 6.0
#: rbar past which the shifted water level sits below its density floor 1/12
BORDER_RBAR = (1.0 + math.log2(math.sqrt(3.0) + 2.0)) / 2.0
LN2 = math.log(2.0)


def flags(argv: list) -> dict:
    """``--name value`` pairs of an argv; bare switches map to True."""
    out = {}
    i = 1
    while i < len(argv):
        name = argv[i]
        if i + 1 < len(argv) and not argv[i + 1].startswith("--"):
            out[name] = argv[i + 1]
            i += 2
        else:
            out[name] = True
            i += 1
    return out


def _read_csv(path: str):
    with open(path) as fh:
        header = fh.readline().strip().split(",")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return header, data


def _mismatch(what: str, got, want, rtol: float, atol: float = 0.0):
    got = np.asarray(got, dtype=float)
    want = np.broadcast_to(np.asarray(want, dtype=float), got.shape)
    bad = ~(np.abs(got - want) <= rtol * np.abs(want) + atol)
    if not bad.any():
        return None
    i = int(np.flatnonzero(bad)[0])
    return f"{what}: row {i} has {got.flat[i]!r}, expected {want.flat[i]!r}"


def _grid(f: dict, n_rows: int):
    lo, hi, points = float(f["--min"]), float(f["--max"]), int(f["--points"])
    if n_rows != points:
        return None
    if f.get("--log"):
        return np.logspace(np.log10(lo), np.log10(hi), points)
    return np.linspace(lo, hi, points)


# ------------------------------------------------------ waterfill reference

def _density(phi: float, shift: float) -> float:
    return 1.0 / (4.0 * math.sin(0.5 * math.pi * phi) ** 2) - shift


def _crossing(theta: float, shift: float) -> float:
    if theta <= 0.25 - shift:
        return 1.0
    return (2.0 / math.pi) * math.asin(0.5 / math.sqrt(theta + shift))


def _quad(f, a: float, b: float) -> float:
    return quad(f, a, b, limit=200, epsabs=0.0, epsrel=1e-12)[0]


def ref_rate(theta: float, shift: float) -> float:
    """(1/2) integral of log2+(S/theta) in bits per sample."""
    c = _crossing(theta, shift)
    return 0.5 * _quad(lambda p: math.log2(_density(p, shift) / theta), 0.0, c)


def ref_distortion(theta: float, shift: float) -> float:
    """integral of min{theta, S} over (0, 1]."""
    c = _crossing(theta, shift)
    tail = _quad(lambda p: _density(p, shift), c, 1.0) if c < 1.0 else 0.0
    return theta * c + tail


def ref_ce(theta: float) -> float:
    """integral of min{theta, S} (S - 1/6) / S on the unshifted density."""
    c = _crossing(theta, 0.0)
    head = _quad(lambda p: theta * (1.0 - SHIFT / _density(p, 0.0)), 0.0, c)
    tail = (_quad(lambda p: _density(p, 0.0) - SHIFT, c, 1.0)
            if c < 1.0 else 0.0)
    return head + tail


def ref_theta(rbar: float, shift: float) -> float:
    """Water level at rbar bits per sample by brentq on log theta."""
    centre = -2.0 * rbar * LN2
    log_theta = brentq(lambda lt: ref_rate(math.exp(lt), shift) - rbar,
                       centre - 10.0, centre + 45.0, xtol=1e-14, rtol=1e-15)
    return math.exp(log_theta)


# --------------------------------------------------------------- commands

def _check_curve(f: dict, header, data, check_row) -> list:
    col = dict(zip(header, data.T))
    x = col["x"]
    sigma2 = float(f.get("--sigma2", 1.0))
    ones = np.ones_like(x)
    if "--rate" in f:
        rate, fs = float(f["--rate"]) * ones, x
    else:
        rate, fs = x, float(f.get("--fs", 1.0)) * ones
    rbar = rate / fs
    unit = sigma2 / fs
    back = unit if f.get("--normalized") else 1.0
    d = {k: col[k] * back for k in
         ("d_opt", "d_ce", "d_upper", "d_w", "d_bar", "mmse")}

    problems = []
    grid = _grid(f, len(x))
    problems.append("grid: row count differs from --points" if grid is None
                    else _mismatch("grid", x, grid, EXACT_RTOL))
    slack = ORDERING_SLACK * np.maximum(1.0, np.abs(d["d_upper"]))
    ordered = ((np.maximum(d["mmse"], d["d_w"]) - slack <= d["d_opt"])
               & (d["d_opt"] <= d["d_ce"] + slack)
               & (d["d_ce"] + slack <= d["d_upper"] + 2 * slack)
               & (d["d_bar"] <= d["d_w"] + slack))
    if not ordered.all():
        problems.append(f"ordering: violated at row "
                        f"{int(np.flatnonzero(~ordered)[0])}")
    mmse = sigma2 / (6.0 * fs)
    problems += [
        _mismatch("mmse", d["mmse"], mmse, EXACT_RTOL),
        _mismatch("d_w", d["d_w"],
                  2.0 * sigma2 / (math.pi ** 2 * LN2 * rate), EXACT_RTOL),
        _mismatch("d_upper", d["d_upper"], mmse + d["d_bar"], EXACT_RTOL),
    ]
    # closed forms: unshifted water below its floor 1/4 from rbar 1 up,
    # shifted water below 1/12 from the border point up
    power = 2.0 ** (-2.0 * rbar)
    sat = rbar >= 1.0 + 1e-9
    problems += [
        _mismatch("d_bar closed form", d["d_bar"][sat], (unit * power)[sat],
                  CLOSED_FORM_RTOL),
        _mismatch("theta_ce closed form", col["theta_ce"][sat], power[sat],
                  CLOSED_FORM_RTOL),
        _mismatch("d_ce closed form", d["d_ce"][sat],
                  (mmse + (2.0 / 3.0) * unit * power)[sat], CLOSED_FORM_RTOL),
    ]
    past = rbar >= BORDER_RBAR + 1e-9
    tilde = (2.0 + math.sqrt(3.0)) / 6.0 * power
    problems += [
        _mismatch("d_tilde closed form", col["theta_opt"][past], tilde[past],
                  CLOSED_FORM_RTOL),
        _mismatch("d_opt closed form", d["d_opt"][past],
                  (mmse + unit * tilde)[past], CLOSED_FORM_RTOL),
    ]
    if check_row is not None and check_row < len(x):
        i = check_row
        th_ce, th_opt = col["theta_ce"][i], col["theta_opt"][i]
        problems += [
            _mismatch("quad rate(theta_ce)", ref_rate(th_ce, 0.0), rbar[i],
                      QUAD_RTOL, RATE_ATOL),
            _mismatch("quad rate(theta_opt)", ref_rate(th_opt, SHIFT),
                      rbar[i], QUAD_RTOL, RATE_ATOL),
            _mismatch("quad d_bar", d["d_bar"][i],
                      unit[i] * ref_distortion(th_ce, 0.0), QUAD_RTOL),
            _mismatch("quad d_opt", d["d_opt"][i],
                      mmse[i] + unit[i] * ref_distortion(th_opt, SHIFT),
                      QUAD_RTOL),
            _mismatch("quad d_ce", d["d_ce"][i],
                      mmse[i] + unit[i] * ref_ce(th_ce), QUAD_RTOL),
        ]
    return problems


def _check_ratio(f: dict, header, data, check_row) -> list:
    col = dict(zip(header, data.T))
    rbar, tilde = col["rbar"], col["d_tilde"]
    problems = []
    grid = _grid(f, len(rbar))
    problems.append("grid: row count differs from --points" if grid is None
                    else _mismatch("grid", rbar, grid, EXACT_RTOL))
    problems += [
        _mismatch("ratio_qnt", col["ratio_qnt"], 1.0 + 6.0 * tilde,
                  EXACT_RTOL),
        _mismatch("ratio_smp", col["ratio_smp"],
                  (math.pi ** 2 * LN2 / 2.0) * rbar * (SHIFT + tilde),
                  EXACT_RTOL),
    ]
    # d_opt >= d_w and d_ce >= d_opt, as ratios
    ordered = ((tilde > 0) & (col["ratio_smp"] >= 1.0 - ORDERING_SLACK)
               & (col["ce_penalty"] >= 1.0 - ORDERING_SLACK))
    if not ordered.all():
        problems.append(f"ordering: violated at row "
                        f"{int(np.flatnonzero(~ordered)[0])}")
    power = 2.0 ** (-2.0 * rbar)
    sat = rbar >= 1.0 + 1e-9
    past = rbar >= BORDER_RBAR + 1e-9
    problems += [
        _mismatch("ce_penalty closed form", col["ce_penalty"][sat],
                  ((SHIFT + (2.0 / 3.0) * power) / (SHIFT + tilde))[sat],
                  CLOSED_FORM_RTOL),
        _mismatch("d_tilde closed form", tilde[past],
                  ((2.0 + math.sqrt(3.0)) / 6.0 * power)[past],
                  CLOSED_FORM_RTOL),
    ]
    if check_row is not None and check_row < len(rbar):
        r = rbar[check_row]
        ref_tilde = ref_distortion(ref_theta(r, SHIFT), SHIFT)
        ref_pen = (SHIFT + ref_ce(ref_theta(r, 0.0))) / (SHIFT + ref_tilde)
        problems += [
            _mismatch("quad d_tilde", tilde[check_row], ref_tilde, QUAD_RTOL),
            _mismatch("quad ce_penalty", col["ce_penalty"][check_row],
                      ref_pen, QUAD_RTOL),
        ]
    return problems


def _check_eigen(f: dict, header, data) -> list:
    n = int(f["--n"])
    sigma2, fs = float(f.get("--sigma2", 1.0)), float(f.get("--fs", 1.0))
    if data.shape[0] != n:
        return [f"rows: {data.shape[0]} rows for --n {n}"]
    k, lam, limit = data.T
    phi = (np.arange(1, n + 1) - 0.5) / n
    s_bar = 1.0 / (4.0 * np.sin(0.5 * np.pi * phi) ** 2)
    if f["--kind"] == "discrete":
        trace = (sigma2 / fs) * n * (n + 1) / 2.0
        want_limit = (sigma2 / fs) * s_bar
    else:
        ts = 1.0 / fs
        trace = sigma2 * ts * ts * (n * n / 2.0 - n / 6.0)
        want_limit = sigma2 * ts * ts * (s_bar - SHIFT)
    problems = [
        _mismatch("k", k, np.arange(1, n + 1), 0.0),
        _mismatch("trace", lam.sum(), trace, TRACE_RTOL),
        _mismatch("density_limit", limit, want_limit, EXACT_RTOL),
    ]
    if not (np.all(lam > 0) and np.all(np.diff(lam) <= 0)):
        problems.append("order: eigenvalues not positive and non-increasing")
    return problems


def summary_values(stdout: str) -> dict:
    """The ``name=value`` pairs of the line ``simulate`` prints."""
    out = {}
    for token in stdout.split():
        name, sep, value = token.partition("=")
        if sep:
            out[name] = float(value)
    return out


def _check_simulate(f: dict, header, data, stdout: str) -> list:
    trials = int(f["--trials"])
    if data.shape[0] != trials:
        return [f"rows: {data.shape[0]} rows for --trials {trials}"]
    trial, dist = data.T
    problems = [_mismatch("trial", trial, np.arange(trials), 0.0)]
    if not (np.all(np.isfinite(dist)) and np.all(dist >= 0)):
        problems.append("rows: a distortion is not finite and >= 0")
    s = summary_values(stdout)
    if not {"estimate", "stderr", "reference", "z"} <= s.keys():
        return problems + [f"summary: cannot parse {stdout.strip()!r}"]
    # the printed estimate and reference carry 15 digits; near z = 0 their
    # difference loses them, hence the absolute slack
    rounding = 1e-13 * (abs(s["estimate"]) + abs(s["reference"])) / s["stderr"]
    problems += [
        _mismatch("estimate", s["estimate"], dist.mean(), 1e-9),
        _mismatch("printed z", s["z"],
                  (s["estimate"] - s["reference"]) / s["stderr"], 1e-9,
                  rounding),
    ]
    if not abs(s["z"]) <= Z_BOUND:
        problems.append(f"z: |z| = {abs(s['z']):.3g} exceeds {Z_BOUND}")
    return problems


def check_op(argv: list, csv_path: str, stdout: str = "",
             check_row=None) -> tuple:
    """(data rows, problems) for an op that exited 0."""
    f = flags(argv)
    if not os.path.exists(csv_path):
        return 0, ["output: no CSV written"]
    header, data = _read_csv(csv_path)
    command = argv[0]
    if command == "curve":
        problems = _check_curve(f, header, data, check_row)
    elif command == "ratio":
        problems = _check_ratio(f, header, data, check_row)
    elif command == "eigen":
        problems = _check_eigen(f, header, data)
    else:
        problems = _check_simulate(f, header, data, stdout)
    return data.shape[0], [p for p in problems if p]


def statistical(problems: list) -> bool:
    return all(p.startswith("z:") for p in problems)


def rerun_identical(main, argv: list, csv_path: str, scratch: str) -> list:
    """Run the op again in this process; its CSV must match byte for byte."""
    again = os.path.join(scratch, "rerun.csv")
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        code = main(list(argv) + ["--out", again])
    if code != 0:
        return [f"rerun: exit {code}"]
    if not filecmp.cmp(csv_path, again, shallow=False):
        return ["rerun: CSV differs from the first run"]
    return []
