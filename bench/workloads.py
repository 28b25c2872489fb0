"""Seeded op generators for the benchmark workloads.

An op is the argv of one ``wienerdr`` command (without ``--out``).  A
workload is an endless sequence of cycles; each cycle runs every template of
the workload once, in a seeded order, with seeded parameters jittered inside
the template's band.  Keeping the mix of templates fixed per cycle, and
stopping runs at cycle boundaries, is what keeps the medians and tails of a
run steady from seed to seed while the inputs still differ.

Cycle ``c`` of a workload depends only on (workload, seed, c), so a parent
commit and a change replay identical inputs whatever their speed.
"""

from __future__ import annotations

import hashlib
import json
import math
import random

#: bits per sample at which ``bundle`` fails at the commit that defined the
#: benchmark (ValueError / QuadratureError from 267 up)
RBAR_FAILURE_EDGE = 267.0

#: points of every sweep op
SWEEP_POINTS = 10

#: first op of every run, the same in every run of the workload, so that
#: lazy set-up moved out of the import shows up in ``first_op_ms``
FIRST_OPS = {
    "sweep": ["curve", "--fs", "1", "--min", "0.5", "--max", "2",
              "--points", "4", "--log"],
    "trials": ["simulate", "--scheme", "mmse-only", "--fs", "1",
               "--horizon", "16", "--oversample", "16", "--trials", "500",
               "--seed", "1"],
    "kl": ["eigen", "--kind", "discrete", "--n", "1000"],
}


def _g(x: float) -> str:
    return format(x, ".6g")


def _loguniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _jitter(rng: random.Random, value: int, rel: float) -> int:
    return max(2, round(value * rng.uniform(1.0 - rel, 1.0 + rel)))


# --------------------------------------------------------------------- sweep

def _sweep_op(rng: random.Random, shape: str, high: bool) -> dict:
    lo = _loguniform(rng, 1.05e-4, 0.3)       # crossing regime at the low end
    hi = (_loguniform(rng, 300.0, 1000.0) if high  # past the failure edge
          else _loguniform(rng, 3.0, 200.0))       # saturated regime
    sigma2 = _loguniform(rng, 0.1, 10.0)
    points = ["--points", str(SWEEP_POINTS), "--log"]
    if shape == "curve-vs-rate":
        fs = _loguniform(rng, 0.1, 100.0)
        argv = ["curve", "--sigma2", _g(sigma2), "--fs", _g(fs),
                "--min", _g(lo * fs), "--max", _g(hi * fs)] + points
    elif shape == "curve-vs-fs":
        rate = _loguniform(rng, 0.1, 100.0)
        argv = ["curve", "--sigma2", _g(sigma2), "--rate", _g(rate),
                "--min", _g(rate / hi), "--max", _g(rate / lo)] + points
    else:
        argv = ["ratio", "--min", _g(lo), "--max", _g(hi)] + points
    return {"argv": argv, "check_row": rng.randrange(SWEEP_POINTS)}


def _sweep_cycle(rng: random.Random) -> list:
    shapes = ["curve-vs-rate", "curve-vs-rate", "curve-vs-fs", "curve-vs-fs",
              "ratio", "ratio"]
    ops = [dict(_sweep_op(rng, s, False), template=s) for s in shapes]
    high = rng.choice(["curve-vs-rate", "curve-vs-fs", "ratio"])
    ops.append(dict(_sweep_op(rng, high, True), template=high + "-high"))
    return ops


# -------------------------------------------------------------------- trials

def _simulate_argv(rng: random.Random, scheme: str, blocks: int,
                   oversample: int, trials: int, rbar_band, fs_band) -> list:
    fs = _g(_loguniform(rng, *fs_band))
    argv = ["simulate", "--scheme", scheme,
            "--sigma2", _g(_loguniform(rng, 0.25, 4.0)), "--fs", fs,
            "--horizon", repr(blocks / float(fs)),
            "--oversample", str(oversample), "--trials", str(trials),
            "--seed", str(rng.randrange(2 ** 32))]
    if rbar_band is not None:
        argv += ["--rbar", _g(rng.uniform(*rbar_band))]
    return argv


#: (template, scheme, horizon*fs, oversample, trials, rbar band); horizon*fs
#: stays <= 64.  The test-channel templates keep --oversample >= 16 and
#: rbar >= 0.5: there the printed z is honest to within about 2 (grid bias
#: and the midpoint reference are both small against the stderr), so no op
#: of this workload is expected to fail.
TRIALS_TEMPLATES = [
    ("mmse-8", "mmse-only", 8, 64, 2000, None),
    ("mmse-32", "mmse-only", 32, 16, 2000, None),
    ("mmse-64", "mmse-only", 64, 8, 2500, None),
    ("tc-16", "test-channel", 16, 16, 2000, (0.5, 1.0)),
    ("tc-48", "test-channel", 48, 32, 2000, (1.0, 4.0)),
]


def _trials_cycle(rng: random.Random) -> list:
    ops = []
    for name, scheme, blocks, oversample, trials, band in TRIALS_TEMPLATES:
        blocks = min(64, _jitter(rng, blocks, 0.03))
        argv = _simulate_argv(rng, scheme, blocks, oversample,
                              _jitter(rng, trials, 0.02), band, (0.5, 4.0))
        ops.append({"argv": argv, "template": name})
    return ops


# ------------------------------------------------------------------------ kl

#: (template, kind, n); n is jittered by 1%, so the largest eigen templates
#: stay above 4096.  The two largest cost about the same, so the tail of a
#: run sits inside their shared cluster; the other five are spaced so that
#: the median falls inside one cluster (tc-grid).  ``tc-grid`` is a long block
#: at --oversample 4, where the grid bias dominates the printed z; it fails
#: the z check for as long as the test-channel z mixes in the grid bias.
KL_EIGEN_TEMPLATES = [
    ("eig-discrete-1500", "discrete", 1500),
    ("eig-interp-2500", "interp", 2500),
    ("eig-interp-4200", "interp", 4200),
    ("eig-discrete-5000", "discrete", 5000),
]
KL_CHANNEL_TEMPLATES = [
    ("tc-fine", 1200, 32, 12, (0.5, 1.0)),
    ("tc-coarse", 1000, 8, 16, (0.7, 1.2)),
    ("tc-grid", 1500, 4, 32, (1.8, 2.5)),
]


def _kl_cycle(rng: random.Random) -> list:
    ops = []
    for name, kind, n in KL_EIGEN_TEMPLATES:
        argv = ["eigen", "--kind", kind,
                "--sigma2", _g(_loguniform(rng, 0.25, 4.0)),
                "--fs", _g(_loguniform(rng, 0.5, 4.0)),
                "--n", str(_jitter(rng, n, 0.01))]
        ops.append({"argv": argv, "template": name})
    for name, blocks, oversample, trials, band in KL_CHANNEL_TEMPLATES:
        argv = _simulate_argv(rng, "test-channel", _jitter(rng, blocks, 0.03),
                              oversample, _jitter(rng, trials, 0.03), band,
                              (0.5, 2.0))
        ops.append({"argv": argv, "template": name})
    return ops


#: workloads whose ops run on the BLAS thread pool (eigensystems in the
#: thousands), so that their host-speed samples include a threaded probe
THREADED = {"kl"}

_CYCLES = {"sweep": _sweep_cycle, "trials": _trials_cycle, "kl": _kl_cycle}
WORKLOADS = tuple(_CYCLES)


def cycle(workload: str, seed: int, index: int) -> list:
    """Ops of cycle ``index``: every template once, in a seeded order."""
    rng = random.Random(f"{workload}/{seed}/{index}")
    ops = _CYCLES[workload](rng)
    rng.shuffle(ops)
    for op in ops:
        op["cycle"] = index
    return ops


def first_op(workload: str) -> dict:
    return {"argv": list(FIRST_OPS[workload]), "template": "first",
            "cycle": -1, "check_row": 0}


def ops_digest(workload: str, seed: int, cycles: int = 64) -> str:
    """sha256 of the first ``cycles`` cycles: names the input stream."""
    h = hashlib.sha256()
    for op in [first_op(workload)] + [op for c in range(cycles)
                                      for op in cycle(workload, seed, c)]:
        h.update(json.dumps(op, sort_keys=True).encode())
    return h.hexdigest()
