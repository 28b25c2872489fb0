"""Host-speed calibration for the benchmark's timed metrics.

A shared host runs the same code up to 1.4-1.7x slower in phases that last
from under a second to minutes, in CPU time as much as in wall time, so a
run that lands in a slow phase reads slow whatever the program does.
``sample`` times a fixed probe that never calls the program: a pure-Python
loop, numpy calls on a short array and a numpy ``exp`` over an array that
fits in the L2 cache, the kinds of work the program's ops are made of.  No
single probe tracked the ops best in every test: fitted beside the three
workloads' ops in one process, and across fresh processes running the same
sweep ops, the best-tracking probe changed from test to test (small LAPACK
solves, Python function calls, large arrays and scattered loads tracked
worse), so the sample is the geometric mean of the three.  They run on one
thread: a probe that woke the BLAS thread pool would leave it spinning on
the other CPU while the next op runs.  Where the ops themselves run on the
BLAS thread pool (large eigensystems), their speed also depends on the
other CPU, which a one-thread probe does not see; there the sample adds
matrix products on the pool (``threaded``), which tracked those ops across
fresh processes with a correlation of 0.9 against 0.66 without.  A time
measured beside a sample is rescaled to the speed of the reference host:

    normalized = measured * REFERENCE_S / sample

so a slow phase slows the probe and the op alike and cancels, while a change
to the program moves the op alone.  Raw times stay in the benchmark record.
"""

from __future__ import annotations

import time

import numpy as np

#: median of the samples taken beside the ops of a sweep run on the host the
#: benchmark was defined on (2 vCPUs of a shared x86-64 server, Python 3.11,
#: numpy with OpenBLAS; deciles 2.6-4.5 ms); normalized times read in that
#: host's milliseconds and seconds at about its median speed
REFERENCE_S = 3.6e-3

_VECTOR = np.random.default_rng(20160815).random(50_000)
_SHORT = _VECTOR[:2000]
_MATRIX = np.random.default_rng(20160816).random((400, 400))


def _python():
    total = 0
    for i in range(40000):
        total += i * i
    return total


def _short():
    total = 0.0
    for _ in range(200):
        total += float(np.sin(_SHORT).sum())
    return total


def _vector():
    total = 0.0
    for _ in range(40):
        total += float(np.exp(_VECTOR).sum())
    return total


def _threaded():
    for _ in range(2):
        _MATRIX @ _MATRIX


def sample(threaded: bool = False) -> float:
    """Geometric mean of the probe times, in seconds."""
    probes = (_python, _short, _vector) + ((_threaded,) if threaded else ())
    product = 1.0
    for probe in probes:
        t0 = time.perf_counter()
        probe()
        product *= time.perf_counter() - t0
    return product ** (1.0 / len(probes))


def warm(threaded: bool = False) -> float:
    """A sample after one discarded sample, for a process that has not run
    the probe yet."""
    sample(threaded)
    return sample(threaded)
