"""Spans around the calls into each layer of ``wienerdr``.

The program is not edited: ``install`` rebinds the public functions at each
point where one layer calls the next to traced wrappers, in every module of
the package that holds them.  A span is (name, start, end, parent, op, size,
aux) and lives in flat in-memory arrays until ``save`` writes them out, so
tracing costs a few appends per call and no I/O.

``size`` and ``aux`` carry the counts recorded at the same boundary: points
passed to a density, integrand nodes and integrand passes of a quadrature
call, bytes held by an eigensystem, trials of a simulation.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array

import numpy as np

_now = time.perf_counter_ns


def _points(args, kwargs, result):
    return int(np.size(args[0]))


def _eig_bytes(args, kwargs, result):
    total = 0
    for value in vars(result).values():
        if isinstance(value, np.ndarray):
            total += value.nbytes
    return total


def _trials(args, kwargs, result):
    return len(result.per_trial)


#: (module, public function, size counter): the entry points into each layer
#: that the command line reaches, plus the waterfill functions whose calls
#: per theta solve are counted; the span is named "<layer>.<function>" after
#: the module that defines the function
BOUNDARIES = [
    ("spectral", "s_bar", _points),
    ("spectral", "s_tilde_density", _points),
    ("spectral", "discrete_wiener_eigensystem", _eig_bytes),
    ("spectral", "interp_kernel_eigensystem", _eig_bytes),
    ("waterfill", "solve_theta_for_rate", None),
    ("waterfill", "rate_at_theta", None),
    ("waterfill", "distortion_at_theta", None),
    ("waterfill", "integrate_on_unit", None),
    ("drf", "bundle", None),
    ("drf", "d_tilde", None),
    ("drf", "ratio_smp", None),
    ("drf", "ratio_qnt", None),
    ("drf", "ce_penalty", None),
    ("mc", "empirical_mmse", _trials),
    ("mc", "mc_test_channel_run", _trials),
    ("mc", "path_for_trial", None),
    ("mc", "finite_waterfill_theta", None),
    ("mc", "ce_moment_oracle", None),
    ("mc", "ce_distortion_estimate", None),
]


class Tracer:
    """In-memory span store; one per traced process."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.cols = {key: array("q") for key in
                     ("name", "start", "end", "parent", "op", "size", "aux")}
        self._stack: list[int] = []
        self.op = -1
        self.missing: list[str] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        c = self.cols
        idx = len(c["start"])
        c["name"].append(nid)
        c["parent"].append(self._stack[-1] if self._stack else -1)
        c["op"].append(self.op)
        c["start"].append(0)
        c["end"].append(0)
        c["size"].append(0)
        c["aux"].append(0)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, t0: int, t1: int) -> None:
        self._stack.pop()
        self.cols["start"][idx] = t0
        self.cols["end"][idx] = t1

    def wrap(self, name: str, fn, size_of=None):
        nid = self._id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(nid)
            t0 = _now()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx, t0, _now())
            if size_of is not None:
                self.cols["size"][idx] = size_of(args, kwargs, result)
            return result

        return traced

    def wrap_quadrature(self, fn):
        """Span around ``integrate_unit``; counts the nodes and passes that
        reach the integrand."""
        nid = self._id("quadrature.integrate_unit")
        cols = self.cols

        @functools.wraps(fn)
        def traced(f, *args, **kwargs):
            idx = self._open(nid)

            def counted(x):
                cols["size"][idx] += np.size(x)
                cols["aux"][idx] += 1
                return f(x)

            t0 = _now()
            try:
                return fn(counted, *args, **kwargs)
            finally:
                self._close(idx, t0, _now())

        return traced

    def save(self, path: str) -> None:
        np.savez(path, names=np.array(self.names, dtype=str),
                 **{k: np.frombuffer(v, dtype=np.int64) if len(v) else
                    np.zeros(0, dtype=np.int64) for k, v in self.cols.items()})


def _rebind(original, traced) -> None:
    """Point every module of the package that holds ``original`` at ``traced``."""
    for name, module in list(sys.modules.items()):
        if module is None or name.split(".")[0] != "wienerdr":
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, traced)


def _find(layer: str, fn_name: str):
    try:
        module = importlib.import_module(f"wienerdr.{layer}")
    except ImportError:
        return None
    return getattr(module, fn_name, None)


def install(tracer: Tracer) -> None:
    """Wrap every boundary function that exists; record the ones that do not."""
    for layer, fn_name, size_of in BOUNDARIES + [("quadrature",
                                                  "integrate_unit", None)]:
        original = _find(layer, fn_name)
        if original is None:
            tracer.missing.append(f"{layer}.{fn_name}")
        elif layer == "quadrature":
            _rebind(original, tracer.wrap_quadrature(original))
        else:
            _rebind(original,
                    tracer.wrap(f"{layer}.{fn_name}", original, size_of))


def cache_lookups(module) -> tuple[int, int]:
    """(hits, misses) summed over the module's ``functools`` caches."""
    hits = misses = 0
    for value in vars(module).values():
        info = getattr(value, "cache_info", None)
        if callable(info):
            stats = info()
            hits += stats.hits
            misses += stats.misses
    return hits, misses


def clear_caches(module) -> None:
    for value in vars(module).values():
        clear = getattr(value, "cache_clear", None)
        if callable(clear):
            clear()


# ------------------------------------------------------------------ analysis

def load(path: str) -> dict:
    with np.load(path) as data:
        return {key: data[key] for key in data.files}


def _p50(values) -> float:
    return float(np.median(values))


def layer_metrics(spans: dict, ratio_rows: dict) -> dict:
    """Per-layer times and counts from one traced pass.

    ``ratio_rows`` maps the index of each successful ``ratio`` op to its row
    count.  A metric whose spans never occurred is None.  Self time is a
    span's duration minus the time its direct child spans cover.
    """
    names = [str(n) for n in spans["names"]]
    nid, parent, op = spans["name"], spans["parent"], spans["op"]
    size, aux = spans["size"], spans["aux"]
    dur = (spans["end"] - spans["start"]).astype(float)
    n = len(dur)
    nested = parent >= 0
    child_ns = np.bincount(parent[nested], weights=dur[nested], minlength=n)
    self_ns = dur - child_ns
    layer = np.array([s.split(".")[0] for s in names] + [""])[nid]

    def is_(*span_names):
        ids = [names.index(s) for s in span_names if s in names]
        return np.isin(nid, ids)

    def self_ms(name):
        sel = layer == name
        return float(self_ns[sel].sum() / 1e6) if sel.any() else None

    def parent_is(sel):
        out = np.zeros(n, dtype=bool)
        out[nested] = sel[parent[nested]]
        return out

    m = {}
    dens = is_("spectral.s_bar", "spectral.s_tilde_density")
    points = int(size[dens].sum())
    m["spectral.density_points"] = points or None
    m["spectral.density_ns_per_point"] = (float(dur[dens].sum() / points)
                                          if points else None)
    eig = is_("spectral.discrete_wiener_eigensystem",
              "spectral.interp_kernel_eigensystem")
    m["spectral.eig_ms"] = _p50(dur[eig]) / 1e6 if eig.any() else None
    m["spectral.eig_bytes"] = int(size[eig].max()) if eig.any() else None
    m["spectral.self_ms"] = self_ms("spectral")

    quad = is_("quadrature.integrate_unit")
    m["quadrature.calls"] = int(quad.sum()) or None
    m["quadrature.nodes"] = int(size[quad].sum()) or None
    m["quadrature.passes"] = int(aux[quad].sum()) or None
    m["quadrature.self_ms"] = self_ms("quadrature")

    solve = is_("waterfill.solve_theta_for_rate")
    rate = is_("waterfill.rate_at_theta") & parent_is(solve)
    evals = np.bincount(parent[rate], minlength=n)[solve]
    m["waterfill.solves"] = int(solve.sum()) or None
    m["waterfill.rate_evals_per_solve_mean"] = (float(evals.mean())
                                                if solve.any() else None)
    m["waterfill.rate_evals_per_solve_max"] = (int(evals.max())
                                               if solve.any() else None)
    m["waterfill.solve_ms"] = _p50(dur[solve]) / 1e6 if solve.any() else None
    m["waterfill.self_ms"] = self_ms("waterfill")

    bundle = is_("drf.bundle")
    m["drf.bundle_ms"] = _p50(dur[bundle]) / 1e6 if bundle.any() else None
    top_drf = (layer == "drf") & parent_is(is_("cli.main"))
    in_ratio = top_drf & np.isin(op, list(ratio_rows))
    rows = sum(ratio_rows.values())
    m["drf.ratio_row_ms"] = (float(dur[in_ratio].sum() / 1e6 / rows)
                             if in_ratio.any() and rows else None)
    ce = is_("waterfill.integrate_on_unit") & parent_is(layer == "drf")
    m["drf.ce_ms"] = float(dur[ce].sum() / 1e6) if ce.any() else None
    m["drf.self_ms"] = self_ms("drf")

    sims = is_("mc.empirical_mmse", "mc.mc_test_channel_run") & (size > 0)
    not_trial = parent_is(sims) & ~is_("mc.path_for_trial")
    set_up_ns = np.bincount(parent[not_trial], weights=dur[not_trial],
                            minlength=n)
    trials = int(size[sims].sum())
    m["mc.trial_us"] = (float((dur[sims] - set_up_ns[sims]).sum() / 1e3
                              / trials) if trials else None)
    for key, name, scale in (("mc.path_us", "mc.path_for_trial", 1e3),
                             ("mc.oracle_ms", "mc.ce_moment_oracle", 1e6),
                             ("mc.finite_waterfill_us",
                              "mc.finite_waterfill_theta", 1e3)):
        sel = is_(name)
        m[key] = _p50(dur[sel]) / scale if sel.any() else None
    m["mc.self_ms"] = self_ms("mc")
    m["cli.self_ms"] = self_ms("cli")
    return m


def span_counts(spans: dict) -> dict:
    """Calls per boundary, the counts that sit beside the span times."""
    names = [str(n) for n in spans["names"]]
    counts = np.bincount(spans["name"], minlength=len(names))
    return {name: int(c) for name, c in zip(names, counts)}
