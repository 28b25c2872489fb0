"""One benchmark child process: import the program, run ops, report.

Every run starts a fresh child, so the program's caches, lazy imports and
allocator start cold, as they do for a user of the command line.

    python3 bench/child.py CONFIG.json

The child prints ``ready`` on stdout as soon as ``wienerdr`` and
``wienerdr.cli`` are imported (the parent times its set-up up to that line)
and writes its result as JSON to the path the config names.  Ops run in a
closed loop with one client: each op is one ``wienerdr.cli.main`` call, and
the next starts when the previous one has returned.
"""

import contextlib
import io
import json
import os
import sys
import time

_now = time.perf_counter_ns

#: the re-anchor sizes: README commands at the stated point counts
ANCHOR_CURVE = ["curve", "--fs", "1", "--min", "0.25", "--max", "5",
                "--points", "200", "--log"]
ANCHOR_RATIO = ["ratio", "--min", "0.05", "--max", "8", "--points", "400",
                "--log"]
#: rbar of the cold bundle and the theta solve (crossing regime)
ANCHOR_RBAR = 0.5

#: small fixed ops, traced in every traced run; they stand in for a layer
#: that the workload itself never reaches
PROBE_OPS = [
    ["curve", "--fs", "1", "--min", "0.25", "--max", "5", "--points", "6",
     "--log"],
    ["ratio", "--min", "0.05", "--max", "8", "--points", "6", "--log"],
    ["eigen", "--kind", "interp", "--n", "1000"],
    ["eigen", "--kind", "discrete", "--n", "1000"],
    ["simulate", "--scheme", "mmse-only", "--fs", "2", "--horizon", "8",
     "--oversample", "64", "--trials", "300", "--seed", "7"],
    ["simulate", "--scheme", "test-channel", "--fs", "1", "--rbar", "2",
     "--horizon", "64", "--oversample", "32", "--trials", "200", "--seed",
     "11"],
]


def run_ops(main, ops, workdir: str, tracer=None, calibrate=None):
    """Run (index, op) pairs in a closed loop; return per-op records and
    the wall time of the whole list.

    With ``calibrate`` ("plain" or "threaded") a host-speed sample
    (``bench/calib.py``) follows each op, outside its timing, as ``cal_s``
    of its record.  The probe is first run after the first op, so that op
    stays as cold as a user's.
    """
    if calibrate:
        import calib
        threaded = calibrate == "threaded"
    records = []
    wall0 = _now()
    for index, op in ops:
        out = os.path.join(workdir, f"op{index}.csv")
        sink_out, sink_err = io.StringIO(), io.StringIO()
        if tracer is not None:
            tracer.op = index
        error = None
        with contextlib.redirect_stdout(sink_out), \
                contextlib.redirect_stderr(sink_err):
            t0 = _now()
            try:
                code = main(op["argv"] + ["--out", out])
            except Exception as exc:  # a raising op is a failed op
                code, error = None, f"{type(exc).__name__}: {exc}"
            t1 = _now()
        cal = None
        if calibrate:
            cal = (calib.sample(threaded) if records
                   else calib.warm(threaded))
        records.append({"index": index, "argv": op["argv"],
                        "template": op.get("template"),
                        "cycle": op.get("cycle"),
                        "check_row": op.get("check_row"),
                        "code": code, "error": error, "ns": t1 - t0,
                        "cal_s": cal,
                        "stdout": sink_out.getvalue(),
                        "stderr": sink_err.getvalue()[-2000:]})
    return records, _now() - wall0


def _stream(workload: str, seed: int, cycles: int, first: int):
    """First op, then ``cycles`` whole cycles from cycle ``first`` on: the
    same op list on every run of a seed, whatever the speed of the host."""
    import workloads

    yield 0, workloads.first_op(workload)
    index = 1
    for c in range(first, first + cycles):
        for op in workloads.cycle(workload, seed, c):
            yield index, op
            index += 1


def _versions() -> dict:
    import platform

    import numpy
    import scipy
    import wienerdr

    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "wienerdr": wienerdr.__version__}


def _ops_mode(cfg: dict, cli) -> dict:
    tracer = None
    main = cli.main
    if cfg.get("trace"):
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
        main = tracer.wrap("cli.main", cli.main)
    if cfg["mode"] == "argv":
        ops = enumerate({"argv": argv} for argv in cfg["ops"])
    else:
        ops = _stream(cfg["workload"], cfg["seed"], cfg["cycles"],
                      cfg.get("first_cycle", 0))
    records, wall = run_ops(main, ops, cfg["workdir"], tracer,
                            cfg.get("calibrate"))
    out = {"ops": records, "wall_ns": wall}
    if tracer is not None:
        from wienerdr import drf

        out["cache"] = tracing.cache_lookups(drf)
        out["missing_boundaries"] = tracer.missing
        tracer.save(cfg["spans"])
    return out


def _compute_phase_s(cli, argv: list) -> float:
    """Seconds in ``cli.main`` outside its CSV and manifest writes."""
    spent = [0]
    saved = {}
    for name in ("_write_csv_atomic", "_write_manifest"):
        fn = getattr(cli, name, None)
        if fn is None:
            continue
        saved[name] = fn

        def timed(*args, _fn=fn, **kwargs):
            t0 = _now()
            try:
                return _fn(*args, **kwargs)
            finally:
                spent[0] += _now() - t0

        setattr(cli, name, timed)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            t0 = _now()
            code = cli.main(argv)
            total = _now() - t0
    finally:
        for name, fn in saved.items():
            setattr(cli, name, fn)
    if code != 0:
        raise RuntimeError(f"anchor op {argv} exited {code}")
    return (total - spent[0]) / 1e9


def _quadrature_work(tracer, mark: int) -> tuple:
    """(integrand nodes, integrand passes) of the spans opened after mark."""
    if "quadrature.integrate_unit" not in tracer.names:
        return 0, 0
    quad_id = tracer.names.index("quadrature.integrate_unit")
    cols = tracer.cols
    nodes = passes = 0
    for i in range(mark, len(cols["name"])):
        if cols["name"][i] == quad_id:
            nodes += cols["size"][i]
            passes += cols["aux"][i]
    return nodes, passes


def _anchor_mode(cfg: dict, cli) -> dict:
    """Rows of the re-anchor table, then the traced probe ops.

    Each row calls the program directly; a row whose entry point a later
    version no longer offers is reported in ``errors`` instead.
    """
    import numpy as np

    import tracing
    from wienerdr import drf, mc, spectral, waterfill

    work = cfg["workdir"]
    params = spectral.ProcessParams(1.0, 1.0)

    def timed_ms(fn):
        t0 = _now()
        fn()
        return (_now() - t0) / 1e6

    def cold_bundle_ms():
        tracing.clear_caches(drf)
        return timed_ms(lambda: drf.bundle(params, drf.RateSpec(ANCHOR_RBAR)))

    def solve():
        waterfill.solve_theta_for_rate(spectral.SAMPLED_WIENER, ANCHOR_RBAR)

    def compute_s(key, argv):
        tracing.clear_caches(drf)
        return _compute_phase_s(
            cli, argv + ["--out", os.path.join(work, key + ".csv")])

    def philox_ms():
        def build():  # the per-trial generator contract stated in wienerdr.mc
            for k in range(2000):
                np.random.Generator(np.random.Philox(
                    np.random.SeedSequence(entropy=7, spawn_key=(k,))))
        return timed_ms(build)

    config = mc.SimConfig(horizon_t=8, oversample=64, trials=2000, seed=7)
    rows = {
        "bundle_cold_ms": cold_bundle_ms,
        "theta_solve_ms": lambda: float(np.median(
            [timed_ms(solve) for _ in range(5)])),
        "curve200_compute_s": lambda: compute_s("curve200", ANCHOR_CURVE),
        "ratio400_compute_s": lambda: compute_s("ratio400", ANCHOR_RATIO),
        "mmse2000_ms": lambda: timed_ms(lambda: mc.empirical_mmse(
            spectral.ProcessParams(1.0, 2.0), config)),
        "mmse2000_philox_ms": philox_ms,
    }
    out, errors = {}, {}

    def measure(key, fn):
        try:
            out[key] = fn()
        except Exception as exc:  # a row the program no longer offers
            errors[key] = f"{type(exc).__name__}: {exc}"

    for key, fn in rows.items():
        measure(key, fn)

    tracer = tracing.Tracer()
    tracing.install(tracer)

    def work_of(fn, index):
        mark = len(tracer.cols["name"])
        fn()
        return _quadrature_work(tracer, mark)[index]

    measure("bundle_cold_nodes", lambda: work_of(cold_bundle_ms, 0))
    measure("theta_solve_nodes", lambda: work_of(solve, 0))
    measure("theta_solve_passes", lambda: work_of(solve, 1))

    for column in tracer.cols.values():
        del column[:]
    tracing.clear_caches(drf)
    main = tracer.wrap("cli.main", cli.main)
    records, _ = run_ops(main, enumerate({"argv": a} for a in PROBE_OPS),
                         work, tracer)
    tracer.save(cfg["spans"])
    return {"anchors": out, "errors": errors, "ops": records,
            "cache": tracing.cache_lookups(drf)}


def main(config_path: str) -> int:
    with open(config_path) as fh:
        cfg = json.load(fh)
    t0 = time.perf_counter()
    import wienerdr
    import wienerdr.cli as cli
    import_s = time.perf_counter() - t0
    sys.stdout.write("ready\n")
    sys.stdout.flush()

    src = os.path.realpath(cfg["src"])
    if not os.path.realpath(wienerdr.__file__).startswith(src + os.sep):
        print(f"wienerdr imported from {wienerdr.__file__}, not {src}",
              file=sys.stderr)
        return 4
    if cfg["mode"] == "anchor":
        result = _anchor_mode(cfg, cli)
    else:
        result = _ops_mode(cfg, cli)
    result.update(import_s=import_s, versions=_versions())
    with open(cfg["result"], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
