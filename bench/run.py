"""Benchmark of the ``wienerdr`` command line.

    python3 bench/run.py --workload sweep --seed 1 --seconds 15 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 15 --trace 1

Workloads (``bench/workloads.py``): ``sweep`` (analytic curve and ratio
sweeps), ``trials`` (short-block Monte-Carlo runs with thousands of trials)
and ``kl`` (large eigensystems and long-block test-channel runs).  Each op is
one ``wienerdr.cli.main`` call generated from --seed; ops run in a closed
loop with one client inside fresh child processes (``bench/child.py``), run
one after the other.

A run replays a fixed op list, round(--seconds / NOMINAL_CYCLE_S) cycles of
the workload, so the same seed gives the same ops and the same failures.
``--trace 0`` times the run untraced and reports the end-to-end metrics:
set-up, rows per second, op latency (median and tail), first-op latency,
peak RSS of the child and the share of ops that succeeded (the table also
prints ``fail_share``, its complement).  Its times are normalized to the
reference host speed by host-speed samples taken beside every op and every
spawn (``bench/calib.py``); the raw times are in the record and the table.
``--trace 1`` runs a fixed number of cycles traced, and the same cycles
untraced in two halves around it, and reports the per-layer metrics, the
tracing overhead and the re-anchor rows.
Outputs are checked after the timed region (``bench/checks.py``); a wrong
output fails its op.  The benchmark's own tests: ``python3 -m pytest
bench/tests``.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  A full record (provenance, op
list digest, per-op outcomes, failure causes) is written to ``bench/out/``,
beside the spans of the last traced run of each workload.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

#: fresh children per untraced run, run one after the other, each with the
#: first op and its share of the run's cycles.  Spreading the op list over
#: several processes averages out what one process's luck (where its memory
#: lands, its hash seed) does to every op it runs.  setup_s is the median
#: over the children; first_op_ms the mean of their first ops without the
#: fastest and the slowest
CHILDREN = 9

#: wall seconds of one cycle, host-speed samples included, at the commit
#: that defined the benchmark.  An untraced run has round(--seconds / this)
#: cycles and a traced run half as many, so every run of a seed replays the
#: same op list (and fails the same ops) whatever the speed of the host
NOMINAL_CYCLE_S = {"sweep": 2.2, "trials": 1.1, "kl": 2.6}

#: a child that has not exited after this long is killed
CHILD_TIMEOUT_S = 170.0

END_TO_END = [  # (name, unit)
    ("setup_s", "s"),
    ("rows_per_s", "rows/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("first_op_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("ok_share", "ratio"),
]

PER_LAYER = [  # (name, unit)
    ("spectral.density_points", "count"),
    ("spectral.density_ns_per_point", "ns"),
    ("spectral.eig_ms", "ms"),
    ("spectral.eig_bytes", "bytes"),
    ("spectral.self_ms", "ms"),
    ("quadrature.calls", "count"),
    ("quadrature.nodes", "count"),
    ("quadrature.passes", "count"),
    ("quadrature.self_ms", "ms"),
    ("waterfill.solves", "count"),
    ("waterfill.rate_evals_per_solve_mean", "count"),
    ("waterfill.rate_evals_per_solve_max", "count"),
    ("waterfill.solve_ms", "ms"),
    ("waterfill.self_ms", "ms"),
    ("drf.bundle_ms", "ms"),
    ("drf.ratio_row_ms", "ms"),
    ("drf.ce_ms", "ms"),
    ("drf.cache_hit_ratio", "ratio"),
    ("drf.self_ms", "ms"),
    ("mc.trial_us", "us"),
    ("mc.path_us", "us"),
    ("mc.oracle_ms", "ms"),
    ("mc.finite_waterfill_us", "us"),
    ("mc.self_ms", "ms"),
    ("cli.self_ms", "ms"),
    ("cli.bytes_written", "bytes"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.spans", "count"),
    ("anchor.import_s", "s"),
    ("anchor.bundle_cold_ms", "ms"),
    ("anchor.bundle_cold_nodes", "count"),
    ("anchor.theta_solve_ms", "ms"),
    ("anchor.theta_solve_passes", "count"),
    ("anchor.theta_solve_nodes", "count"),
    ("anchor.curve200_compute_s", "s"),
    ("anchor.ratio400_compute_s", "s"),
    ("anchor.eigen5000_discrete_rss_mb", "MB"),
    ("anchor.eigen5000_interp_rss_mb", "MB"),
    ("anchor.mmse2000_ms", "ms"),
    ("anchor.mmse2000_philox_ms", "ms"),
]

sys.path.insert(0, str(BENCH))
import calib  # noqa: E402
import checks  # noqa: E402
import workloads  # noqa: E402


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def tail_latency(values: list) -> tuple:
    """(value, percentile, samples): the highest nearest-rank percentile
    with at least 10 samples beyond it.  With 10 samples or fewer there is
    no such percentile and the maximum is reported as percentile 100."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n


# ------------------------------------------------------------ child process

def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    return env


def spawn(cfg: dict, work: Path) -> dict:
    """Run one child to completion; (set-up seconds, peak RSS, result)."""
    work.mkdir(parents=True, exist_ok=True)
    cfg = dict(cfg, src=str(SRC), workdir=str(work),
               result=str(work / "result.json"),
               spans=str(work / "spans.npz"))
    cfg_path = work / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    cal = calib.sample() if cfg.get("calibrate") else None
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(BENCH / "child.py"),
                             str(cfg_path)], stdout=subprocess.PIPE,
                            stdin=subprocess.DEVNULL, env=_child_env(),
                            cwd=ROOT)
    timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        line = proc.stdout.readline()
        ready = time.perf_counter()
        proc.stdout.read()
    except BaseException:
        proc.kill()
        raise
    finally:
        timer.cancel()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        proc.stdout.close()
    if line.strip() != b"ready" or proc.returncode != 0:
        raise BenchError(f"child {cfg['mode']} exited {proc.returncode}")
    result = json.loads((work / "result.json").read_text())
    return {"setup_s": ready - t0, "rss_mb": usage.ru_maxrss / 1024.0,
            "cal_s": cal, "result": result, "work": work}


# ------------------------------------------------------------------ checks

def judge(records: list, work: Path) -> list:
    """Outcome of every op: rows written, how it failed, bytes written.

    ``kind`` is None for a success, ``exit`` or ``raised`` when the program
    refused or crashed, ``z`` when only the statistical z bound failed and
    ``wrong`` when an output contradicts a formula, ordering or rerun.
    """
    outcomes = []
    for rec in records:
        csv = work / f"op{rec['index']}.csv"
        rows, kind, reason = 0, None, None
        if rec["error"] is not None:
            kind, reason = "raised", rec["error"]
        elif rec["code"] != 0:
            last = rec["stderr"].strip().splitlines()
            kind = "exit"
            reason = f"exit {rec['code']}: {last[-1] if last else ''}"
        else:
            try:
                rows, problems = checks.check_op(
                    rec["argv"], str(csv), rec["stdout"], rec["check_row"])
            except (KeyError, ValueError, IndexError) as exc:
                rows, problems = 0, [f"output: unreadable CSV ({exc!r})"]
            if problems:
                kind = "z" if checks.statistical(problems) else "wrong"
                reason, rows = "; ".join(problems), 0
        written = sum(p.stat().st_size for p in
                      (csv, Path(str(csv) + ".manifest.json")) if p.exists())
        outcomes.append({"index": rec["index"], "template": rec["template"],
                         "cycle": rec.get("cycle"),
                         "argv": rec["argv"], "ms": rec["ns"] / 1e6,
                         "cal_s": rec.get("cal_s"),
                         "rows": rows, "csv": str(csv),
                         "failed": kind is not None,
                         "kind": kind, "reason": reason, "bytes": written})
    return outcomes


def rerun_check(outcomes: list) -> list:
    """Rerun the first successful simulate op; byte-identical or fail it."""
    sims = [o for o in outcomes if o["argv"][0] == "simulate"
            and not o["failed"]]
    if not sims:
        return []
    op = sims[0]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from wienerdr import cli

    problems = checks.rerun_identical(cli.main, op["argv"], op["csv"],
                                      str(Path(op["csv"]).parent))
    if problems:
        op.update(failed=True, kind="wrong", reason="; ".join(problems),
                  rows=0)
    return [op["index"]]


def verdict(outcomes: list) -> dict:
    """Counts, and ``correct``: no op that exited 0 contradicted a formula,
    an ordering or its rerun.  Refusals and z-bound failures are failed ops
    but not wrong outputs."""
    failed = [o for o in outcomes if o["failed"]]
    causes = {}
    for o in failed:
        key = f"{o['template']}: {o['kind']}: {o['reason'][:80]}"
        causes[key] = causes.get(key, 0) + 1
    return {"attempted": len(outcomes), "failed": len(failed),
            "correct": not any(o["kind"] == "wrong" for o in failed),
            "causes": causes}


# ---------------------------------------------------------------- measuring

def normalized(seconds: float, cals: list) -> float:
    """A time rescaled to the reference host speed by the host-speed
    samples taken beside it (``bench/calib.py``)."""
    return seconds * calib.REFERENCE_S / statistics.mean(cals)


def plain_cycles(workload: str, seconds: float) -> int:
    return max(1, round(seconds / NOMINAL_CYCLE_S[workload]))


def measure_plain(workload: str, seed: int, seconds: float,
                  work: Path) -> dict:
    """End-to-end metrics of one untraced run.

    The run's cycles are split in order over ``CHILDREN`` children.  The
    cycles' ops are the run's op list, which rows_per_s, op_p50_ms and
    op_tail_ms describe; the cold first op of each child is a sample of
    first_op_ms only, so that the median and the tail do not move with the
    number of children.  Every time is normalized to the reference host
    speed: an op by the samples taken just before and just after it, the
    set-up of a child by the sample taken just before its spawn.  (A sample
    after a first op that ran multi-threaded BLAS, as kl's does, reads the
    BLAS threads still spinning on the other CPU, not the host.)
    """
    cycles = plain_cycles(workload, seconds)
    setups, raw_setups, firsts, raw_firsts = [], [], [], []
    outcomes, latencies, cals, runs = [], [], [], []
    for k in range(CHILDREN):
        lo, hi = k * cycles // CHILDREN, (k + 1) * cycles // CHILDREN
        run = spawn({"mode": "ops", "workload": workload, "seed": seed,
                     "cycles": hi - lo, "first_cycle": lo,
                     "calibrate": ("threaded" if workload in
                                   workloads.THREADED else "plain")},
                    work / f"child{k}")
        runs.append(run)
        ops = run["result"]["ops"]
        near = [r["cal_s"] for r in ops]
        latencies += [normalized(r["ns"] / 1e6, near[i - 1:i + 1])
                      for i, r in enumerate(ops) if i > 0]
        cals += near
        raw_setups.append(run["setup_s"])
        setups.append(normalized(run["setup_s"], [run["cal_s"]]))
        raw_firsts.append(ops[0]["ns"] / 1e6)
        firsts.append(normalized(ops[0]["ns"] / 1e6, near[:1]))
        outcomes += [dict(o, child=k) for o in judge(ops, run["work"])]
    reran = rerun_check(outcomes)
    v = verdict(outcomes)
    tail, pct, samples = tail_latency(latencies)
    rows = sum(o["rows"] for o in outcomes if o["cycle"] >= 0)
    metrics = {
        "setup_s": statistics.median(setups),
        "rows_per_s": rows / (sum(latencies) / 1e3),
        "op_p50_ms": statistics.median(latencies),
        "op_tail_ms": tail,
        "first_op_ms": statistics.mean(sorted(firsts)[1:-1]),
        "peak_rss_mb": max(run["rss_mb"] for run in runs),
        "ok_share": 1.0 - v["failed"] / v["attempted"],
    }
    raw_ms = [o["ms"] for o in outcomes if o["cycle"] >= 0]
    detail = {"tail_percentile": pct, "tail_samples": samples,
              "fail_share": v["failed"] / v["attempted"],
              "host_speed": calib.REFERENCE_S / statistics.median(cals),
              "raw": {"setup_s": statistics.median(raw_setups),
                      "rows_per_s": rows / (sum(raw_ms) / 1e3),
                      "op_p50_ms": statistics.median(raw_ms),
                      "op_tail_ms": tail_latency(raw_ms)[0],
                      "first_op_ms": statistics.mean(
                          sorted(raw_firsts)[1:-1])},
              "setup_samples_s": setups, "first_op_samples_ms": firsts,
              "cycles": cycles, "children": CHILDREN,
              "wall_s": sum(r["result"]["wall_ns"] for r in runs) / 1e9,
              "rows": rows,
              "import_s": statistics.median(r["result"]["import_s"]
                                            for r in runs),
              "rerun_checked": reran}
    return {"metrics": metrics, "detail": detail, "verdict": v,
            "outcomes": outcomes, "versions": runs[0]["result"]["versions"]}


def measure_traced(workload: str, seed: int, seconds: float,
                   work: Path) -> dict:
    import tracing

    cycles = max(2, plain_cycles(workload, seconds) // 2)
    half = cycles // 2
    base = {"mode": "ops", "workload": workload, "seed": seed}
    # untraced halves before and after the traced pass, so that a drift of
    # machine speed over the run cancels in the overhead
    before = spawn(dict(base, cycles=half), work / "before")["result"]
    traced_run = spawn(dict(base, cycles=cycles, trace=True), work / "traced")
    traced = traced_run["result"]
    after = spawn(dict(base, cycles=cycles - half, first_cycle=half),
                  work / "after")["result"]
    outcomes = judge(traced["ops"], traced_run["work"])
    reran = rerun_check(outcomes)
    v = verdict(outcomes)

    spans_path = OUT / f"{workload}-spans.npz"
    shutil.copyfile(traced_run["work"] / "spans.npz", spans_path)
    spans = tracing.load(str(spans_path))
    layers = tracing.layer_metrics(spans, _ratio_rows(outcomes))
    layers["drf.cache_hit_ratio"] = _hit_ratio(traced["cache"])
    layers["cli.bytes_written"] = sum(o["bytes"] for o in outcomes)

    anchor_run = spawn({"mode": "anchor"}, work / "anchor")
    anchor = anchor_run["result"]
    probe_outcomes = judge(anchor["ops"], anchor_run["work"])
    probe = tracing.layer_metrics(
        tracing.load(str(anchor_run["work"] / "spans.npz")),
        _ratio_rows(probe_outcomes))
    probe["drf.cache_hit_ratio"] = _hit_ratio(anchor["cache"])
    from_probe = sorted(k for k, val in layers.items()
                        if val is None and probe.get(k) is not None)
    for key in from_probe:
        layers[key] = probe[key]

    layers["trace.overhead_ratio"] = trace_overhead(
        before["ops"] + after["ops"], traced["ops"])
    layers["trace.spans"] = len(spans["start"])
    for key, value in anchor["anchors"].items():
        layers[f"anchor.{key}"] = value
    layers["anchor.import_s"] = anchor["import_s"]
    for kind in ("discrete", "interp"):
        argv = ["eigen", "--kind", kind, "--n", "5000"]
        rss = spawn({"mode": "argv", "ops": [argv]}, work / f"rss-{kind}")
        layers[f"anchor.eigen5000_{kind}_rss_mb"] = rss["rss_mb"]

    metrics = {name: (layers.get(name) if layers.get(name) is not None
                      else 0) for name, _ in PER_LAYER}
    detail = {"cycles": cycles,
              "untraced_wall_s": (before["wall_ns"] + after["wall_ns"]) / 1e9,
              "traced_wall_s": traced["wall_ns"] / 1e9,
              "from_probe": from_probe, "anchor_errors": anchor["errors"],
              "missing_boundaries": traced.get("missing_boundaries", []),
              "span_counts": tracing.span_counts(spans),
              "probe_failures": [o for o in probe_outcomes if o["failed"]],
              "rerun_checked": reran,
              "fail_share": v["failed"] / v["attempted"]}
    return {"metrics": metrics, "detail": detail, "verdict": v,
            "outcomes": outcomes, "versions": traced["versions"]}


def trace_overhead(untraced: list, traced: list) -> float:
    """Median over ops run both ways of traced / untraced latency, minus 1.

    Ops pair up by cycle and argv; the first op of each child is left out,
    since the untraced side runs it twice.
    """
    plain = {(r["cycle"], tuple(r["argv"])): r["ns"] for r in untraced
             if r["cycle"] >= 0}
    ratios = [r["ns"] / plain[key] for r in traced
              if (key := (r["cycle"], tuple(r["argv"]))) in plain]
    return statistics.median(ratios) - 1.0 if ratios else None


def _ratio_rows(outcomes: list) -> dict:
    return {o["index"]: o["rows"] for o in outcomes
            if o["argv"][0] == "ratio" and not o["failed"]}


def _hit_ratio(cache) -> float:
    hits, misses = cache
    return hits / (hits + misses) if hits + misses else None


# ---------------------------------------------------------------- reporting

def provenance(versions: dict) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    sha = "unknown (not a git checkout)"
    try:
        top, head = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
            capture_output=True, text=True, timeout=10,
            check=True).stdout.split()
        if Path(top).resolve() == ROOT:  # not a repository that encloses it
            sha = head
    except (OSError, ValueError, subprocess.SubprocessError):
        pass
    threads = len(os.sched_getaffinity(0))
    return {"machine": {"platform": platform.platform(), "cpu": cpu,
                        "cpus": threads},
            "thread_cap": {v: threads for v in ("OMP_NUM_THREADS",
                                                "OPENBLAS_NUM_THREADS",
                                                "MKL_NUM_THREADS")},
            "versions": versions, "git_sha": sha}


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 work: Path) -> dict:
    measure = measure_traced if trace else measure_plain
    result = measure(workload, seed, seconds, work / workload)
    units = dict(PER_LAYER if trace else END_TO_END)
    outcomes = result.pop("outcomes")
    record = {
        "workload": workload, "why": _why(workload),
        "seed": seed, "seconds": seconds, "trace": int(trace),
        "ops_sha256": workloads.ops_digest(workload, seed),
        "provenance": provenance(result.pop("versions")),
        **result,
        "metrics": {k: {"value": getattr(v, "item", lambda: v)(),
                        "unit": units[k]}
                    for k, v in result["metrics"].items()},
        "ops": outcomes,
    }
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{workload}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(record, indent=1, default=float))
    return record


def _why(workload: str) -> str:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {w["name"]: w["why"] for w in spec["workloads"]}[workload]


def print_table(record: dict) -> None:
    w = record["workload"]
    for name, m in record["metrics"].items():
        print(f"{w:7s} {name:38s} {m['value']:>16.6g} {m['unit']}")
    d, v = record["detail"], record["verdict"]
    extra = (f" tail=p{d['tail_percentile']:.1f} of {d['tail_samples']} ops"
             if "tail_percentile" in d else "")
    for name, value in d.get("raw", {}).items():
        print(f"{w:7s} {name + ' (raw)':38s} {value:>16.6g}")
    if "host_speed" in d:
        print(f"{w:7s} {'host speed / reference':38s} "
              f"{d['host_speed']:>16.6g}")
    print(f"{w:7s} attempted={v['attempted']} failed={v['failed']} "
          f"fail_share={d['fail_share']:.4f} correct={v['correct']}{extra}")
    for cause, count in sorted(v["causes"].items()):
        print(f"{w:7s}   failed x{count}: {cause}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=list(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated run still kills its child and removes its work directory
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not args.seconds > 0:
        parser.error("--seconds must be > 0")
    if not (SRC / "wienerdr" / "__init__.py").is_file():
        print(f"error: no program to measure at {SRC / 'wienerdr'}",
              file=sys.stderr)
        return 2
    compileall.compile_dir(str(SRC), quiet=1)
    compileall.compile_dir(str(BENCH), quiet=1, maxlevels=0)
    calib.warm()

    names = (list(workloads.WORKLOADS) if args.workload == "all"
             else [args.workload])
    work = OUT / f"work-{os.getpid()}"
    records = []
    try:
        for name in names:
            records.append(run_workload(name, args.seed, args.seconds,
                                        bool(args.trace), work))
            print_table(records[-1])
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": m for r in records
                   for k, m in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["verdict"]["correct"] for r in records),
        "attempted": sum(r["verdict"]["attempted"] for r in records),
        "failed": sum(r["verdict"]["failed"] for r in records),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
