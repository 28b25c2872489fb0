"""Tests of the benchmark itself:  python3 -m pytest bench/tests"""

import json
from pathlib import Path

import numpy as np
import pytest

import calib
import checks
import child
import run
import workloads
from wienerdr import cli


def _run(tmp_path, argvs):
    """Run ops in this process the way a child does, then judge them."""
    records, _ = child.run_ops(cli.main, enumerate({"argv": a} for a in argvs),
                               str(tmp_path))
    return run.judge(records, tmp_path)


# ------------------------------------------------------------ tail rule

def test_tail_is_highest_percentile_with_ten_beyond():
    value, pct, n = run.tail_latency(list(range(100, 0, -1)))
    assert (value, pct, n) == (90, 90.0, 100)
    value, pct, n = run.tail_latency(list(range(1, 12)))
    assert value == 1 and n == 11
    assert sum(v > value for v in range(1, 12)) == 10
    assert pct == pytest.approx(100.0 / 11)


def test_tail_with_ten_or_fewer_samples_is_the_maximum():
    assert run.tail_latency([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)
    assert run.tail_latency(list(range(10))) == (9, 100.0, 10)


# ------------------------------------------------------- failure counting

def test_sweep_past_the_failure_edge_counts_as_failed(tmp_path):
    outcomes = _run(tmp_path, [
        ["curve", "--fs", "1", "--min", "100", "--max", "300", "--points",
         "3", "--log"],
        ["ratio", "--min", "0.5", "--max", "2", "--points", "3"],
    ])
    bad, good = outcomes
    assert bad["failed"] and bad["kind"] == "exit" and bad["rows"] == 0
    assert not good["failed"] and good["rows"] == 3
    v = run.verdict(outcomes)
    assert (v["attempted"], v["failed"], v["correct"]) == (2, 1, True)


# ------------------------------------------------------ input generation

@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generation_is_deterministic_per_seed(workload):
    assert (workloads.cycle(workload, 7, 3)
            == workloads.cycle(workload, 7, 3))
    assert (workloads.ops_digest(workload, 7, cycles=4)
            == workloads.ops_digest(workload, 7, cycles=4))
    assert (workloads.ops_digest(workload, 7, cycles=4)
            != workloads.ops_digest(workload, 8, cycles=4))


def _rbar_span(argv):
    f = checks.flags(argv)
    lo, hi = float(f["--min"]), float(f["--max"])
    if argv[0] == "ratio":
        return lo, hi
    if "--rate" in f:
        rate = float(f["--rate"])
        return rate / hi, rate / lo
    fs = float(f["--fs"])
    return lo / fs, hi / fs


def test_one_sweep_in_seven_passes_the_failure_edge():
    for c in range(20):
        ops = workloads.cycle("sweep", 1, c)
        spans = [_rbar_span(op["argv"]) for op in ops]
        assert all(lo >= 1e-4 for lo, _ in spans)
        high = [hi for _, hi in spans if hi > workloads.RBAR_FAILURE_EDGE]
        assert len(high) == 1 and len(ops) == 7
        assert max(hi for _, hi in spans if hi < 267) <= 200


def test_trials_blocks_stay_short_and_kl_passes_4096():
    for c in range(20):
        for op in workloads.cycle("trials", 2, c):
            f = checks.flags(op["argv"])
            assert float(f["--horizon"]) * float(f["--fs"]) <= 64 + 1e-9
        sizes = [int(checks.flags(op["argv"])["--n"])
                 for op in workloads.cycle("kl", 2, c)
                 if op["argv"][0] == "eigen"]
        assert max(sizes) > 4096


# ---------------------------------------------------------- output checks

def _perturb(path: Path, row: int, column: int, factor: float) -> None:
    lines = path.read_text().splitlines()
    cells = lines[row + 1].split(",")
    cells[column] = repr(float(cells[column]) * factor)
    lines[row + 1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("argv, column, check_row", [
    (["curve", "--fs", "2", "--min", "0.5", "--max", "6", "--points", "4",
      "--log"], 2, 0),
    (["ratio", "--min", "0.2", "--max", "3", "--points", "3"], 4, 0),
    (["eigen", "--kind", "interp", "--n", "50"], 1, None),
    (["simulate", "--scheme", "mmse-only", "--fs", "1", "--horizon", "4",
      "--oversample", "8", "--trials", "50", "--seed", "3"], 1, None),
])
def test_output_check_rejects_one_perturbed_value(tmp_path, argv, column,
                                                  check_row):
    records, _ = child.run_ops(cli.main, [(0, {"argv": argv})],
                               str(tmp_path))
    assert records[0]["code"] == 0
    csv = tmp_path / "op0.csv"
    rows, problems = checks.check_op(argv, str(csv), records[0]["stdout"],
                                     check_row)
    assert problems == [] and rows > 0
    _perturb(csv, 0, column, 1.0 + 1e-5)
    _, problems = checks.check_op(argv, str(csv), records[0]["stdout"],
                                  check_row)
    assert problems and not checks.statistical(problems)


def test_unreadable_output_is_a_wrong_output(tmp_path):
    (tmp_path / "op0.csv").write_text("a,b\n1,2\n")
    record = {"index": 0, "template": "t", "check_row": 0, "code": 0,
              "error": None, "ns": 1, "stdout": "", "stderr": "",
              "argv": ["ratio", "--min", "1", "--max", "2", "--points", "1"]}
    (outcome,) = run.judge([record], tmp_path)
    assert outcome["kind"] == "wrong" and outcome["rows"] == 0
    assert not run.verdict([outcome])["correct"]


def test_quad_reference_matches_closed_form():
    rbar = 3.0
    theta = checks.ref_theta(rbar, 0.0)
    assert theta == pytest.approx(2.0 ** (-2 * rbar), rel=1e-10)
    assert checks.ref_distortion(theta, 0.0) == pytest.approx(theta, rel=1e-12)
    assert checks.ref_ce(theta) == pytest.approx(2 * theta / 3, rel=1e-10)


def test_z_beyond_bound_is_statistical():
    problems = [p for p in checks._check_simulate(
        checks.flags(["simulate", "--trials", "2"]), None,
        np.array([[0, 1.0], [1, 1.2]]),
        "estimate=1.1 stderr=0.01 reference=1.0 z=10") if p]
    assert problems == ["z: |z| = 10 exceeds 4.5"]
    assert checks.statistical(problems)


# ---------------------------------------------------- benchmark contract

def test_benchmark_json_lists_the_metrics_the_runner_prints():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] \
        == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] \
        == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] \
        == list(workloads.WORKLOADS)
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"][0]
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])


# ------------------------------------------------- fixed op list, host speed

def test_a_run_replays_a_fixed_op_list():
    ops = list(child._stream("trials", 5, 3, 0))
    assert [i for i, _ in ops] == list(range(len(ops)))
    assert len(ops) == 1 + 3 * len(workloads.TRIALS_TEMPLATES)
    assert ops == list(child._stream("trials", 5, 3, 0))
    assert run.plain_cycles("sweep", 15) == run.plain_cycles("sweep", 15)


def test_normalized_time_cancels_the_host_speed():
    ref = calib.REFERENCE_S
    assert run.normalized(0.2, [ref]) == pytest.approx(0.2)
    # a host half as fast takes twice as long over the op and the samples
    assert run.normalized(0.4, [2 * ref, 2 * ref]) == pytest.approx(0.2)
    assert calib.sample() > 0
