"""Command-line interface: determinism, exit codes, file hygiene."""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wienerdr
from wienerdr import cli, drf, mc, spectral
from wienerdr.cli import _fmt, _write_csv_atomic, main


def read_csv(path):
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        rows = [line.strip().split(",") for line in fh if line.strip()]
    cols = {name: np.array([float(r[i]) for r in rows])
            for i, name in enumerate(header)}
    return header, cols


class TestCurve:
    def test_rate_sweep_monotone(self, tmp_path):
        out = str(tmp_path / "curve.csv")
        code = main(["curve", "--fs", "1", "--min", "0.25", "--max", "5",
                     "--points", "50", "--log", "--out", out])
        assert code == 0
        header, cols = read_csv(out)
        assert header == ["x", "d_opt", "d_ce", "d_upper", "d_w", "d_bar",
                          "mmse", "theta_opt", "theta_ce"]
        assert len(cols["x"]) == 50
        assert np.all(np.diff(cols["d_opt"]) < 0)
        assert os.path.exists(out + ".manifest.json")

    def test_fs_sweep_dbar_approaches_limit(self, tmp_path):
        out = str(tmp_path / "curve_fs.csv")
        code = main(["curve", "--rate", "1", "--min", "0.25", "--max", "10",
                     "--points", "30", "--log", "--out", out])
        assert code == 0
        _, cols = read_csv(out)
        limit = 2.0 / (math.pi ** 2 * math.log(2.0))
        assert np.all(np.diff(cols["d_bar"]) > 0)
        assert np.all(cols["d_bar"] < limit)
        assert cols["d_bar"][-1] == pytest.approx(limit, abs=1e-3)

    def test_normalized_flag(self, tmp_path):
        plain = str(tmp_path / "plain.csv")
        norm = str(tmp_path / "norm.csv")
        args = ["curve", "--fs", "4", "--min", "1", "--max", "4",
                "--points", "3", "--out"]
        assert main(args + [plain]) == 0
        assert main(args[:-1] + ["--normalized", "--out", norm]) == 0
        _, p = read_csv(plain)
        _, q = read_csv(norm)
        # normalized distortions are scaled by fs/sigma2 = 4
        assert q["d_opt"][0] == pytest.approx(4.0 * p["d_opt"][0], rel=1e-12)
        assert q["theta_opt"][0] == pytest.approx(p["theta_opt"][0], rel=1e-12)

    def test_past_the_underflow_edge_is_a_numerical_failure(self, tmp_path):
        out = str(tmp_path / "never.csv")
        code = main(["curve", "--fs", "1", "--min", "1", "--max", "600",
                     "--points", "3", "--out", out])
        assert code == 3
        assert not os.path.exists(out)

    def test_sub_minimum_rbar_rejected_before_output(self, tmp_path):
        out = str(tmp_path / "never.csv")
        code = main(["curve", "--fs", "1000", "--min", "0.01", "--max", "1",
                     "--points", "5", "--out", out])
        assert code == 2
        assert not os.path.exists(out)


class TestRatio:
    def test_penalty_bound_on_sweep(self, tmp_path):
        out = str(tmp_path / "ratio.csv")
        code = main(["ratio", "--min", "0.05", "--max", "8", "--points", "60",
                     "--log", "--out", out])
        assert code == 0
        _, cols = read_csv(out)
        assert cols["ce_penalty"].max() <= 1.028
        assert np.all(cols["ce_penalty"] >= 1.0 - 1e-12)

    def test_saturated_sweep_up_to_the_edge(self, tmp_path):
        out = str(tmp_path / "ratio_high.csv")
        code = main(["ratio", "--min", "300", "--max", "500", "--points", "5",
                     "--log", "--out", out])
        assert code == 0
        _, cols = read_csv(out)
        expected = (2.0 + math.sqrt(3.0)) / 6.0 * 2.0 ** (-2.0 * cols["rbar"])
        np.testing.assert_allclose(cols["d_tilde"], expected, rtol=1e-12)


class TestEigen:
    def test_discrete_single_mode(self, tmp_path):
        out = str(tmp_path / "eigen.csv")
        code = main(["eigen", "--kind", "discrete", "--n", "1", "--sigma2",
                     "2", "--fs", "4", "--out", out])
        assert code == 0
        _, cols = read_csv(out)
        assert len(cols["k"]) == 1
        assert cols["lambda"][0] == pytest.approx(0.5, abs=1e-12)

    def test_interp_staircase_tightens(self, tmp_path):
        errs = {}
        for n in (100, 1000):
            out = str(tmp_path / f"interp{n}.csv")
            assert main(["eigen", "--kind", "interp", "--n", str(n),
                         "--out", out]) == 0
            _, cols = read_csv(out)
            errs[n] = np.max(np.abs(cols["lambda"] - cols["density_limit"])
                             / cols["density_limit"])
        assert errs[1000] < 1e-9 and errs[100] < 1e-9

    def test_invalid_n(self, tmp_path):
        out = str(tmp_path / "bad.csv")
        assert main(["eigen", "--kind", "discrete", "--n", "0",
                     "--out", out]) == 2
        assert not os.path.exists(out)

    @pytest.mark.parametrize("sigma2,fs,n", [
        ("4.97e-309", "4.06e-190", 193),   # ts * ts overflows
        ("1e300", "1e200", 7)],            # ts * ts underflows to 0
        ids=["ts-squared-overflows", "ts-squared-underflows"])
    def test_interp_answers_wherever_floats_hold_them(self, tmp_path, sigma2,
                                                      fs, n):
        out = str(tmp_path / "eigen.csv")
        assert main(["eigen", "--kind", "interp", "--sigma2", sigma2, "--fs",
                     fs, "--n", str(n), "--out", out]) == 0
        _, cols = read_csv(out)
        with mpmath.workdps(40):
            unit = mpmath.mpf(float(sigma2)) / mpmath.mpf(float(fs)) ** 2
            for k in range(1, n + 1):
                x = (2 * k - 1) * mpmath.pi / (2 * n)
                lam = unit * (2 + mpmath.cos(x)) / (12 * mpmath.sin(x / 2) ** 2)
                phi = mpmath.mpf(2 * k - 1) / (2 * n)
                limit = unit * (1 / (4 * mpmath.sin(mpmath.pi * phi / 2) ** 2)
                                - mpmath.mpf(1) / 6)
                for got, exact in ((cols["lambda"][k - 1], lam),
                                   (cols["density_limit"][k - 1], limit)):
                    assert abs(got - exact) <= 1e-13 * exact


class TestSimulate:
    def test_mmse_only_summary(self, tmp_path, capsys):
        out = str(tmp_path / "sim.csv")
        code = main(["simulate", "--scheme", "mmse-only", "--fs", "2",
                     "--horizon", "8", "--oversample", "16", "--trials",
                     "300", "--seed", "7", "--out", out])
        assert code == 0
        summary = capsys.readouterr().out
        z = float(summary.split("z=")[1].split()[0])
        assert abs(z) <= 3.0
        _, cols = read_csv(out)
        assert len(cols["trial"]) == 300

    def test_no_oversampling_has_zero_z(self, tmp_path, capsys):
        # every trial is exactly 0, as are the reference and the stderr
        out = str(tmp_path / "sim.csv")
        code = main(["simulate", "--scheme", "mmse-only", "--horizon", "4",
                     "--oversample", "1", "--trials", "5", "--seed", "1",
                     "--out", out])
        assert code == 0
        assert capsys.readouterr().out.split()[-1] == "z=0"

    def test_byte_identical_reruns(self, tmp_path):
        args = ["simulate", "--scheme", "test-channel", "--fs", "1",
                "--horizon", "8", "--oversample", "8", "--trials", "50",
                "--seed", "11", "--rbar", "2", "--out"]
        first = str(tmp_path / "a.csv")
        second = str(tmp_path / "b.csv")
        assert main(args + [first]) == 0
        assert main(args + [second]) == 0
        with open(first, "rb") as fa, open(second, "rb") as fb:
            assert fa.read() == fb.read()

    def test_test_channel_needs_rbar(self, tmp_path):
        out = str(tmp_path / "sim.csv")
        code = main(["simulate", "--scheme", "test-channel", "--fs", "1",
                     "--horizon", "8", "--trials", "10", "--seed", "3",
                     "--out", out])
        assert code == 2
        assert not os.path.exists(out)

    def test_manifest_contents(self, tmp_path):
        out = str(tmp_path / "sim.csv")
        main(["simulate", "--scheme", "mmse-only", "--fs", "1", "--horizon",
              "2", "--oversample", "4", "--trials", "5", "--seed", "19",
              "--out", out])
        with open(out + ".manifest.json") as fh:
            manifest = json.load(fh)
        assert manifest["command"] == "simulate"
        assert manifest["seed"] == 19
        assert "wienerdr" in manifest["versions"]

    def test_trials_beyond_one_spawn_word_rejected(self, tmp_path,
                                                   monkeypatch):
        def never(*args):
            raise AssertionError("the run must not start")

        monkeypatch.setattr(mc, "empirical_mmse", never)
        out = str(tmp_path / "sim.csv")
        code = main(["simulate", "--scheme", "mmse-only", "--horizon", "4",
                     "--trials", str(2 ** 32 + 1), "--seed", "1",
                     "--out", out])
        assert code == 2
        assert os.listdir(tmp_path) == []

    def test_unallocatable_request_is_a_typed_error(self, tmp_path, capsys,
                                                    monkeypatch):
        def too_large(*args):
            raise MemoryError("unable to allocate 320 TiB")

        monkeypatch.setattr(mc, "empirical_mmse", too_large)
        out = str(tmp_path / "sim.csv")
        code = main(["simulate", "--scheme", "mmse-only", "--horizon", "4",
                     "--trials", "5", "--seed", "1", "--oversample",
                     "10000000000000", "--out", out])
        assert code == 2
        assert capsys.readouterr().err.strip() == \
            "error: simulate: request too large to allocate"
        assert os.listdir(tmp_path) == []

    def test_sub_interval_horizon_runs_one_interval(self, tmp_path, capsys):
        # horizon * fs below 1e-9 rounds up to one interval, not to none
        out = str(tmp_path / "sim.csv")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["simulate", "--scheme", "mmse-only", "--horizon",
                         "1e-10", "--trials", "4", "--seed", "1",
                         "--out", out])
            assert code == 0
            summary = capsys.readouterr().out
            assert "nan" not in summary
            _, cols = read_csv(out)
            assert np.all(np.isfinite(cols["distortion"]))
            code = main(["simulate", "--scheme", "test-channel", "--rbar",
                         "1", "--horizon", "1e-10", "--trials", "4",
                         "--seed", "1", "--out", out + "2"])
        assert code == 2
        assert "horizon * fs" in capsys.readouterr().err
        assert not os.path.exists(out + "2")

    def test_test_channel_z_is_honest(self, tmp_path, capsys):
        # a long block at --oversample 4: the grid bias is many stderrs,
        # and the reference is the grid-exact expectation that includes it
        out = str(tmp_path / "sim.csv")
        assert main(["simulate", "--scheme", "test-channel", "--sigma2",
                     "1.3", "--rbar", "2", "--horizon", "1500",
                     "--oversample", "4", "--trials", "200", "--seed", "3",
                     "--out", out]) == 0
        z = float(capsys.readouterr().out.split("z=")[1])
        assert abs(z) < 4.0

    def test_one_trial_has_no_standard_error(self, tmp_path, capsys):
        out = str(tmp_path / "sim.csv")
        code = main(["simulate", "--scheme", "mmse-only", "--horizon", "4",
                     "--trials", "1", "--seed", "1", "--out", out])
        assert code == 2
        assert "at least 2 trials" in capsys.readouterr().err
        assert os.listdir(tmp_path) == []


class TestArgumentHandling:
    def test_unknown_command(self):
        assert main(["frobnicate"]) == 2

    def test_missing_required(self):
        assert main(["curve", "--min", "1", "--max", "2"]) == 2

    @pytest.mark.parametrize("flag,value", [("--min", "-1"), ("--points", "1"),
                                            ("--sigma2", "0")])
    def test_bad_numeric_flags(self, tmp_path, flag, value):
        out = str(tmp_path / "x.csv")
        args = {"--min": "0.5", "--max": "2", "--points": "5",
                "--sigma2": "1", flag: value}
        argv = ["curve", "--fs", "1", "--out", out]
        for k, v in args.items():
            argv += [k, v]
        assert main(argv) == 2
        assert not os.path.exists(out)

    @pytest.mark.parametrize("value", ["inf", "nan"])
    @pytest.mark.parametrize("command,flag", [
        ("curve", "--sigma2"), ("curve", "--fs"), ("curve", "--rate"),
        ("curve", "--min"), ("curve", "--max"),
        ("simulate", "--horizon"), ("simulate", "--rbar")])
    def test_non_finite_flags(self, tmp_path, capsys, command, flag, value):
        out = str(tmp_path / "x.csv")
        if command == "curve":
            args = {"--min": "0.5", "--max": "2", "--points": "3"}
        else:
            args = {"--scheme": "test-channel", "--horizon": "4",
                    "--trials": "5", "--seed": "1", "--rbar": "1"}
        args[flag] = value
        argv = [command, "--out", out]
        for k, v in args.items():
            argv += [k, v]
        with warnings.catch_warnings():
            warnings.simplefilter("error")   # nothing may reach numpy
            assert main(argv) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: {flag} must be positive and finite"]
        assert os.listdir(tmp_path) == []


GRID = ["--min", "0.5", "--max", "2", "--points", "3"]
CURVE, RATIO = ["curve", *GRID], ["ratio", *GRID]
EIGEN = ["eigen", "--kind", "interp", "--n", "5"]
MMSE = ["simulate", "--scheme", "mmse-only", "--horizon", "4", "--trials",
        "5", "--seed", "1"]
CHANNEL = ["simulate", "--scheme", "test-channel", "--horizon", "4",
           "--trials", "5", "--seed", "1"]
POSITIVE = "must be positive and finite"
TWO_TRIALS = "--trials must be >= 2: a standard error needs at least 2 trials"
UNIT_PARAMS = spectral.ProcessParams(1.0, 1.0)


@pytest.mark.parametrize("argv,message", [
    (CURVE + ["--sigma2", "0"], f"--sigma2 {POSITIVE}"),
    (EIGEN + ["--fs", "-1"], f"--fs {POSITIVE}"),
    (["curve", "--rate", "1", "--fs", "0", *GRID], f"--fs {POSITIVE}"),
    (CURVE + ["--rate", "0"], f"--rate {POSITIVE}"),
    (RATIO + ["--min", "-1"], f"--min {POSITIVE}"),
    (CURVE + ["--max", "inf"], f"--max {POSITIVE}"),
    (RATIO + ["--min", "2", "--max", "1"], "need 0 < --min < --max"),
    (CURVE + ["--min", "2"], "need 0 < --min < --max"),
    (RATIO + ["--points", "0"], "--points must be >= 2"),
    (CURVE + ["--points", "1"], "--points must be >= 2"),
    (EIGEN + ["--n", "0"], "--n must be a positive integer"),
    (MMSE + ["--horizon", "0"], f"--horizon {POSITIVE}"),
    (MMSE + ["--oversample", "0"], "--oversample must be a positive integer"),
    (MMSE + ["--trials", "0"], TWO_TRIALS),
    (MMSE + ["--trials", "1"], TWO_TRIALS),
    (MMSE + ["--trials", str(2 ** 32 + 1)], "--trials must be <= 2**32"),
    (MMSE + ["--seed", "-1"], "--seed must fit in 64 bits"),
    (MMSE + ["--seed", str(2 ** 64)], "--seed must fit in 64 bits"),
    (CHANNEL + ["--rbar", "inf"], f"--rbar {POSITIVE}"),
    (MMSE + ["--rbar", "nan"], f"--rbar {POSITIVE}"),
    (CHANNEL, "--rbar is required for the test-channel scheme")],
    ids=["sigma2", "fs", "fs-swept", "rate", "min", "max", "min-above-max",
         "min-equals-max", "points-0", "points-1", "n", "horizon",
         "oversample", "trials-0", "trials-1", "trials-2**32+1", "seed--1",
         "seed-2**64", "rbar-inf", "rbar-unused", "rbar-missing"])
def test_each_bad_flag_is_named(tmp_path, capsys, monkeypatch, argv, message):
    # each value is refused by its type before any work: no run may start
    def never(*args):
        raise AssertionError("the computation must not start")

    monkeypatch.setattr(drf, "sections", never)
    monkeypatch.setattr(mc, "_run", never)
    out = str(tmp_path / "x.csv")
    assert main(argv + ["--out", out]) == 2
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [f"error: {message}"]
    assert captured.out == ""
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("build,field", [
    (lambda: spectral.ProcessParams(0.0, 1.0), "sigma2"),
    (lambda: spectral.ProcessParams(1.0, math.nan), "fs"),
    (lambda: drf.RateSpec(math.inf), "rate"),
    (lambda: drf.sweep(1.0, [1.0, -1.0], 1.0), "fs"),
    (lambda: mc.SimConfig(0.0, 8, 2, 1), "horizon_t"),
    (lambda: mc.SimConfig(1.0, 2.5, 2, 1), "oversample"),
    (lambda: mc.SimConfig(1.0, 8, 0, 1), "trials"),
    (lambda: mc.SimConfig(1.0, 8, 2, 2 ** 64), "seed"),
    (lambda: spectral.discrete_wiener_eigenvalues(UNIT_PARAMS, 0), "n"),
    (lambda: spectral.interp_kernel_eigenvalues(UNIT_PARAMS, -1), "n"),
    (lambda: mc.mc_test_channel_run(UNIT_PARAMS, mc.SimConfig(8.0, 4, 5, 1),
                                    math.nan), "rbar"),
    (lambda: cli.Grid(1.0, math.inf, 3, False), "max"),
    (lambda: cli.Grid(1.0, 2.0, 1, True), "points")],
    ids=["sigma2", "fs", "RateSpec", "sweep", "horizon_t", "oversample",
         "trials", "seed", "discrete-n", "interp-n", "rbar", "grid-max",
         "grid-points"])
def test_each_type_names_its_field(monkeypatch, build, field):
    monkeypatch.setattr(mc, "_run", None)   # rbar is checked before any draw
    with pytest.raises(spectral.ParameterError) as caught:
        build()
    assert caught.value.field == field
    assert str(caught.value).startswith(f"{field} must ")


#: sigma2 and fs of the contract below, log-uniform over the float range
SCALE = st.floats(math.log(1e-310), math.log(1e308)).map(math.exp)
RBAR = st.floats(1e-3, 50.0)
#: exit-2 messages about a derived quantity, for which no one flag is at fault
DERIVED = ("error: need 0 < --min < --max", "error: bits per sample must be",
           "error: need horizon * fs > 1")


@st.composite
def cli_calls(draw):
    """(argv without --out, its numeric flags) of one small command whose
    sigma2 and fs may lie anywhere in the float range."""
    command = draw(st.sampled_from(["curve", "ratio", "eigen", "simulate"]))
    sigma2, fs = draw(SCALE), draw(SCALE)
    low, high = sorted([draw(RBAR), draw(RBAR)])
    flags = {} if command == "ratio" else {"--sigma2": sigma2, "--fs": fs}
    argv = [command]
    if command == "ratio":
        flags.update({"--min": low, "--max": high})
    elif command == "curve":
        if draw(st.booleans()):   # sweep R at fixed fs
            flags.update({"--min": low * fs, "--max": high * fs})
        else:                     # sweep fs at fixed R
            rate = draw(RBAR) * fs
            flags.update({"--rate": rate, "--min": rate / high,
                          "--max": rate / low})
        argv += ["--normalized"] if draw(st.booleans()) else []
    elif command == "eigen":
        argv += ["--kind", draw(st.sampled_from(["discrete", "interp"]))]
        flags["--n"] = draw(st.integers(1, 200))
    else:
        scheme = draw(st.sampled_from(["mmse-only", "test-channel"]))
        argv += ["--scheme", scheme]
        flags.update({"--horizon": draw(st.integers(1, 64)) / fs,
                      "--oversample": draw(st.integers(1, 8)),
                      "--trials": draw(st.integers(2, 20)),
                      "--seed": draw(st.integers(0, 2 ** 64 - 1))})
        if scheme == "test-channel":
            flags["--rbar"] = draw(RBAR)
    if command in ("curve", "ratio"):
        argv += ["--points", str(draw(st.integers(2, 12)))]
        argv += ["--log"] if draw(st.booleans()) else []
    for flag, value in flags.items():
        argv += [flag, repr(value)]
    return argv, flags


def eigen_log_range(argv, flags):
    """Natural logs of the smallest and largest exact cells of an ``eigen``
    table, from the closed forms in log space."""
    n = flags["--n"]
    k = np.arange(1, n + 1)
    density = spectral.s_bar((k - 0.5) / n)
    if "discrete" in argv:
        log_unit = math.log(flags["--sigma2"]) - math.log(flags["--fs"])
        modes = 1.0 / (4.0 * np.sin((2 * k - 1) * np.pi / (4 * n + 2)) ** 2)
    else:
        log_unit = math.log(flags["--sigma2"]) - 2.0 * math.log(flags["--fs"])
        x = (2 * k - 1) * np.pi / (2 * n)
        modes = (2.0 + np.cos(x)) / (12.0 * np.sin(0.5 * x) ** 2)
        density = density - 1.0 / 6.0
    logs = log_unit + np.log(np.concatenate([modes, density, k]))
    return logs.min(), logs.max()


@given(call=cli_calls())
@settings(max_examples=200, deadline=None)
def test_contract_over_the_float_range(call):
    """Every call exits 0 with finite, normal-or-zero cells and a manifest,
    or 2 or 3 with one stderr line and no file; a flag at fault is named,
    and an ``eigen`` exit 3 has an answer outside the normal floats."""
    argv, flags = call
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as work, warnings.catch_warnings():
        warnings.simplefilter("error")
        out = os.path.join(work, "x.csv")
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            code = main(argv + ["--out", out])
        files = sorted(os.listdir(work))
        cells = np.concatenate(list(read_csv(out)[1].values())) \
            if code == 0 else None
    assert code in (0, 2, 3)
    lines = err.getvalue().splitlines()
    if code == 0:
        assert files == ["x.csv", "x.csv.manifest.json"] and lines == []
        size = np.abs(cells)
        assert np.all((size == 0) | ((size >= sys.float_info.min)
                                     & (size <= sys.float_info.max)))
        return
    assert len(lines) == 1 and files == []
    if code == 2:
        bad = [flag for flag, value in flags.items()
               if isinstance(value, float) and not 0.0 < value < math.inf]
        if bad:
            assert any(lines[0].startswith(f"error: {flag} ") for flag in bad)
        else:
            assert lines[0].startswith(DERIVED)
    elif argv[0] == "eigen":
        low, high = eigen_log_range(argv, flags)
        assert low < math.log(sys.float_info.min) + 1e-9 \
            or high > math.log(sys.float_info.max) - 1e-9


def run_python(code: str, expect: int = 0) -> subprocess.CompletedProcess:
    """Run code in a fresh interpreter that imports this checkout's package."""
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(wienerdr.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == expect, done.stderr
    return done


class TestFootprint:
    def test_import_loads_no_heavy_scipy_modules(self):
        out = run_python(
            "import sys, wienerdr.cli\n"
            "print(sorted(m for m in sys.modules"
            " if m == 'scipy' or m.startswith('scipy.')))").stdout
        assert out.strip() == "[]"

    def test_every_command_runs_without_scipy(self, tmp_path):
        # a None entry makes any import of scipy raise ImportError
        runs = [
            ["curve", "--min", "0.01", "--max", "500", "--points", "4",
             "--log"],
            ["ratio", "--min", "0.01", "--max", "5", "--points", "4"],
            ["eigen", "--kind", "discrete", "--n", "50"],
            ["eigen", "--kind", "interp", "--n", "50"],
            ["simulate", "--scheme", "mmse-only", "--horizon", "4",
             "--oversample", "4", "--trials", "20", "--seed", "3"],
            ["simulate", "--scheme", "test-channel", "--horizon", "4",
             "--oversample", "4", "--trials", "20", "--seed", "3",
             "--rbar", "1"],
        ]
        codes = run_python(
            "import sys\n"
            "sys.modules['scipy'] = None\n"
            "from wienerdr.cli import main\n"
            f"print([main(argv + ['--out', {str(tmp_path)!r} + f'/{{i}}.csv'])"
            f" for i, argv in enumerate({runs!r})])").stdout
        assert codes.splitlines()[-1] == str([0] * len(runs))
        assert len(os.listdir(tmp_path)) == 2 * len(runs)   # CSV + manifest

    @pytest.mark.parametrize("kind", ["discrete", "interp"])
    def test_eigen_memory_is_linear(self, tmp_path, kind):
        # a dense n x n matrix alone would take 1.15 GB at n = 12000.  The
        # peak is the child's VmHWM: its ru_maxrss also counts the resident
        # set of this (large) test process at the moment it was spawned
        out = str(tmp_path / "eigs.csv")
        peak_kb = run_python(
            "from wienerdr.cli import main\n"
            f"assert main(['eigen', '--kind', '{kind}', '--n', '12000',"
            f" '--out', {out!r}]) == 0\n"
            "with open('/proc/self/status') as fh:\n"
            "    print(next(line.split()[1] for line in fh"
            " if line.startswith('VmHWM:')))").stdout
        assert int(peak_kb) < 150 * 1024
        _, cols = read_csv(out)
        assert len(cols["k"]) == 12000
        assert np.all(np.diff(cols["lambda"]) < 0)


class TestAtomicWrites:
    def test_failure_leaves_no_file(self, tmp_path, monkeypatch):
        out = str(tmp_path / "partial.csv")
        fdopen = os.fdopen

        class ExplodingFile:
            """Takes the header and one block, then fails."""

            def __init__(self, *args, **kwargs):
                self.fh = fdopen(*args, **kwargs)
                self.writes = 0

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, text):
                self.writes += 1
                if self.writes > 2:
                    raise RuntimeError("mid-write failure")
                self.fh.write(text)

        monkeypatch.setattr(os, "fdopen", ExplodingFile)
        table = np.ones((2 * cli._CSV_BLOCK_ROWS, 2))
        with pytest.raises(RuntimeError):
            _write_csv_atomic(out, ["a", "b"], table)
        assert not os.path.exists(out)
        assert os.listdir(tmp_path) == []

    def test_blocks_match_per_value_format(self, tmp_path):
        # the 15-digit text of every value, whatever the row count
        special = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324,
                   2.2250738585072014e-308, np.finfo(float).max,
                   -np.finfo(float).max, 2.0 ** 53, 2.0 ** 53 - 1,
                   1.0 / 3.0, 0.1, 1e15, 1e16, 123456789012345678.0, -7.0]
        rng = np.random.default_rng(97)
        block = cli._CSV_BLOCK_ROWS
        for rows in (1, block - 1, block, block + 1):
            values = rng.standard_normal(rows * 3) * 10.0 ** rng.integers(
                -300, 300, rows * 3)
            values[:len(special)] = special[:rows * 3]
            table = values.reshape(rows, 3)
            table[:, 0] = rng.integers(0, 2 ** 53 + 1, rows)
            out = str(tmp_path / "t.csv")
            _write_csv_atomic(out, ["k", "x", "y"], table)
            expected = "k,x,y\n" + "".join(
                ",".join(_fmt(v) for v in row) + "\n" for row in table)
            with open(out, "rb") as fh:
                assert fh.read() == expected.encode()

    @pytest.mark.parametrize("umask,mode", [("022", "644"), ("077", "600")])
    def test_files_get_the_mode_of_open(self, tmp_path, umask, mode):
        out, saved = str(tmp_path / "r.csv"), os.umask(int(umask, 8))
        try:
            assert main(SMALL_RUNS["curve"] + ["--out", out]) == 0
        finally:
            os.umask(saved)
        for path in (out, out + ".manifest.json"):
            assert format(os.stat(path).st_mode & 0o777, "o") == mode

    def test_significant_digits(self, tmp_path):
        out = str(tmp_path / "digits.csv")
        value = 1.0 / 3.0
        _write_csv_atomic(out, ["v"], [[value]])
        _, cols = read_csv(out)
        assert cols["v"][0] == pytest.approx(value, rel=1e-14)  # 15 sig digits


SMALL_RUNS = {
    "curve": ["curve", "--min", "1", "--max", "2", "--points", "3"],
    "simulate": ["simulate", "--scheme", "mmse-only", "--horizon", "2",
                 "--oversample", "4", "--trials", "5", "--seed", "3"],
}


@pytest.mark.parametrize("argv", [
    ["eigen", "--kind", "interp", "--n", "5", "--sigma2", "1e300", "--fs",
     "1e-10"],
    ["eigen", "--kind", "interp", "--n", "5", "--fs", "1e-160"],
    SMALL_RUNS["simulate"] + ["--sigma2", "1e-310"],
    SMALL_RUNS["simulate"] + ["--sigma2", "1e308", "--fs", "1e-5"],
    ["curve", "--sigma2", "1e308", "--fs", "1e-5", "--min", "1e-5", "--max",
     "1e-4", "--points", "3"],
    ["curve", "--sigma2", "1e300", "--rate", "1e-10", "--min", "1e-12",
     "--max", "1e-11", "--points", "3"],
    ["curve", "--sigma2", "1e308", "--min", "1e-3", "--max", "1e-2",
     "--points", "3"],
    ["curve", "--sigma2", "1e-310", "--fs", "1e10", "--min", "1e10", "--max",
     "2e10", "--points", "3"],
    ["simulate", "--scheme", "mmse-only", "--sigma2", "1e-320", "--horizon",
     "4", "--trials", "50", "--seed", "1"]],
    ids=["inf-eigenvalues", "ts-squared", "zero-stderr", "inf-estimate",
         "inf-scale-vs-rate", "inf-scale-vs-fs", "inf-d_w-scale",
         "subnormal-d_ce", "subnormal-estimate"])
def test_unrepresentable_result_exits_3(tmp_path, argv):
    out = str(tmp_path / "x.csv")
    done = run_python("import sys\nfrom wienerdr.cli import main\n"
                      f"sys.exit(main({argv + ['--out', out]!r}))", expect=3)
    assert done.stderr.splitlines() == [done.stderr.strip()]
    assert done.stderr.startswith(f"numerical failure in {argv[0]}: ")
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("argv,scale", [
    (["--scheme", "mmse-only", "--sigma2", "1e308", "--horizon", "4"], 1e308),
    (["--scheme", "test-channel", "--rbar", "1", "--sigma2", "1e300", "--fs",
      "1e-8", "--horizon", "1.6e9", "--oversample", "8"], 1e308),
    (["--scheme", "test-channel", "--rbar", "1", "--sigma2", "1e-300",
      "--fs", "1e5", "--horizon", "8e-5", "--oversample", "4"], 1e-305)],
    ids=["mmse-sigma2-1e308", "channel-scale-1e308", "channel-scale-1e-305"])
def test_results_at_the_ends_of_the_float_range_are_written(tmp_path, capsys,
                                                             argv, scale):
    # the run works in units of one fine step's variance and scales last,
    # so no intermediate overflows or underflows where the answer fits
    out = str(tmp_path / "x.csv")
    assert main(["simulate", *argv, "--trials", "50", "--seed", "1",
                 "--out", out]) == 0
    summary = capsys.readouterr().out.split()
    assert all(math.isfinite(float(v.split("=")[1])) for v in summary)
    _, cols = read_csv(out)
    assert np.all(np.isfinite(cols["distortion"]))
    assert 0.01 < np.max(cols["distortion"]) / scale < 10.0


class TestUnwritableOut:
    @pytest.mark.parametrize("command", sorted(SMALL_RUNS))
    @pytest.mark.parametrize("target,reason", [
        ("missing/x.csv", "No such file or directory"),
        ("sub", "Is a directory")])
    def test_unwritable_path_is_a_bad_argument(self, tmp_path, capsys,
                                               command, target, reason):
        (tmp_path / "sub").mkdir()
        out = str(tmp_path / target)
        assert main(SMALL_RUNS[command] + ["--out", out]) == 2
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            f"error: cannot write --out {out}: {reason}"]
        assert captured.out == ""
        assert os.listdir(tmp_path) == ["sub"]
        assert os.listdir(tmp_path / "sub") == []

    @pytest.mark.parametrize("command", sorted(SMALL_RUNS))
    def test_failed_manifest_takes_the_csv_with_it(self, tmp_path, capsys,
                                                   command):
        out = str(tmp_path / "x.csv")
        os.mkdir(out + ".manifest.json")
        assert main(SMALL_RUNS[command] + ["--out", out]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: cannot write --out {out}: Is a directory"]
        assert os.listdir(tmp_path) == ["x.csv.manifest.json"]


class TestOneParserPerProcess:
    def test_parser_is_built_once(self, tmp_path):
        runs = [["curve", "--min", "1", "--max", "2", "--points", "3"],
                ["curve", "--rate", "1", "--min", "1", "--max", "2",
                 "--points", "3", "--normalized"],
                ["ratio", "--min", "1", "--max", "2", "--points", "3"],
                ["eigen", "--kind", "discrete", "--n", "5"],
                ["eigen", "--kind", "interp", "--n", "5"],
                SMALL_RUNS["simulate"],
                SMALL_RUNS["simulate"][:2] + ["test-channel", "--rbar", "1"]
                + SMALL_RUNS["simulate"][3:]]
        out = run_python(
            "import argparse\n"
            "built = []\n"
            "init = argparse.ArgumentParser.__init__\n"
            "def counted(self, *args, **kwargs):\n"
            "    built.append(1)\n"
            "    init(self, *args, **kwargs)\n"
            "argparse.ArgumentParser.__init__ = counted\n"
            "from wienerdr.cli import main\n"
            f"runs = {runs!r}\n"
            "codes = []\n"
            "for i, argv in enumerate(runs):\n"
            "    print('built', len(built))\n"
            f"    codes.append(main(argv + ['--out', {str(tmp_path)!r}"
            " + f'/{i}.csv']))\n"
            "print('built', len(built))\n"
            "print(codes)\n").stdout
        # nothing at import; one parser and four subparsers on the first call
        built = [line.split()[1] for line in out.splitlines()
                 if line.startswith("built ")]
        assert built == ["0"] + ["5"] * len(runs)
        assert out.splitlines()[-1] == str([0] * len(runs))

    def test_reused_parser_keeps_calls_apart(self, tmp_path, capsys):
        curve = ["curve", "--fs", "2", "--min", "0.5", "--max", "4",
                 "--points", "4", "--log"]
        tc = SMALL_RUNS["simulate"][:2] + ["test-channel"] \
            + SMALL_RUNS["simulate"][3:]
        steps = [  # (argv, exit code, output name)
            (curve + ["--rate", "1", "--normalized"], 0, "rate.csv"),
            (curve + ["--bogus", "1"], 2, None),
            (["curve", "--help"], 0, None),
            (curve + ["--points", "1"], 2, "never.csv"),
            (curve, 0, "plain.csv"),
            (tc + ["--rbar", "1.5"], 0, "tc.csv"),
            (tc, 2, "never.csv"),
            (SMALL_RUNS["simulate"], 0, "mmse.csv"),
            (["eigen", "--kind", "interp", "--n", "7"], 0, "eigen.csv"),
        ]
        written = {}
        for argv, code, name in steps:
            if name is not None:
                argv = argv + ["--out", str(tmp_path / name)]
            assert main(argv) == code
            captured = capsys.readouterr()
            if argv[1] == "--help":
                assert captured.out.startswith("usage: wienerdr curve")
            if code == 0 and name is not None:
                written[name] = (argv, captured.out)
        assert "never.csv" not in os.listdir(tmp_path)

        def manifest_flags(name):
            with open(tmp_path / (name + ".manifest.json")) as fh:
                return json.load(fh)["flags"]

        assert manifest_flags("rate.csv")["rate"] == 1.0
        assert manifest_flags("rate.csv")["normalized"] is True
        assert manifest_flags("plain.csv")["rate"] is None
        assert manifest_flags("plain.csv")["normalized"] is False
        assert manifest_flags("tc.csv")["rbar"] == 1.5
        assert manifest_flags("mmse.csv")["rbar"] is None

        # the same argv in a fresh interpreter writes the same bytes
        for name, (argv, stdout) in written.items():
            paths = [tmp_path / (name + ext) for ext in ("", ".manifest.json")]
            mine = [path.read_bytes() for path in paths]
            for path in paths:
                path.unlink()
            again = run_python(
                "import sys\n"
                "from wienerdr.cli import main\n"
                f"sys.exit(main({argv!r}))").stdout
            assert again == stdout
            assert [path.read_bytes() for path in paths] == mine
