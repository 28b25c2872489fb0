"""Command-line interface: determinism, exit codes, file hygiene."""

import contextlib
import io
import json
import math
import os
import runpy
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from types import SimpleNamespace
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import wienerdr
from oracle import argparse_parser
from wienerdr import cli, drf, mc, spectral, waterfill
from wienerdr.cli import _write_csv_atomic, main


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

    @pytest.mark.parametrize("flags", [
        ["--fs", "4", "--min", "0.01", "--max", "40"],
        ["--sigma2", "1e300", "--fs", "1e-10", "--min", "1e-10",
         "--max", "2e-10"],
        ["--sigma2", "1e-300", "--fs", "1e200", "--min", "1e150",
         "--max", "1e202"],
        ["--sigma2", "1e300", "--rate", "1e-10", "--min", "1e-12",
         "--max", "1e-8"]],
        ids=["fs-4", "sigma2-1e300-fs-1e-10", "sigma2-1e-300-fs-1e200",
             "fs-swept"])
    def test_normalized_columns_are_the_sections(self, tmp_path, flags):
        out = str(tmp_path / "norm.csv")
        assert main(["curve", "--normalized", "--points", "5", "--log",
                     *flags, "--out", out]) == 0
        _, c = read_csv(out)
        if "--rate" in flags:
            rbar = float(flags[flags.index("--rate") + 1]) / c["x"]
        else:
            rbar = c["x"] / float(flags[flags.index("--fs") + 1])
        s = drf.sections(rbar)
        expected = {
            "d_opt": 1.0 / 6.0 + s.d_tilde,
            "d_ce": 1.0 / 6.0 + s.ce,
            "d_upper": 1.0 / 6.0 + s.sampled.distortion,
            "d_w": 2.0 / (math.pi ** 2 * math.log(2.0)) / rbar,
            "d_bar": s.sampled.distortion,
            "mmse": np.full(5, 1.0 / 6.0),
            "theta_opt": s.shifted.theta,
            "theta_ce": s.sampled.theta,
        }
        for name, value in expected.items():
            np.testing.assert_allclose(c[name], value, rtol=1e-12,
                                       err_msg=name)

    @pytest.mark.parametrize("flags,code", [
        (["--sigma2", "1.18e-207", "--fs", "8.07e140", "--min", "6e88",
          "--max", "7e88"], 3),
        (["--sigma2", "1e-300", "--fs", "1", "--min", "500", "--max", "501"],
         3),
        (["--sigma2", "2.663335e-316", "--rate", "9.09e-321",
          "--min", "8.198238786611619e-203", "--max", "1e-202"], 0),
        (["--normalized", "--sigma2", "1e300", "--fs", "1e-10",
          "--min", "1e-10", "--max", "2e-10"], 0),
        (["--sigma2", "1e308", "--fs", "1", "--min", "0.4", "--max", "0.5"],
         0),
        (["--sigma2", "1e308", "--fs", "0.5", "--min", "100", "--max", "200"],
         0)],
        ids=["sigma2-over-fs-underflows", "d_bar-underflows",
             "d_w-from-its-unit", "normalized-at-extreme-scale",
             "sigma2-over-rate-overflows", "sigma2-over-fs-overflows"])
    def test_a_curve_is_written_only_where_floats_hold_it(
            self, tmp_path, capsys, flags, code):
        # a row whose exact values leave the normal floats exits 3 and
        # writes nothing; one whose values fit is written in the paper's order
        out = str(tmp_path / "x.csv")
        assert main(["curve", "--points", "2", *flags, "--out", out]) == code
        err = capsys.readouterr().err.splitlines()
        if code == 3:
            assert len(err) == 1
            assert err[0].endswith("is past the floating-point range")
            assert os.listdir(tmp_path) == []
            return
        assert err == []
        _, c = read_csv(out)
        assert all(np.all(col >= sys.float_info.min) for col in c.values())
        slack = 1e-9 * c["d_upper"]
        assert np.all(np.maximum(c["mmse"], c["d_w"]) <= c["d_opt"] + slack)
        assert np.all(c["d_opt"] <= c["d_ce"] + slack)
        assert np.all(c["d_ce"] <= c["d_upper"] + slack)
        assert np.all(c["d_bar"] <= c["d_w"] + slack)

    def test_past_the_underflow_edge_is_a_numerical_failure(self, tmp_path):
        out = str(tmp_path / "never.csv")
        code = main(["curve", "--fs", "1", "--min", "1", "--max", "600",
                     "--points", "3", "--out", out])
        assert code == 3
        assert not os.path.exists(out)

    def test_log_grid_ends_exactly_at_min_and_max(self, tmp_path):
        top = sys.float_info.max   # 10**log10(top) overflows
        assert list(cli._grid(1e305, top, 3, True)[[0, -1]]) == [1e305, top]
        assert list(cli._grid(1.0, 2.0, 3.0, False)) == [1.0, 1.5, 2.0]
        writable = 1.797693134862315e308   # the largest cell read back finite
        out = str(tmp_path / "curve.csv")
        assert main(top_of_range_call(writable)[0] + ["--out", out]) == 0
        with open(out) as fh:
            x = [line.split(",")[0] for line in fh.readlines()[1:]]
        assert [x[0], x[-1]] == [f"{v:.15g}" for v in (1e305, writable)]

    @given(st.floats(5e-324, sys.float_info.max),
           st.floats(5e-324, sys.float_info.max), st.integers(2, 50))
    @example(1e-300, sys.float_info.max, 7)
    @example(5e-324, 1e-320, 4)
    @example(1e305, sys.float_info.max, 3)
    @settings(max_examples=300, deadline=None)
    def test_log_grid_is_geomspace(self, low, high, points):
        # the log sweep skips np.geomspace's general path, not one bit of it
        assume(low < high)
        with np.errstate(over="ignore"):
            want = np.geomspace(low, high, points)
        assert np.array_equal(cli._grid(low, high, points, True), want)

    def test_sub_minimum_rbar_rejected_before_output(self, tmp_path, capsys):
        out = str(tmp_path / "never.csv")
        code = main(["curve", "--fs", "1e160", "--min", "0.01", "--max", "1",
                     "--points", "5", "--out", out])
        assert code == 3
        assert capsys.readouterr().err.splitlines() == [
            "numerical failure in curve: 1e-162 bits per sample is below the"
            f" supported minimum {waterfill.MIN_RBAR:.6g}, where the water"
            " level overflows"]
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("argv", [
        ["curve", "--rate", "1", "--min", "1e3", "--max", "1e9", "--log"],
        ["ratio", "--min", "1e-154", "--max", "1", "--log"]],
        ids=["fs-to-1e9", "rbar-to-1e-154"])
    def test_rbar_down_to_the_float_range(self, tmp_path, argv):
        out = str(tmp_path / "x.csv")
        assert main(argv + ["--points", "3", "--out", out]) == 0
        _, cols = read_csv(out)
        assert all(np.all(np.isfinite(col)) for col in cols.values())

    @pytest.mark.parametrize("argv,low", [
        (["ratio", "--min", "1e-160", "--max", "1", "--log"], "1e-160"),
        (["curve", "--fs", "1e300", "--min", "1e-300", "--max", "1e-299"],
         "4.94066e-324")],
        ids=["rbar-1e-160", "rate-over-fs-underflows"])
    def test_below_the_supported_minimum_exits_3(self, tmp_path, capsys,
                                                argv, low):
        out = str(tmp_path / "x.csv")
        assert main(argv + ["--points", "3", "--out", out]) == 3
        assert capsys.readouterr().err.splitlines() == [
            f"numerical failure in {argv[0]}: {low} bits per sample is below"
            f" the supported minimum {waterfill.MIN_RBAR:.6g}, where the"
            " water level overflows"]
        assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("command", [["ratio"], ["curve", "--fs", "1"]])
@pytest.mark.parametrize("low,high", [
    (waterfill.MIN_RBAR, 1.0), (1.0, waterfill.MAX_RBAR),
    (math.nextafter(waterfill.MIN_RBAR, 0.0), 1.0),
    (1.0, math.nextafter(waterfill.MAX_RBAR, math.inf))],
    ids=["min", "max", "below-min", "past-max"])
def test_the_stated_rbar_range_is_the_answered_range(tmp_path, capsys,
                                                     command, low, high):
    # at fs = 1 the swept R is rbar: each edge answers, and the next float
    # past it exits 3 with the range message, not a later column's
    out = str(tmp_path / "x.csv")
    code = main(command + ["--min", repr(low), "--max", repr(high),
                           "--points", "2", "--out", out])
    if waterfill.MIN_RBAR <= low and high <= waterfill.MAX_RBAR:
        assert code == 0
        _, cols = read_csv(out)
        assert all(np.all(col > 0) for col in cols.values())
        return
    edge, side = ((waterfill.MIN_RBAR, "below the supported minimum")
                  if low < 1.0 else
                  (waterfill.MAX_RBAR, "past the supported maximum"))
    assert code == 3
    assert f"{side} {edge:.6g}, where" in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


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

    def test_a_cell_past_the_floats_is_named_by_its_column(
            self, tmp_path, capsys, monkeypatch):
        # no ratio in the supported range leaves the floats, so one is made to
        monkeypatch.setattr(drf.Sections, "ce_penalty", property(
            lambda self: np.where(self.rbar > 1.5, np.inf, 1.0)))
        out = str(tmp_path / "x.csv")
        assert main(["ratio", "--min", "1", "--max", "2", "--points", "3",
                     "--out", out]) == 3
        assert capsys.readouterr().err.splitlines() == [
            "numerical failure in ratio: ce_penalty is past the"
            " floating-point range"]
        assert os.listdir(tmp_path) == []


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

    @pytest.mark.parametrize("n,sigma2,fs", [
        ("1", "1", "1"), ("7", "0.3", "11"), ("2500", "1", "1"),
        ("4224", "1.28795", "3.1039"), ("5018", "2.5e-7", "9e3")])
    def test_interp_lambda_is_its_density_limit(self, tmp_path, n, sigma2,
                                                 fs):
        # the interpolator's eigenvalues are sigma2 ts^2 S~((k - 1/2)/n)
        # bit for bit, so the two columns are one text
        out = tmp_path / "interp.csv"
        assert main(["eigen", "--kind", "interp", "--n", n, "--sigma2",
                     sigma2, "--fs", fs, "--out", str(out)]) == 0
        rows = [line.split(",") for line in out.read_text().splitlines()]
        assert rows[0] == ["k", "lambda", "density_limit"]
        assert len(rows) == int(n) + 1
        assert all(row[1] == row[2] for row in rows[1:])

    @pytest.mark.parametrize("kind,density", [
        ("interp", spectral.SHIFTED_SAMPLED_WIENER),
        ("discrete", spectral.SAMPLED_WIENER)])
    def test_the_density_is_evaluated_once(self, tmp_path, monkeypatch, kind,
                                           density):
        # the interpolator's builder evaluates its density, whose values are
        # then both columns; the walk's builder has its own form, and only
        # its density_limit evaluates the density
        calls, call = [], spectral.SpectralDensity.__call__

        def counted(self, phi):
            calls.append(self)
            return call(self, phi)

        monkeypatch.setattr(spectral.SpectralDensity, "__call__", counted)
        assert main(["eigen", "--kind", kind, "--n", "64", "--out",
                     str(tmp_path / "eigen.csv")]) == 0
        assert len(calls) == 1 and calls[0] is density

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
        # the per-trial array of 4099 values is made to fail, as one of
        # 2**32 values (32 GiB) would where memory is short
        empty = np.empty

        def short_of_memory(shape, *args, **kwargs):
            if shape == 4099:
                raise MemoryError("unable to allocate 32.0 KiB")
            return empty(shape, *args, **kwargs)

        monkeypatch.setattr(np, "empty", short_of_memory)
        out = str(tmp_path / "sim.csv")
        code = main(["simulate", "--scheme", "mmse-only", "--horizon", "2",
                     "--oversample", "2", "--trials", "4099", "--seed", "1",
                     "--out", out])
        assert code == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: --trials is too large to allocate"]
        assert os.listdir(tmp_path) == []
        with pytest.raises(MemoryError):   # library callers get it as it is
            mc.empirical_mmse(spectral.ProcessParams(1.0, 1.0),
                              mc.SimConfig(2.0, 2, 4099, 1))

    def test_unallocatable_table_names_trials(self, tmp_path, capsys,
                                              monkeypatch):
        # the trial count (5) is at least a trial row (one interval of 3
        # fine steps and 2 more), so it is named for the table's failure
        def short_of_memory(*args):
            raise MemoryError("unable to allocate 80 bytes")

        monkeypatch.setattr(np, "column_stack", short_of_memory)
        out = str(tmp_path / "sim.csv")
        code = main(["simulate", "--scheme", "mmse-only", "--horizon", "1",
                     "--oversample", "3", "--trials", "5", "--seed", "1",
                     "--out", out])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            "error: --trials is too large to allocate"]
        assert captured.out == ""
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


#: argparse, the reference for what ``cli._parse`` accepts and refuses
ARGPARSE = argparse_parser()
#: every flag of every command, with -h and --help, as the argv grammar uses
FLAGS = sorted({name for _, _, flags in cli._COMMANDS.values()
                for name in flags} | {"help"})
VALUES = ["1", "2.5", "0.5", "3", "-1", "-.5", "-1e3", "x", "", "1e400", "nan",
          "1_000", " 3", "discrete", "interp", "mmse-only", "test-channel",
          "-o.csv", "o.csv", "-o 1.csv"]
#: flag-value pairs that together satisfy each command's required flags
REQUIRED = {"curve": [["--min", "1"], ["--max", "2"], ["--points", "3"]],
            "ratio": [["--min", "1"], ["--max", "2"], ["--points", "3"]],
            "eigen": [["--kind", "interp"], ["--n", "3"]],
            "simulate": [["--scheme", "mmse-only"], ["--horizon", "2"],
                         ["--trials", "3"], ["--seed", "1"]],
            "frobnicate": []}   # an unknown command


@st.composite
def flag_tokens(draw, names=FLAGS):
    """A flag of ``names``, whole or any prefix of it (unique or
    ambiguous), at times with "=value" joined on."""
    name = draw(st.sampled_from(names))
    token = "--" + name[:draw(st.integers(1, len(name)))]
    if draw(st.booleans()):
        token = "--" + name
    if draw(st.integers(0, 4)) == 0:
        token += "=" + draw(st.sampled_from(VALUES))
    return [token]


def reads(kind, text):
    """Whether a flag of type ``kind`` takes ``text``."""
    if isinstance(kind, tuple):
        return text in kind
    try:
        kind(text)
    except ValueError:
        return False
    return True


@st.composite
def good_chunks(draw, flags):
    """A flag of the table ``flags``, whole or abbreviated, with a value it
    takes (alone, or joined by "="), or alone if it is a switch."""
    name = draw(st.sampled_from(sorted(flags)))
    kind, token = flags[name][0], "--" + name[:draw(st.integers(1, len(name)))]
    if kind is bool:
        return [token]
    value = draw(st.sampled_from([v for v in VALUES if reads(kind, v)]))
    return [f"{token}={value}"] if draw(st.booleans()) else [token, value]


@st.composite
def argvs(draw):
    """A command, or an unknown word, and then chunks in any order: at times
    the required flags with good values and an --out, and any of flags,
    values, -h and --help, each of which may repeat or lack its value."""
    command = draw(st.sampled_from(list(REQUIRED)))
    own = cli._COMMANDS[command][2] if command in cli._COMMANDS else {}
    flag = st.one_of(flag_tokens(), flag_tokens(sorted(own or FLAGS)))
    value = st.sampled_from(VALUES).map(lambda v: [v])
    pair = st.tuples(flag, value).map(lambda pair: sum(pair, []))
    good = good_chunks(own) if own else pair
    chunks = draw(st.lists(st.one_of(   # a flag with a value most often
        good, good, good, pair, pair, flag, value,
        st.sampled_from([["-h"], ["--help"]])), max_size=5))
    if draw(st.sampled_from([True, True, True, False])):
        chunks += REQUIRED[command] + [["--out", "o.csv"]]
    chunks = draw(st.permutations(chunks))
    return [command] + [token for chunk in chunks for token in chunk]


def argparse_outcome(argv):
    """argparse's exit code, None if it accepts, and the flags it read."""
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            return None, vars(ARGPARSE.parse_args(argv))
        except SystemExit as exc:
            return exc.code, None


@given(argv=argvs())
@example(argv=["curve", "--sig", "2", *sum(REQUIRED["curve"], []), "--out",
               "o.csv"])
@example(argv=["simulate", "--s", "1", *sum(REQUIRED["simulate"], []),
               "--out", "o.csv"])
@example(argv=["curve", "--log=1", *sum(REQUIRED["curve"], []), "--out",
               "o.csv"])
@example(argv=["curve", "--rate", "-1e3", *sum(REQUIRED["curve"], []),
               "--out", "o.csv"])
@example(argv=["curve", *sum(REQUIRED["curve"], []), "--points", " 3",
               "--rate=-1", "--sig", "1e400", "--fs", "nan", "--min", "-.5",
               "--points", "1_000", "--out", "o.csv"])
@example(argv=["ratio", *sum(REQUIRED["ratio"], []), "--out", "-o 1.csv"])
# the edges of the plain form: the first four and the repeat are on it
@example(argv=["ratio", *sum(REQUIRED["ratio"], []), "--out", ""])
@example(argv=["curve", *sum(REQUIRED["curve"], []), "--points", " 3",
               "--out", "o.csv"])
@example(argv=["curve", *sum(REQUIRED["curve"], []), "--points", "1_000",
               "--out", "o.csv"])
@example(argv=["eigen", "--kind", "x", "--n", "3", "--out", "o.csv"])
@example(argv=["curve", *sum(REQUIRED["curve"], []), "--log", "1", "--out",
               "o.csv"])
@example(argv=["curve", *sum(REQUIRED["curve"], []), "--min", "0.5",
               "--out", "o.csv", "--out", "p.csv"])
@example(argv=["curve", "--rate", "-1", *sum(REQUIRED["curve"], []), "--out",
               "o.csv"])
@example(argv=[])
@settings(max_examples=400, deadline=None)
def test_argv_is_read_as_argparse_reads_it(argv):
    """Where argparse accepts an argv, ``_parse`` gives the same flags (a nan
    equal to a nan); where it refuses one, so does ``_parse``, and ``main``
    exits 2 with one ``error:`` line and writes nothing; where it prints
    help, ``main`` exits 0 with a usage line."""
    expected, flags = argparse_outcome(argv)
    if expected is None:
        got = vars(cli._parse(list(argv)))
        assert got.keys() == flags.keys()
        for key, value in flags.items():
            assert got[key] == value or (value != value and got[key] != got[key])
        return
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
        finally:
            os.chdir(cwd)
        assert os.listdir(work) == []
    assert code == expected
    if code == 2:   # refused by the reader itself, before any type sees it
        with pytest.raises(ValueError):
            cli._parse(list(argv))
        assert len(err.getvalue().splitlines()) == 1
        assert err.getvalue().startswith("error: ")
    else:
        assert out.getvalue().startswith("usage: wienerdr")


@pytest.mark.parametrize("command", list(cli._COMMANDS))
@pytest.mark.parametrize("refused", [[], ["--bogus"]])
def test_help_prints_every_flag_of_the_command(capsys, command, refused):
    """``-h`` on a command, alone or after a token that argparse refuses,
    prints the command's ``_usage``, with a row for each of its flags."""
    assert main([command, *refused, "-h"]) == 0
    out = capsys.readouterr().out
    assert out == cli._usage(command)
    rows = [line.split()[0] for line in out.splitlines()[1:]]
    assert rows == [f"--{name}" for name in cli._COMMANDS[command][2]]


def test_benchmark_ops_are_read_in_the_plain_form(monkeypatch):
    """The first op of each of the benchmark's workloads, and the ops of
    seeds 1-8 x cycles 0-19, each with its ``--out``, are read by ``_parse``
    alone: none builds an argparse parser.  ``bench/workloads.py`` is only
    read."""
    workloads = runpy.run_path(os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        "bench", "workloads.py"))

    def refuse(argv):
        raise AssertionError(f"{argv} was read by argparse")

    monkeypatch.setattr(cli, "_argparse", refuse)
    for workload in workloads["WORKLOADS"]:
        ops = [workloads["first_op"](workload)] + [
            op for seed in range(1, 9) for c in range(20)
            for op in workloads["cycle"](workload, seed, c)]
        for op in ops:
            args = cli._parse(op["argv"] + ["--out", "o.csv"])
            assert (args.command, args.out) == (op["argv"][0], "o.csv")


GRID = ["--min", "0.5", "--max", "2", "--points", "3"]
CURVE, RATIO = ["curve", *GRID], ["ratio", *GRID]
EIGEN = ["eigen", "--kind", "interp", "--n", "5"]
MMSE = ["simulate", "--scheme", "mmse-only", "--horizon", "4", "--trials",
        "5", "--seed", "1"]
CHANNEL = ["simulate", "--scheme", "test-channel", "--horizon", "4",
           "--trials", "5", "--seed", "1"]
POSITIVE = "must be positive and finite"
TWO_TRIALS = "--trials must be >= 2: a standard error needs at least 2 trials"
HORIZON_TOO_LONG = "--horizon is too long to allocate"
TOO_LARGE = "is too large to allocate"
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
    (EIGEN + ["--n", "0"], "--n must be >= 1"),
    (MMSE + ["--horizon", "0"], f"--horizon {POSITIVE}"),
    (MMSE + ["--oversample", "0"], "--oversample must be >= 1"),
    (MMSE + ["--trials", "0"], TWO_TRIALS),
    (MMSE + ["--trials", "1"], TWO_TRIALS),
    (MMSE + ["--trials", str(2 ** 32 + 1)], "--trials must be <= 2**32"),
    (MMSE + ["--seed", "-1"], "--seed must fit in 64 bits"),
    (MMSE + ["--seed", str(2 ** 64)], "--seed must fit in 64 bits"),
    (CHANNEL + ["--rbar", "inf"], f"--rbar {POSITIVE}"),
    (MMSE + ["--rbar", "nan"], f"--rbar {POSITIVE}"),
    (CHANNEL, "--rbar is required for the test-channel scheme"),
    (MMSE + ["--horizon", "1e300", "--fs", "1e10"], HORIZON_TOO_LONG),
    (CHANNEL + ["--rbar", "1", "--horizon", "1e300", "--fs", "1e10"],
     HORIZON_TOO_LONG),
    (MMSE + ["--horizon", "1e300"], HORIZON_TOO_LONG),
    (CHANNEL + ["--rbar", "1", "--horizon", "1e300"], HORIZON_TOO_LONG),
    (MMSE + ["--horizon", "1e18"], HORIZON_TOO_LONG),
    (CHANNEL + ["--rbar", "1", "--horizon", "1e18"], HORIZON_TOO_LONG),
    (MMSE + ["--fs", "1", "--oversample", "1000000000000000000"],
     "--oversample is too long to allocate"),
    (MMSE + ["--fs", "1e18"], "--fs is too long to allocate"),
    (CHANNEL + ["--rbar", "1", "--fs", "1", "--horizon", "1"],
     "--horizon must exceed 1/fs: horizon * fs > 1"),
    (["eigen", "--kind", "discrete", "--n", "10000000000000"],
     f"--n {TOO_LARGE}"),
    (CURVE + ["--points", "10000000000000"], f"--points {TOO_LARGE}"),
    (RATIO + ["--points", "10000000000000"], f"--points {TOO_LARGE}"),
    (MMSE + ["--horizon", "1e16"], f"--horizon {TOO_LARGE}"),
    (CHANNEL + ["--rbar", "1", "--horizon", "1e16"], f"--horizon {TOO_LARGE}"),
    (MMSE + ["--oversample", "10000000000000"], f"--oversample {TOO_LARGE}"),
    (MMSE + ["--fs", "1e-12", "--horizon", "1e13", "--oversample",
             "1000000000000"], f"--oversample {TOO_LARGE}"),
    (CURVE + ["--points", str(2 ** 55)], "--points is too long to allocate"),
    (EIGEN + ["--n", str(10 ** 400)], "--n is too long to allocate"),
    (MMSE + ["--oversample", str(10 ** 400)],
     "--oversample is too long to allocate"),
    (CHANNEL + ["--rbar", "1", "--oversample", "1", "--horizon", "1e17"],
     HORIZON_TOO_LONG)],
    ids=["sigma2", "fs", "fs-swept", "rate", "min", "max", "min-above-max",
         "min-equals-max", "points-0", "points-1", "n", "horizon",
         "oversample", "trials-0", "trials-1", "trials-2**32+1", "seed--1",
         "seed-2**64", "rbar-inf", "rbar-unused", "rbar-missing",
         "horizon-overflows-mmse", "horizon-overflows-channel",
         "horizon-1e300-mmse", "horizon-1e300-channel", "horizon-1e18-mmse",
         "horizon-1e18-channel", "oversample-overflows", "fs-overflows",
         "one-interval-channel", "n-past-memory", "curve-points-past-memory",
         "ratio-points-past-memory", "horizon-past-memory-mmse",
         "horizon-past-memory-channel", "oversample-past-memory",
         "oversample-past-memory-long-horizon", "points-past-the-count-bound",
         "n-10**400", "oversample-10**400", "intervals-past-the-count-bound"])
def test_each_bad_flag_is_named(tmp_path, capsys, monkeypatch, argv, message):
    # each value is refused by its type before any work (no run may start),
    # or by the first allocation it sizes, which for mmse-only is in the run
    def never(*args):
        raise AssertionError("the computation must not start")

    monkeypatch.setattr(drf, "sections", never)
    if not message.endswith(TOO_LARGE):
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
    (lambda: spectral.discrete_wiener_eigensystem(UNIT_PARAMS, 0), "n"),
    (lambda: spectral.interp_kernel_eigensystem(UNIT_PARAMS, -1), "n"),
    (lambda: mc.mc_test_channel_run(UNIT_PARAMS, mc.SimConfig(8.0, 4, 5, 1),
                                    math.nan), "rbar"),
    (lambda: cli._grid(1.0, math.inf, 3, False), "max"),
    (lambda: cli._grid(1.0, 2.0, 1, True), "points"),
    (lambda: spectral.nystrom_interp_eigenvalues(UNIT_PARAMS, 2, 1),
     "grid_points"),
    (lambda: mc.ce_moment_oracle(UNIT_PARAMS, 1, 1.0), "n"),
    (lambda: drf.d_w(drf.RateSpec(1.0), -1.0), "sigma2"),
    (lambda: spectral.check_count("n", "x"), "n"),
    (lambda: spectral.check_count("n", object()), "n"),
    (lambda: mc.SimConfig(1.0, "8.5", 2, 1), "oversample"),
    (lambda: spectral.ProcessParams("abc", 1.0), "sigma2"),
    (lambda: spectral.ProcessParams(object(), 1.0), "sigma2"),
    (lambda: spectral.ProcessParams(np.array([1.0, 2.0]), 1.0), "sigma2"),
    (lambda: drf.RateSpec([2.0]), "rate"),
    (lambda: mc.SimConfig(1.0, 8, 2, "x"), "seed"),
    (lambda: mc.SimConfig(1.0, 8, 2, object()), "seed"),
    (lambda: mc.ErrorMoments("abc", [0.5]), "second"),
    (lambda: drf.sections("x"), "rbar"),
    (lambda: waterfill.solve_theta_for_rate(spectral.SAMPLED_WIENER, "x"),
     "rate_bits_per_sample"),
    (lambda: mc.finite_waterfill_theta([[1.0, 2.0]], 1.0), "eigenvalues"),
    (lambda: mc.finite_waterfill_theta([], 1.0), "eigenvalues"),
    (lambda: mc.SimConfig(1.0, True, 2, 1), "oversample"),
    (lambda: mc.SimConfig(1.0, 8, 2, np.bool_(True)), "seed")],
    ids=["sigma2", "fs", "RateSpec", "sweep", "horizon_t", "oversample",
         "trials", "seed", "discrete-n", "interp-n", "rbar", "grid-max",
         "grid-points", "nystrom-grid-points", "oracle-n", "d_w-sigma2",
         "count-text", "count-object", "oversample-text", "sigma2-text",
         "sigma2-object", "sigma2-array", "rate-list", "seed-text",
         "seed-object", "moments-text", "sections-text", "solve-text",
         "eigenvalues-2d", "eigenvalues-empty", "oversample-bool",
         "seed-np-bool"])
def test_each_type_names_its_field(monkeypatch, build, field):
    monkeypatch.setattr(mc, "_run", None)   # rbar is checked before any draw
    with pytest.raises(spectral.ParameterError) as caught:
        build()
    assert caught.value.field == field
    assert str(caught.value).startswith(f"{field} must ")


#: the forms in which a real value reaches a type, and those of a count
REAL_FORMS = (float, int, np.float64, np.float32, np.int64, np.array, str)
COUNT_FORMS = (int, float, np.int64, np.float64, np.array)


@st.composite
def as_form(draw, value, forms=REAL_FORMS):
    """``value`` in one of ``forms``; an integer form takes it rounded."""
    form = draw(st.sampled_from(forms))
    integral = form in (int, np.int64)
    return form(max(1, round(value)) if integral else value)


def reals(low, high):
    """Positive reals that a float32 holds exactly, in one of the forms."""
    return st.floats(low, high, width=32).flatmap(as_form)


def counts(low, high):
    return st.integers(low, high).flatmap(lambda k: as_form(k, COUNT_FORMS))


def outcome(call):
    """The call's result, or the type and text of its typed error."""
    try:
        return call()
    except (ValueError, FloatingPointError) as exc:
        return type(exc), str(exc)


#: every input as a plain float, int or list, which the examples vary
PLAIN = dict(params=(1.0, 1.0), rate=2.0, config=(4.0, 8, 4, 3),
             grid=(1.0, 2.0, 3), moments=([1.0, 1.0], [0.5]), rbar=1.0)


@given(params=st.tuples(reals(2.0 ** -20, 2.0 ** 20),
                        reals(2.0 ** -20, 2.0 ** 20)),
       rate=reals(2.0 ** -20, 2.0 ** 20),
       config=st.tuples(reals(2.0 ** -10, 2.0 ** 10), counts(1, 64),
                        counts(2, 10 ** 6), counts(0, 2 ** 32)),
       grid=st.tuples(reals(1.0, 2.0 ** 10), reals(1.0, 2.0 ** 10),
                      counts(2, 64)),
       moments=st.integers(2, 5).flatmap(lambda n: st.tuples(
           st.lists(st.floats(0.0, 1e3), min_size=n, max_size=n),
           st.lists(st.floats(-0.25, 0.25), min_size=n - 1, max_size=n - 1))),
       rbar=reals(2.0 ** -4, 2.0 ** 4))
@example(**{**PLAIN, "params": ("1", 1.0)})
@example(**{**PLAIN, "rate": "2"})
@example(**{**PLAIN, "config": (4.0, 8, 4, 3.0)})
@example(**{**PLAIN, "params": (1, 2), "rbar": "1"})
@example(**{**PLAIN, "config": (1.0, "8", 2, 1)})
@example(**{**PLAIN, "params": (1.0, 97.0),   # a lower bound below mmse
            "moments": ([0.0, 0.5, 33.0], [0.0, -0.25])})
@settings(max_examples=100, deadline=None)
def test_a_type_keeps_the_value_it_checked(params, rate, config, grid,
                                           moments, rbar):
    """Each type stores a Python float for a real, an int for a count or
    the seed and float64 arrays for the moments, whatever form it was
    given, and answers exactly as the plain-float build does."""
    def plain(values):
        return tuple(float(v) for v in values)

    p = spectral.ProcessParams(*params)
    r = drf.RateSpec(rate)
    c = mc.SimConfig(*config)
    assume(float(grid[0]) < float(grid[1]))
    g = cli._grid(*grid, log=True).tolist()   # first, ..., last
    second, cross = moments   # a cross moment of at most sqrt(s1 s2) / 4
    cross = [w * math.sqrt(a * b)
             for w, a, b in zip(cross, second, second[1:])]
    m = mc.ErrorMoments(second, cross)
    for value in (p.sigma2, p.fs, r.rate, c.horizon_t, g[0], g[-1]):
        assert type(value) is float
    for value in (c.oversample, c.trials, c.seed, len(g)):
        assert type(value) is int
    assert all(type(v) is np.ndarray and v.dtype == np.float64
               for v in (m.second, m.cross))
    assert (c.horizon_t, c.oversample, c.trials, c.seed) == plain(config)
    assert (g[0], g[-1], len(g)) == plain(grid)
    p0 = spectral.ProcessParams(*plain(params))
    r0 = drf.RateSpec(float(rate))
    assert outcome(lambda: drf.bundle(p, r)) \
        == outcome(lambda: drf.bundle(p0, r0))
    assert outcome(lambda: drf.sweep(*params, rate)) \
        == outcome(lambda: drf.sweep(*plain(params), float(rate)))
    assert outcome(lambda: mc.ce_distortion_estimate(p, 8, rbar)) \
        == outcome(lambda: mc.ce_distortion_estimate(p0, 8, float(rbar)))


def test_a_string_bit_rate_gives_the_estimate_of_its_float():
    estimate = mc.ce_distortion_estimate(spectral.ProcessParams(1, 2), 8, "1")
    assert estimate.estimate == 0.16145833333333334


#: sigma2 and fs of the contract below, log-uniform over the float range
SCALE = st.floats(math.log(1e-310), math.log(1e308)).map(math.exp)
RBAR = st.floats(1e-3, 50.0)
#: bits per sample of a curve or ratio sweep: as ``RBAR``, or log-uniform
#: down to MIN_RBAR
SWEPT_RBAR = st.one_of(RBAR, st.floats(math.log(waterfill.MIN_RBAR),
                                       math.log(50.0)).map(math.exp))
#: exit-2 messages about a value that no flag holds alone, by their start
DERIVED = ("error: need 0 < --min < --max", "error: --horizon must exceed")


@st.composite
def cli_calls(draw):
    """(argv without --out, its numeric flags) of one small command whose
    sigma2 and fs may lie anywhere in the float range."""
    command = draw(st.sampled_from(["curve", "ratio", "eigen", "simulate"]))
    sigma2, fs = draw(SCALE), draw(SCALE)
    low, high = sorted([draw(SWEPT_RBAR), draw(SWEPT_RBAR)])
    flags = {} if command == "ratio" else {"--sigma2": sigma2, "--fs": fs}
    argv = [command]
    if command == "ratio":
        flags.update({"--min": low, "--max": high})
    elif command == "curve":
        if draw(st.booleans()):   # sweep R at fixed fs
            flags.update({"--min": low * fs, "--max": high * fs})
        else:                     # sweep fs at fixed R
            rate = draw(SWEPT_RBAR) * fs
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
    density = spectral.SAMPLED_WIENER((k - 0.5) / n)
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


def top_of_range_call(top: float):
    """(argv, flags) of the log curve up to --max ``top``."""
    flags = {"--sigma2": 1e14, "--fs": 1e307, "--min": 1e305, "--max": top}
    argv = ["curve", "--points", "3", "--log"]
    for flag, value in flags.items():
        argv += [flag, repr(value)]
    return argv, flags


@given(call=cli_calls())
@example(call=top_of_range_call(1.797693134862315e308))
@example(call=top_of_range_call(1.7976931348623157e308))
@settings(max_examples=200, deadline=None)
def test_contract_over_the_float_range(call):
    """Every call exits 0 with cells whose text reads back finite and
    normal or zero, and a manifest, or 2 or 3 with one stderr line and no
    file; a flag at fault is named, an ``eigen`` exit 0 has no zero
    eigenvalue or density cell, and an ``eigen`` exit 3 has an answer
    outside the normal floats."""
    argv, flags = call
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as work, warnings.catch_warnings():
        warnings.simplefilter("error")
        out = os.path.join(work, "x.csv")
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            code = main(argv + ["--out", out])
        files = sorted(os.listdir(work))
        cols = read_csv(out)[1] if code == 0 else None
    assert code in (0, 2, 3)
    lines = err.getvalue().splitlines()
    if code == 0:
        assert files == ["x.csv", "x.csv.manifest.json"] and lines == []
        size = np.abs(np.concatenate(list(cols.values())))   # read back
        assert np.all(np.isfinite(size))
        assert np.all((size == 0) | (size >= sys.float_info.min))
        if argv[0] == "eigen":
            assert np.all(cols["lambda"] > 0)
            assert np.all(cols["density_limit"] > 0)
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


#: a count small enough to run, or past what any memory holds, below the
#: count bound 2**55 or above it; nothing between, so no call allocates much
#: or runs long
HUGE_COUNTS = (st.integers(10 ** 13, 2 ** 55), st.integers(2 ** 55, 10 ** 400))
COUNT = st.one_of(st.integers(0, 10 ** 4), *HUGE_COUNTS)
COUNT_FLAGS = ("--n", "--points", "--trials", "--oversample", "--horizon")


def count_call(*argv):
    """(argv, the count flags and --horizon it sets) of one fixed call."""
    return list(argv), {flag for flag in argv if flag in COUNT_FLAGS}


@st.composite
def count_calls(draw):
    """(argv without --out, the flags it sets of ``COUNT_FLAGS``) of one
    command whose counts, and --horizon in sampling intervals, are each
    ``COUNT``s; a run that fits in memory draws at most 2e6 normals."""
    command = draw(st.sampled_from(["curve", "ratio", "eigen", "simulate"]))
    argv = [command]
    if command == "eigen":
        argv += ["--kind", draw(st.sampled_from(["discrete", "interp"]))]
        counts = {"--n": draw(COUNT)}
    elif command in ("curve", "ratio"):
        argv += ["--min", "1", "--max", "2"]
        argv += ["--log"] if draw(st.booleans()) else []
        counts = {"--points": draw(COUNT)}
    else:
        scheme = draw(st.sampled_from(["mmse-only", "test-channel"]))
        argv += ["--scheme", scheme, "--seed", "1"]
        argv += ["--rbar", "1"] if scheme == "test-channel" else []
        intervals = st.one_of(st.integers(0, 8), HUGE_COUNTS[0],
                              st.integers(2 ** 55, 10 ** 300))
        counts = {"--horizon": draw(intervals), "--oversample": draw(COUNT),
                  "--trials": draw(COUNT)}
        assume(max(counts.values()) >= 10 ** 13
               or math.prod(counts.values()) <= 2 * 10 ** 6)
        counts["--horizon"] = float(counts["--horizon"])
    for flag, value in counts.items():
        argv += [flag, str(value)]
    return count_call(*argv)


@given(call=count_calls())
@example(call=count_call("curve", "--fs", "1", "--min", "1", "--max", "2",
                         "--points", str(2 ** 63 - 1)))
@example(call=count_call("ratio", "--min", "1", "--max", "2", "--points",
                         str(2 ** 63 - 1), "--log"))
@example(call=count_call("eigen", "--kind", "discrete", "--n",
                         str(2 ** 63 - 1)))
@example(call=count_call("eigen", "--kind", "interp", "--n", str(2 ** 61)))
@example(call=count_call("curve", "--fs", "1", "--min", "1", "--max", "2",
                         "--points", str(2 ** 62)))
@example(call=count_call("eigen", "--kind", "interp", "--n", str(10 ** 400)))
@example(call=count_call("curve", "--fs", "1", "--min", "1", "--max", "2",
                         "--points", str(10 ** 400)))
@example(call=count_call("simulate", "--scheme", "mmse-only", "--fs", "1",
                         "--horizon", "4", "--trials", "3", "--seed", "1",
                         "--oversample", str(10 ** 400)))
@example(call=count_call("eigen", "--kind", "interp", "--n",
                         str(2 ** 55 - 1)))
@example(call=count_call("eigen", "--kind", "interp", "--n", str(2 ** 55)))
@settings(max_examples=200, deadline=None)
def test_contract_over_the_counts(call):
    """Every call exits 0 with its CSV and manifest, or 2 or 3 with one
    stderr line and no file; an exit 2 names one of the count flags (or
    --horizon) that the call set, whether the count is refused as it is
    read or fails to allocate."""
    argv, counts = call
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as work, warnings.catch_warnings():
        warnings.simplefilter("error")
        out = os.path.join(work, "x.csv")
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            code = main(argv + ["--out", out])
        files = sorted(os.listdir(work))
    lines = err.getvalue().splitlines()
    assert code in (0, 2, 3)
    if code == 0:
        assert files == ["x.csv", "x.csv.manifest.json"] and lines == []
        return
    assert len(lines) == 1 and files == []
    if code == 2:
        assert any(lines[0].startswith(f"error: {flag} ") for flag in counts)


def run_python(code: str, expect: int = 0) -> subprocess.CompletedProcess:
    """Run code in a fresh interpreter that imports this checkout's package,
    with warnings as errors, as in this suite."""
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(wienerdr.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-W", "error", "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == expect, done.stderr
    return done


def test_readme_api_sketch_runs():
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme) as f:
        blocks = f.read().split("```python\n")[1:]
    assert len(blocks) == 1
    run_python(blocks[0].split("```")[0])


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

    @pytest.mark.parametrize("command,library", [
        ("curve", lambda grid: drf.sweep(1.0, 1.0, grid)),
        ("ratio", drf.sections)])
    def test_the_cli_adds_at_most_one_block(self, tmp_path, command, library):
        # past the library's own peak on the same grid and the grid itself,
        # the writer holds one block of rows, never the whole table
        grid = cli._grid(1e-3, 1e2, 100_000, True)
        argv = [command, "--min", "1e-3", "--max", "1e2", "--points",
                str(len(grid)), "--log", "--out", str(tmp_path / "x.csv")]
        peaks, results = [], []
        for call in (lambda: library(grid), lambda: main(argv)):
            tracemalloc.start()
            try:
                results.append(call())
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert results[1] == 0
        excess = peaks[1] - peaks[0] - grid.nbytes
        assert excess <= 0.5e6, excess

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
        write, writes = os.write, []

        def exploding_write(fd, data):
            """Takes the header and one block, then fails."""
            writes.append(len(data))
            if len(writes) > 2:
                raise RuntimeError("mid-write failure")
            return write(fd, data)

        monkeypatch.setattr(os, "write", exploding_write)
        columns = [np.ones(2 * cli._CSV_BLOCK_ROWS)] * 2
        with pytest.raises(RuntimeError):
            _write_csv_atomic(out, ["a", "b"], columns)
        assert len(writes) == 3
        assert not os.path.exists(out)
        assert os.listdir(tmp_path) == []

    def test_short_writes_are_resumed(self, tmp_path, monkeypatch):
        # os.write may take part of what it is given; the rest follows
        out, write = str(tmp_path / "short.csv"), os.write
        monkeypatch.setattr(os, "write", lambda fd, data: write(fd, data[:7]))
        _write_csv_atomic(out, ["a", "b"], [np.arange(0.0, 6.0, 2.0),
                                            np.arange(1.0, 6.0, 2.0)])
        with open(out, "rb") as fh:
            assert fh.read() == b"a,b\n0,1\n2,3\n4,5\n"

    def test_manifest_bytes_are_the_sorted_json(self, tmp_path):
        out = str(tmp_path / "m-\u00e9.csv")   # escaped in the ASCII JSON
        assert main(SMALL_RUNS["curve"] + ["--out", out]) == 0
        with open(out + ".manifest.json", "rb") as fh:
            data = fh.read()
        manifest = json.loads(data)
        assert manifest["command"] == "curve"
        assert data == (json.dumps(manifest, indent=2, sort_keys=True)
                        + "\n").encode("ascii")

    def test_blocks_match_per_value_format(self, tmp_path):
        # the 15-digit text of every value it accepts, whatever the row count
        special = [0.0, -0.0, 2.2250738585072014e-308, -1.0e308, 2.0 ** 53,
                   2.0 ** 53 - 1, -2.0 ** 53, 1.0 / 3.0, -1.0 / 3.0, 0.1,
                   1e15, 1e16, 123456789012345678.0, -7.0, 3.0]
        rng = np.random.default_rng(97)
        block = cli._CSV_BLOCK_ROWS
        for rows in (1, block - 1, block, block + 1):
            values = rng.standard_normal(rows * 3) * 10.0 ** rng.integers(
                -300, 300, rows * 3)
            values[:len(special)] = special[:rows * 3]
            table = values.reshape(rows, 3)
            table[:, 0] = rng.integers(0, 2 ** 53 + 1, rows)
            out = str(tmp_path / "t.csv")
            _write_csv_atomic(out, ["k", "x", "y"], list(table.T))
            expected = "k,x,y\n" + "".join(
                ",".join(f"{v:.15g}" for v in row) + "\n" for row in table)
            with open(out, "rb") as fh:
                assert fh.read() == expected.encode()

    @pytest.mark.parametrize("value", [
        np.inf, -np.inf, np.nan, 5e-324, -5e-324, np.finfo(float).max,
        -np.finfo(float).max])
    def test_refused_values_name_their_column(self, tmp_path, value):
        # a value whose 15-digit text is not its float is named by its
        # column in the last row, whatever the row count, and leaves no file
        block = cli._CSV_BLOCK_ROWS
        for rows in (1, block - 1, block, block + 1):
            columns = [np.arange(1.0, rows + 1), np.ones(rows), np.ones(rows)]
            columns[1][-1] = value
            with pytest.raises(FloatingPointError, match=f"^{past('x')}$"):
                _write_csv_atomic(str(tmp_path / "t.csv"), ["k", "x", "y"],
                                  columns)
            assert os.listdir(tmp_path) == []

    def test_a_cell_is_refused_in_its_block(self, tmp_path, monkeypatch):
        # row 2000 is in the second block: the header and the first block
        # are written, the cell is named by its column, and the earlier
        # --out and its manifest keep their bytes
        out = str(tmp_path / "x.csv")
        assert main(SMALL_RUNS["curve"] + ["--out", out]) == 0
        before = {name: (tmp_path / name).read_bytes()
                  for name in os.listdir(tmp_path)}
        write, writes = os.write, []

        def recording_write(fd, data):
            writes.append(data)
            return write(fd, data)

        monkeypatch.setattr(os, "write", recording_write)
        columns = [np.arange(3000.0), np.ones(3000), np.ones(3000)]
        columns[1][2000] = np.inf
        args = SimpleNamespace(out=out, command="curve")
        with pytest.raises(FloatingPointError, match=f"^{past('x')}$"):
            cli._write_outputs(args, ["k", "x", "y"], columns)
        assert [len(data.splitlines()) for data in writes] == [
            1, cli._CSV_BLOCK_ROWS]
        assert {name: (tmp_path / name).read_bytes()
                for name in os.listdir(tmp_path)} == before

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


def past(column):
    return f"{column} is past the floating-point range"


#: sigma2/fs = 1e-330, where every statistic of a run rounds to 0
UNDERFLOW = ["--sigma2", "1e-300", "--fs", "1e30", "--horizon", "4e-30",
             "--trials", "4", "--seed", "1"]


@pytest.mark.parametrize("argv,reason", [
    (["eigen", "--kind", "interp", "--n", "5", "--sigma2", "1e300", "--fs",
      "1e-10"], past("eigenvalues")),
    (["eigen", "--kind", "interp", "--n", "5", "--fs", "1e-160"],
     past("eigenvalues")),
    (SMALL_RUNS["simulate"] + ["--sigma2", "1e-310"], past("estimate")),
    (SMALL_RUNS["simulate"] + ["--sigma2", "1e308", "--fs", "1e-5"],
     past("estimate")),
    (["curve", "--sigma2", "1e308", "--fs", "1e-5", "--min", "1e-5", "--max",
      "1e-4", "--points", "3"], past("d_opt")),
    (["curve", "--sigma2", "1e300", "--rate", "1e-10", "--min", "1e-12",
      "--max", "1e-11", "--points", "3"], past("d_opt")),
    (["curve", "--sigma2", "1e308", "--min", "1e-3", "--max", "1e-2",
      "--points", "3"], past("d_opt")),
    (["curve", "--sigma2", "1e-310", "--fs", "1e10", "--min", "1e10", "--max",
      "2e10", "--points", "3"], past("d_opt")),
    (["simulate", "--scheme", "mmse-only", "--sigma2", "1e-320", "--horizon",
      "4", "--trials", "50", "--seed", "1"], past("estimate")),
    (["eigen", "--kind", "discrete", "--sigma2", "1e-310", "--fs", "1e20",
      "--n", "3"], past("eigenvalues")),
    (top_of_range_call(1.7976931348623157e308)[0], past("x")),
    (top_of_range_call(1.7976931348623151e308)[0], past("x")),
    (["simulate", "--scheme", "mmse-only", *UNDERFLOW, "--oversample", "8"],
     past("estimate")),
    (["simulate", "--scheme", "test-channel", "--rbar", "1", *UNDERFLOW,
      "--oversample", "8"], past("estimate"))],
    ids=["inf-eigenvalues", "ts-squared", "zero-stderr", "inf-estimate",
         "inf-scale-vs-rate", "inf-scale-vs-fs", "inf-d_w-scale",
         "subnormal-d_ce", "subnormal-estimate", "zero-eigenvalues",
         "cell-text-inf-at-max", "cell-text-inf-above-writable",
         "zero-estimate-mmse", "zero-estimate-channel"])
def test_unrepresentable_result_exits_3(tmp_path, argv, reason):
    # the reason names the first column (or summary field) that is not a
    # normal float or 0, or the library result that is not a normal float
    out = str(tmp_path / "x.csv")
    done = run_python("import sys\nfrom wienerdr.cli import main\n"
                      f"sys.exit(main({argv + ['--out', out]!r}))", expect=3)
    assert done.stderr.splitlines() == [
        f"numerical failure in {argv[0]}: {reason}"]
    assert os.listdir(tmp_path) == []


def test_exact_zeros_at_a_unit_past_the_floats_are_written(tmp_path, capsys):
    # without oversampling each written statistic is 0 at any unit (so is
    # each trial: they average to 0); the unwritten bias rounds to 0
    assert main(["simulate", "--scheme", "mmse-only", *UNDERFLOW, "--oversample",
                 "1", "--out", str(tmp_path / "x.csv")]) == 0
    assert capsys.readouterr().out == "estimate=0 stderr=0 reference=0 z=0\n"


@pytest.mark.parametrize("argv,scale", [
    (["--scheme", "mmse-only", "--sigma2", "1e308", "--horizon", "4"], 1e308),
    (["--scheme", "test-channel", "--rbar", "1", "--sigma2", "1e300", "--fs",
      "1e-8", "--horizon", "1.6e9", "--oversample", "8"], 1e308),
    (["--scheme", "test-channel", "--rbar", "1", "--sigma2", "1e-300",
      "--fs", "1e5", "--horizon", "8e-5", "--oversample", "4"], 1e-305),
    (["--scheme", "mmse-only", "--sigma2", "1e-305", "--horizon", "1"], 1e-305)],
    ids=["mmse-sigma2-1e308", "channel-scale-1e308", "channel-scale-1e-305",
         "mmse-sigma2-1e-305"])
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


#: sigma2 = 1e308 at fs = 0.5: the unit sigma2/fs (and sigma2 ts^2) is past
#: the floats, though every cell fits
OVER_UNIT = ["--sigma2", "1e308", "--fs", "0.5"]
SIM_OVER_UNIT = OVER_UNIT + ["--horizon", "4", "--oversample", "8",
                             "--trials", "3", "--seed", "1"]


@pytest.mark.parametrize("argv,cells", [
    (["simulate", "--scheme", "mmse-only", *SIM_OVER_UNIT],
     {"estimate": 3.04801241057152e307, "reference": 3.28125e307}),
    (["simulate", "--scheme", "test-channel", "--rbar", "1", *SIM_OVER_UNIT],
     {"reference": 5.80078125e307}),
    (["eigen", "--kind", "interp", "--n", "1", *OVER_UNIT],
     {"lambda": 1.33333333333333e308, "density_limit": 1.33333333333333e308})],
    ids=["mmse-only", "test-channel", "eigen-interp"])
def test_a_unit_past_the_floats_still_answers(tmp_path, capsys, argv, cells):
    # each absolute value is a dimensionless result scaled once, last, by
    # ``spectral.unit``, so the run answers wherever its cells fit
    out = str(tmp_path / "x.csv")
    assert main(argv + ["--out", out]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    _, cols = read_csv(out)
    read = {name: float(value) for name, value
            in (pair.split("=") for pair in captured.out.split())}
    read.update({name: col[0] for name, col in cols.items()})
    assert all(np.all(np.isfinite(col)) for col in cols.values())
    assert all(math.isfinite(value) for value in read.values())
    for name, value in cells.items():
        assert read[name] == value, name


#: the fields of a ``sweep`` in absolute units
ABSOLUTE_FIELDS = ("d_opt", "d_ce", "d_upper", "d_w", "d_bar", "mmse")
#: a normal float, log-uniform
NORMAL = st.floats(math.log(sys.float_info.min),
                   math.log(sys.float_info.max)).map(
    lambda x: min(max(math.exp(x), sys.float_info.min), sys.float_info.max))


@st.composite
def scaled_units(draw):
    """(sigma2, fs, j, k): normal sigma2 and fs and the binary exponents j
    and k that keep sigma2 2**j and fs 2**k normal."""
    sigma2, fs = draw(NORMAL), draw(NORMAL)
    j = draw(st.integers(-1021, 1024).map(lambda e: e - math.frexp(sigma2)[1]))
    k = draw(st.integers(-1021, 1024).map(lambda e: e - math.frexp(fs)[1]))
    return sigma2, fs, j, k


def absolute_outputs(sigma2, fs, rate, n):
    """{route: (power p of fs in its unit sigma2/fs**p, {name: values}, or
    None where the route refused)} of every absolute output at (sigma2, fs):
    the ``sweep`` fields at ``rate``, both eigensystems' eigenvalues, the
    Nystrom oracle and ``eigen``'s lambda and density_limit at rank n, the
    compress-and-estimate moment oracle and its bounds at rank n and rate/fs
    bits per sample, and the statistics of a run of each ``simulate``
    scheme over n intervals."""
    params = spectral.ProcessParams(sigma2, fs)
    routes = {}
    try:
        b = drf.sweep(sigma2, fs, rate)
        routes["sweep"] = (1, {name: getattr(b, name)
                               for name in ABSOLUTE_FIELDS})
    except FloatingPointError:   # the bundle refuses the whole curve
        routes["sweep"] = (1, None)
    for kind, power, eigenvalues in (
            ("discrete", 1, lambda p, n: spectral.discrete_wiener_eigensystem(
                p, n).eigenvalues),
            ("interp", 2, lambda p, n: spectral.interp_kernel_eigensystem(
                p, n).eigenvalues),
            ("nystrom", 2, lambda p, n: spectral.nystrom_interp_eigenvalues(
                p, n, grid_points=4))):
        try:
            routes[kind] = (power, {"lambda": eigenvalues(params, n)})
        except FloatingPointError:   # an eigenvalue past the floats
            routes[kind] = (power, None)
    tables = []
    with mock.patch.object(cli, "_write_outputs", lambda args, header,
                           columns: tables.append(columns)):
        for power, kind in ((1, "discrete"), (2, "interp")):
            argv = ["eigen", "--kind", kind, "--n", str(n), "--sigma2",
                    repr(sigma2), "--fs", repr(fs), "--out", "unused"]
            code = main(argv)   # 3: an eigenvalue or a cell past the floats
            cells = None
            if code == 0:
                columns = tables.pop()
                cells = {"lambda": columns[1], "density_limit": columns[2]}
            routes[f"eigen {kind}"] = (power, cells)
    for oracle, fields in ((mc.ce_moment_oracle, ("second", "cross")),
                           (mc.ce_distortion_estimate,
                            ("estimate", "lower", "upper"))):
        try:
            result = oracle(params, n, rate / fs)
            values = {name: getattr(result, name) for name in fields}
        except FloatingPointError:   # a field past the floats
            values = None
        routes[oracle.__name__] = (1, values)
    config = mc.SimConfig(horizon_t=n / fs, oversample=2, trials=3, seed=1)
    for scheme, run in (("mmse-only", mc.empirical_mmse),
                        ("test-channel", lambda p, c: mc.mc_test_channel_run(
                            p, c, 1.0))):
        try:
            values = vars(run(params, config))
        except FloatingPointError:   # a statistic past the floats
            values = None
        routes[scheme] = (1, values)
    return routes


def is_normal(values):
    size = np.abs(values)
    return (size >= sys.float_info.min) & (size <= sys.float_info.max)


@given(case=scaled_units(), rbar=st.floats(1e-3, 50.0),
       n=st.integers(2, 8))
@example(case=(1e308 * 2.0 ** -10, 0.5, 10, 0), rbar=1.0, n=2)
@example(case=(1e308, 0.5, -10, 0), rbar=1.0, n=2)
@example(case=(1e308, 0.5, -10, 0), rbar=1.0, n=64)
@example(case=(3e307, 1.0, -4, 0), rbar=1e-3, n=8)
@example(case=(1e300, 1e-5, 0, 10), rbar=1.0, n=64)
@example(case=(1e308, 1e-300, -1100, 0), rbar=1.0, n=64)
@example(case=(1e-300, 1e300, 1000, 0), rbar=1.0, n=64)
@example(case=(1.2897084248347162e+95, 1.0, -316, -1021), rbar=1.0,
         n=4)   # a scaled eigenvalue past the floats, its density cell not
@settings(max_examples=200, deadline=None)
def test_every_absolute_output_scales_with_its_unit(case, rbar, n):
    """sigma2 2**j and fs 2**k (R 2**k and the horizon 2**-k with them)
    scale every absolute output by exactly 2**(j - p k), p the power of fs
    in its unit, wherever the output and its scaled value are normal; a
    route refuses only where some scaled value is not."""
    sigma2, fs, j, k = case
    with np.errstate(over="ignore", under="ignore"):
        scaled_sigma2, scaled_fs = np.ldexp(sigma2, j), np.ldexp(fs, k)
        rate, scaled_rate = rbar * fs, np.ldexp(rbar * fs, k)
        assume(is_normal(rate) and is_normal(scaled_rate))
        assume(is_normal(n / fs) and is_normal(n / scaled_fs))
        base = absolute_outputs(sigma2, fs, rate, n)
        scaled = absolute_outputs(float(scaled_sigma2), float(scaled_fs),
                                  float(scaled_rate), n)
        for source, target, sign in ((base, scaled, 1), (scaled, base, -1)):
            for route, (power, values) in source.items():
                if values is None:
                    continue
                expected = {name: np.ldexp(value, sign * (j - power * k))
                            for name, value in values.items()}
                got = target[route][1]
                if got is None:
                    assert not all(np.all(is_normal(value))
                                   for value in expected.values()), route
                    continue
                for name, value in values.items():
                    fits = is_normal(value) & is_normal(expected[name])
                    assert np.array_equal(np.asarray(got[name])[fits],
                                          expected[name][fits]), (route, name)


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

    def test_unwritable_path_comes_before_a_refused_cell(self, tmp_path,
                                                          capsys):
        # the file is opened before its first block is checked
        out = str(tmp_path / "missing" / "x.csv")
        argv = top_of_range_call(1.7976931348623157e308)[0]   # x refused
        assert main(argv + ["--out", out]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: cannot write --out {out}: No such file or directory"]
        assert os.listdir(tmp_path) == []

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
    def test_no_parser_is_built(self, tmp_path):
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
            "import sys\n"
            "from wienerdr.cli import main\n"
            "def loaded():\n"
            "    print('loaded', sorted({'argparse', 'gettext', 'locale'}"
            " & set(sys.modules)))\n"
            "loaded()\n"
            f"runs = {runs!r}\n"
            "codes = [main(argv + ['--out', "
            f"{str(tmp_path)!r} + f'/{{i}}.csv'])"
            " for i, argv in enumerate(runs)]\n"
            "loaded()\n"
            "print(codes)\n").stdout
        # neither the import nor any call loads argparse or what it uses
        loaded = [line for line in out.splitlines()
                  if line.startswith("loaded ")]
        assert loaded == ["loaded []"] * 2
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
