import argparse
import ast
import importlib
import importlib.util
import inspect
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import spindecoh
from spindecoh import cli, config, dynamics, estimation, model, oracle, recurrence
from spindecoh.cli import build_parser, main
from spindecoh.config import (
    ConfigParseError,
    ConfigValidationError,
    RunConfig,
    config_hash,
    parse_config,
    render_config,
)


PERFBENCH_DIR = Path(__file__).resolve().parents[1] / "perfbench"


def _perfbench_workloads():
    """perfbench/workloads.py, which is not an installed package."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  PERFBENCH_DIR / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


PERFBENCH = _perfbench_workloads()
PERFBENCH_WORKLOADS = PERFBENCH.WORKLOADS


class TestParseConfig:
    def test_defaults_fill_rest(self):
        cfg = parse_config("n = 50\nd = 3\nrho = 1.0\n")
        assert cfg.n == 50 and cfg.d == 3 and cfg.rho == 1.0
        assert cfg.dt == 0.05
        assert cfg.tmax == 100.0
        assert (cfg.t1, cfg.t2) == (50.0, 100.0)
        assert cfg.u == 100
        assert cfg.epsilon == 1.0
        assert cfg.amplitude_mode == "equal-superposition"

    def test_comments_and_blanks(self):
        cfg = parse_config("# full line comment\n\nn = 9  # inline\n")
        assert cfg.n == 9

    def test_lists(self):
        cfg = parse_config("n_list = 10, 0x14, 50\nrho_list = 0.5, 1, 2\nd_list =\n")
        assert cfg.n_list == (10, 20, 50)
        assert cfg.rho_list == (0.5, 1.0, 2.0)
        assert cfg.d_list == ()

    def test_fit_window(self):
        assert parse_config("fit_window = auto\n").fit_window is None
        assert parse_config("fit_window = 0, 25\n").fit_window == (0.0, 25.0)
        for raw in ("", "1", "1, 2, 3"):
            with pytest.raises(ConfigParseError, match="'auto' or 'lo, hi'"):
                parse_config(f"fit_window = {raw}\n")

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigParseError, match="line 2"):
            parse_config("n = 4\nbogus = 1\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigParseError, match="duplicate"):
            parse_config("n = 4\nn = 5\n")

    def test_bad_value_reports_line(self):
        assert parse_config("n = 0x1F\n").n == 31  # integers read as int(raw, 0)
        for text in ("n = many\n", "n = 007\n", "n_list = 1, x\n"):
            with pytest.raises(ConfigParseError, match="line 1"):
                parse_config(text)

    def test_window_order_validated(self, tmp_path, capsys):
        # Only commands that time-average read t1 and t2, so only they
        # reject an unordered window, and they do so before any run.
        cfg = tmp_path / "run.cfg"
        cfg.write_text("t1 = 90\nt2 = 80\n")
        parse_config(cfg.read_text())
        assert main(["simulate", "--config", str(cfg), "--n", "4", "--tmax", "1",
                     "--out", str(tmp_path / "sim")]) == 0
        assert main(["ensemble", "--config", str(cfg), "--n", "4", "--u", "2",
                     "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err.strip()
        assert err.startswith("error: t1 < t2 required") and "\n" not in err, err
        assert not (tmp_path / "out").exists()

    def test_fit_window_order_validated(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("fit_window = 20, 10\n")
        parse_config(cfg.read_text())
        assert main(["simulate", "--config", str(cfg), "--n", "4", "--tmax", "1",
                     "--out", str(tmp_path / "sim")]) == 0
        assert main(["sweep", "--config", str(cfg), "--n", "4", "--u", "2",
                     "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err.strip()
        assert err.startswith("error: fit_window lo < hi required") and "\n" not in err, err
        assert not (tmp_path / "out").exists()

    def test_t2_within_span(self, tmp_path, capsys):
        # The default t2 = 100 lies past tmax = 60: only commands that
        # time-average reject it, and they do so before any run.
        cfg = tmp_path / "run.cfg"
        cfg.write_text("tmax = 60\n")
        parse_config(cfg.read_text())
        assert main(["ensemble", "--config", str(cfg), "--n", "4", "--u", "2",
                     "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err.strip()
        assert err.startswith("error: t2 <= tmax required") and "\n" not in err, err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("flags, line, message", [
        (["--dt", "0.3"], "", "t2 <= tmax required"),  # last sample at 99.9
        ([], "t1 = -10", "t1 >= t0 required"),
        # The largest auto fit window [0, 50] holds 2 samples, so every
        # member's fit would fail after its simulation.
        (["--dt", "30"], "t1 = 50\nt2 = 90", "fit window (0.0, 50.0) holds 2 samples"),
        # tmax / dt overflows, so the grid cannot be sized.
        (["--dt", "1e-320"], "", "tmax / dt must be finite"),
    ])
    def test_window_outside_grid_rejected_before_any_run(
            self, tmp_path, capsys, monkeypatch, flags, line, message):
        calls = []
        monkeypatch.setattr(estimation, "_xi", lambda *a, **k: calls.append(a))
        cfg = tmp_path / "run.cfg"
        cfg.write_text(line + "\n")
        out = tmp_path / "out"
        assert main(["ensemble", "--config", str(cfg), "--n", "4", "--u", "8", *flags,
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err.strip()
        assert err.startswith(f"error: {message}") and "\n" not in err, err
        assert not out.exists() and calls == []

    def test_window_past_tmax_inside_grid(self, tmp_path):
        # dt * round(tmax / dt) = 100.1 > tmax, so t2 = 100.05 is sampled.
        cfg = tmp_path / "run.cfg"
        cfg.write_text("t2 = 100.05\n")
        assert main(["ensemble", "--config", str(cfg), "--n", "8", "--u", "2",
                     "--dt", "0.35", "--out", str(tmp_path / "out")]) == 0

    def test_system_constraints_propagate(self):
        with pytest.raises(ConfigValidationError):
            parse_config("d = 7\n")

    def test_round_trip(self):
        cfg = RunConfig(
            n=12, d=2, rho=0.7, eta=3.5, seed=987, dt=0.02, tmax=80.0,
            t1=40.0, t2=80.0, u=7, fit_window=(0.0, 12.5), out="results",
            n_list=(4, 8), rho_list=(0.5, 2.0), d_list=(1, 3),
        )
        text = render_config(cfg)
        assert parse_config(text) == cfg
        # Every CSV header carries config_hash, so the canonical text and
        # its digest are pinned.
        assert text == (
            "n = 12\nd = 2\nrho = 0.7\neta = 3.5\nepsilon = 1.0\n"
            "amplitude_mode = equal-superposition\ncoupling_mode = potential\n"
            "seed = 987\ndt = 0.02\ntmax = 80.0\nt1 = 40.0\nt2 = 80.0\nu = 7\n"
            "fit_window = 0.0, 12.5\nout = results\nn_list = 4, 8\n"
            "rho_list = 0.5, 2.0\nd_list = 1, 3\n"
        )
        assert config_hash(cfg) == "f00d0cad5737b27e"

    def test_round_trip_defaults(self):
        cfg = RunConfig()
        assert parse_config(render_config(cfg)) == cfg

    def test_hash_stable(self):
        assert config_hash(RunConfig()) == "6e559a6d4e909577"
        assert config_hash(RunConfig()) != config_hash(RunConfig(n=3))

    def test_values_render_by_field_type(self):
        # Equal configs hash alike whether a value is an int, a float or a
        # numpy scalar, and a numpy value renders as text parse_config reads.
        ints = RunConfig(rho=2, tmax=50, fit_window=(0, 5), rho_list=(1, 2))
        floats = RunConfig(rho=2.0, tmax=50.0, fit_window=(0.0, 5.0), rho_list=(1.0, 2.0))
        assert ints == floats
        assert config_hash(ints) == config_hash(floats) == "efdc8d4126810c92"
        numpy = RunConfig(n=np.int64(12), rho=np.float64(2.0), fit_window=(np.float64(0.0), 5.0),
                          n_list=(np.int64(4),), rho_list=(np.float64(1.0),))
        text = render_config(numpy)
        assert "rho = 2.0\n" in text and "fit_window = 0.0, 5.0\n" in text
        assert "n_list = 4\n" in text and "rho_list = 1.0\n" in text
        assert parse_config(text) == numpy
        assert config_hash(numpy) == config_hash(
            RunConfig(n=12, rho=2.0, fit_window=(0.0, 5.0), n_list=(4,), rho_list=(1.0,)))
        # A float in an int field is rejected at construction where the
        # system is checked, and elsewhere does not render as an integer it
        # is not.
        with pytest.raises(ConfigValidationError, match="n must be an integer"):
            RunConfig(n=2.5)
        with pytest.raises(TypeError):
            render_config(RunConfig(n_list=(2.5,)))

    @pytest.mark.parametrize("kwargs, message", [
        ({"n": 50.0}, "n must be an integer, got 50.0"),
        ({"n": 0}, "n must be >= 1, got 0"),
        ({"d": 3.0}, "d must be an integer, got 3.0"),
        ({"d": 7}, "d must be 1, 2 or 3, got 7"),
        ({"rho": -1.0}, "rho must be positive, got -1.0"),
        ({"rho": math.inf}, "rho must be finite, got inf"),
        ({"eta": 0.0}, "eta must be positive, got 0.0")])
    def test_errors_name_config_keys(self, kwargs, message):
        # The system's checks report the config keys the caller wrote, not
        # the SystemConfig fields they fill.
        with pytest.raises(ConfigValidationError) as info:
            RunConfig(**kwargs)
        assert str(info.value) == message


def read_output(path):
    meta, columns, rows = {}, None, []
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            key, _, value = line[1:].partition(":")
            meta[key.strip()] = value.strip()
        elif columns is None:
            columns = line.split(",")
        else:
            rows.append(line.split(","))
    return meta, columns, rows


class TestCli:
    def test_usage_error_exit_code(self, capsys):
        assert main(["no-such-command"]) == 1

    def test_validation_error_exit_code(self, tmp_path, capsys):
        # simulate reads dt; a zero step must not reach the sample count.
        cfg = tmp_path / "run.cfg"
        cfg.write_text("dt = 0\n")
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.strip() == "error: dt must be positive, got 0.0"
        assert not (tmp_path / "out").exists()

    def test_missing_config_file(self, capsys):
        assert main(["simulate", "--config", "/nonexistent.cfg"]) == 2

    def test_simulate_writes_trajectory(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("tmax = 5.0\nt1 = 2.0\nt2 = 5.0\n")
        out = tmp_path / "run"
        rc = main(["simulate", "--config", str(cfg), "--n", "4", "--seed", "3",
                   "--out", str(out), "--with-z", "--with-entropy"])
        assert rc == 0
        meta, columns, rows = read_output(out / "trajectory.csv")
        assert columns == ["t", "xi", "z_1", "z_2", "z_3", "z_4", "s_tot"]
        assert len(rows) == 101
        assert float(rows[0][1]) == pytest.approx(0.5, abs=1e-12)
        assert "config_hash" in meta and "master_seed" in meta and "version" in meta

    def test_ensemble_outputs(self, tmp_path):
        out = tmp_path / "ens"
        rc = main(["ensemble", "--n", "5", "--u", "4", "--seed", "8",
                   "--out", str(out)])
        assert rc == 0
        _, cols, rows = read_output(out / "ensemble_runs.csv")
        assert cols == ["run", "seed", "tau", "c", "ssr", "converged", "xi_avg",
                        "n_iterations", "fit_lo", "fit_hi"]
        assert len(rows) == 4
        for row in rows:
            assert int(row[7]) >= 1
            assert 0.0 == float(row[8]) < float(row[9]) <= 100.0
        _, cols, rows = read_output(out / "ensemble_stats.csv")
        assert len(rows) == 1

    def test_ensemble_deterministic_across_threads(self, tmp_path):
        args = ["ensemble", "--n", "5", "--u", "6", "--seed", "11"]
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(args + ["--out", str(out1), "--threads", "1"]) == 0
        assert main(args + ["--out", str(out2), "--threads", "4"]) == 0
        assert (out1 / "ensemble_runs.csv").read_bytes() == \
            (out2 / "ensemble_runs.csv").read_bytes()
        assert (out1 / "ensemble_stats.csv").read_bytes() == \
            (out2 / "ensemble_stats.csv").read_bytes()

    def test_sweep(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n_list = 4, 6\nu = 3\n")
        out = tmp_path / "sweep"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
        _, cols, rows = read_output(out / "sweep.csv")
        assert cols[:3] == ["n", "d", "rho"]
        assert len(rows) == 2

    def test_recurrence(self, tmp_path):
        out = tmp_path / "rec"
        assert main(["recurrence", "--n", "8", "--d", "1", "--u", "10",
                     "--seed", "2", "--out", str(out)]) == 0
        _, cols, rows = read_output(out / "recurrence.csv")
        assert "log10_mean" in cols
        assert len(rows) == 1

    def test_oracle_check_passes(self, tmp_path, capsys):
        out = tmp_path / "oc"
        rc = main(["oracle-check", "--n", "6", "--seed", "5", "--out", str(out),
                   "--times", "5"])
        assert rc == 0
        meta, _, rows = read_output(out / "oracle_check.csv")
        assert meta["result"] == "PASS"
        assert len(rows) == 5
        assert "PASS" in capsys.readouterr().out

    def test_simulate_ignores_average_window(self, tmp_path):
        # t1 = 50 and t2 = 100 lie past tmax = 1, but simulate never reads them.
        out = tmp_path / "sim"
        assert main(["simulate", "--n", "4", "--tmax", "1", "--out", str(out)]) == 0
        _, _, rows = read_output(out / "trajectory.csv")
        assert len(rows) == round(1 / 0.05) + 1

    @pytest.mark.parametrize("times", ["0", "-2"])
    def test_oracle_check_rejects_too_few_times(self, tmp_path, capsys, times):
        assert main(["oracle-check", "--n", "4", "--times", times,
                     "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err.strip()
        assert err.startswith("error:") and "--times" in err and "\n" not in err, err
        assert not (tmp_path / "oracle_check.csv").exists()

    def test_oracle_check_rejects_large_n(self, tmp_path, capsys):
        assert main(["oracle-check", "--n", "20", "--out", str(tmp_path)]) == 2

    def test_fit_scaling_requires_grids(self, tmp_path, capsys):
        assert main(["fit-scaling", "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("n, code", [(10, 2), (50, 0)])
    def test_fit_scaling_counts_distinct_cells(self, tmp_path, capsys, monkeypatch, n, code):
        # With n = 10 the repeated 10 leaves 2 distinct N at rho; with n = 50
        # the (n, rho) cell is the third.
        calls = []
        if code:
            monkeypatch.setattr("spindecoh.cli.run_ensemble", lambda *a, **k: calls.append(a))
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"n = {n}\nn_list = 10, 10, 20\nrho_list = 0.5, 1, 2\nu = 2\n")
        out = tmp_path / "out"
        assert main(["fit-scaling", "--config", str(cfg), "--out", str(out)]) == code
        if code:
            err = capsys.readouterr().err.strip()
            assert err.startswith("error: the scaling fit needs") and "\n" not in err, err
            assert not out.exists() and calls == []

    @pytest.mark.parametrize("lists, rows", [
        # Repeated densities outnumber the N-cells; the grids are still the
        # cells at rho = 1 and the cells with n = 50.
        ("n_list = 10, 20, 30\nrho_list = 2, 2, 2, 2, 0.5, 5\n", 9),
        # Two n_list entries: the (n, rho) cell is the third N.
        ("n_list = 10, 20\nrho_list = 0.5, 1, 2\n", 5),
    ])
    def test_fit_scaling_grids_at_n_and_rho(self, tmp_path, capsys, lists, rows):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(lists + "u = 2\ndt = 0.1\n")
        out = tmp_path / "scal"
        assert main(["fit-scaling", "--config", str(cfg), "--out", str(out)]) == 0
        _, _, sweep_rows = read_output(out / "scaling_sweep.csv")
        assert len(sweep_rows) == rows

    def test_fit_scaling_small(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "n = 8\nn_list = 4, 8, 16\nrho_list = 0.5, 1, 2\nu = 4\n"
        )
        out = tmp_path / "scal"
        assert main(["fit-scaling", "--config", str(cfg), "--out", str(out)]) == 0
        _, cols, rows = read_output(out / "scaling.csv")
        assert cols[:4] == ["p", "q", "r", "s"]
        assert (out / "scaling.txt").exists()
        _, _, sweep_rows = read_output(out / "scaling_sweep.csv")
        assert len(sweep_rows) == 5  # 3 N-cells + 2 extra rho-cells

    def test_fit_scaling_n_outside_n_list(self, tmp_path, capsys):
        # n = 50 is not in n_list, so the (n, rho) cell is no N-cell and
        # must be built, or the rho grid at n has only 2 densities.
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n_list = 10, 20, 30\nrho_list = 0.5, 1, 2\nu = 2\ndt = 0.1\n")
        out = tmp_path / "scal"
        assert main(["fit-scaling", "--config", str(cfg), "--out", str(out)]) == 0
        _, _, rows = read_output(out / "scaling_sweep.csv")
        assert [row[:3] for row in rows] == [
            ["10", "3", "1.0"], ["20", "3", "1.0"], ["30", "3", "1.0"],
            ["50", "3", "0.5"], ["50", "3", "1.0"], ["50", "3", "2.0"]]

    def test_fit_scaling_degenerate_stderr(self, tmp_path, capsys):
        # With 3 N points for 3 parameters these seeds leave negative
        # diagonal entries in the covariance; their stderrs are NaN and no
        # warning is raised.
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n = 8\nn_list = 4, 8, 16\nrho_list = 0.5, 1, 2\nu = 4\n")
        for seed in ("9", "14"):
            out = tmp_path / seed
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert main(["fit-scaling", "--config", str(cfg), "--seed", seed,
                             "--out", str(out)]) == 0
            _, cols, rows = read_output(out / "scaling.csv")
            for col, value in zip(cols, rows[0]):
                if col.endswith("_stderr"):
                    assert math.isnan(float(value)) or float(value) > 0.0

    def test_csv_fields_are_plain_numbers(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n = 8\nn_list = 4, 8, 16\nrho_list = 0.5, 1, 2\nu = 4\n"
                       "tmax = 5.0\nt1 = 2.0\nt2 = 5.0\n")
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out),
                     "--with-z", "--with-entropy"]) == 0
        assert main(["oracle-check", "--n", "6", "--seed", "5", "--times", "5",
                     "--out", str(out)]) == 0
        assert main(["fit-scaling", "--config", str(cfg), "--out", str(out)]) == 0
        paths = sorted(out.glob("*.csv"))
        assert [p.name for p in paths] == ["oracle_check.csv", "scaling.csv",
                                           "scaling_sweep.csv", "trajectory.csv"]
        for path in paths:
            _, _, rows = read_output(path)
            for field in (f for row in rows for f in row):
                try:
                    int(field)
                except ValueError:
                    float(field)


class TestCliInputErrors:
    def assert_one_line_error(self, capsys, argv, code=2):
        assert main(argv) == code
        err = capsys.readouterr().err.strip()
        assert err.startswith("error:") and "\n" not in err, err
        return err

    def test_negative_threads(self, tmp_path, capsys):
        err = self.assert_one_line_error(
            capsys, ["ensemble", "--threads", "-3", "--out", str(tmp_path)])
        assert "threads" in err

    def test_infinite_tmax(self, tmp_path, capsys):
        err = self.assert_one_line_error(
            capsys, ["simulate", "--tmax", "inf", "--out", str(tmp_path)])
        assert "tmax must be finite" in err

    def test_radicand_failure_is_numerical(self, tmp_path, capsys, monkeypatch):
        # |z| = 0.6 exceeds |a b| = 0.5, so the eigenvalue radicand leaves
        # [0, 1]: a numerical failure (exit 3), not a validation error.
        monkeypatch.setattr(
            "spindecoh.dynamics.coherence_magnitudes",
            lambda system, times: np.full((len(times), system.n_particles), 0.6))
        assert main(["simulate", "--with-entropy", "--n", "4", "--tmax", "100",
                     "--dt", "1", "--out", str(tmp_path)]) == 3
        err = capsys.readouterr().err.strip()
        assert err.startswith("numerical failure:") and "\n" not in err, err

    def test_nan_dt(self, tmp_path, capsys):
        err = self.assert_one_line_error(
            capsys, ["simulate", "--dt", "nan", "--out", str(tmp_path)])
        assert "dt must be finite" in err

    @pytest.mark.parametrize("flags", [["--dt", "1e-320"], ["--tmax", "1e300", "--dt", "1e-10"]])
    def test_grid_size_not_finite(self, tmp_path, capsys, flags):
        err = self.assert_one_line_error(
            capsys, ["simulate", *flags, "--out", str(tmp_path / "out")])
        assert "tmax / dt must be finite" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("lines, flags, message", [
        # r^4 underflows to 0 at r ~ 1e-100, which would make every coupling
        # infinite and every Xi NaN.
        ("n = 3\nd = 1\nrho = 1e100\nepsilon = 4\n", ["--tmax", "1", "--dt", "0.5"],
         "coupling eta / r^epsilon is not finite"),
        # The minimum separation 3e-309 squares to 0 when distances are
        # built, so placement would read every pair as coincident and stall.
        ("n = 3\nd = 1\nrho = 1e300\n", [], "box side (N / rho)^(1/D) must be >= "),
    ], ids=["infinite-couplings", "tiny-box"])
    def test_system_not_representable(self, tmp_path, capsys, lines, flags, message):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(lines)
        out = tmp_path / "out"
        err = self.assert_one_line_error(
            capsys, ["simulate", "--config", str(cfg), *flags, "--out", str(out)])
        assert message in err
        assert not out.exists()

    def test_tiny_box_in_three_dimensions_accepted(self, tmp_path):
        # The side (3e-300)^(1/3) = 1.4e-100 leaves separations whose squares
        # are normal floats.
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n = 3\nd = 3\nrho = 1e300\n")
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--tmax", "1", "--out", str(out)]) == 0
        _, _, rows = read_output(out / "trajectory.csv")
        assert all(math.isfinite(float(row[1])) for row in rows)

    @pytest.mark.parametrize("argv", [
        ["simulate", "--n", "5", "--rho", "1e-320"],
        ["recurrence", "--n", "5", "--rho", "1e-320", "--u", "2"],
        ["ensemble", "--n", "5", "--rho", "1e-320", "--u", "2"],
        ["simulate", "--n", str(10**400)],
    ], ids=["simulate", "recurrence", "ensemble", "simulate-huge-n"])
    def test_box_side_not_finite(self, tmp_path, capsys, argv):
        # N / rho overflows: before the check, positions were inf and every
        # Xi NaN, or N did not convert to a float at all.
        err = self.assert_one_line_error(capsys, [*argv, "--out", str(tmp_path / "out")])
        assert "box side (N / rho)^(1/D) must be finite" in err
        assert not (tmp_path / "out").exists()


SUBCOMMANDS = ("simulate", "ensemble", "sweep", "fit-scaling", "recurrence", "oracle-check")


@pytest.fixture
def builds(monkeypatch):
    """Every system build and trajectory, recorded instead of run."""
    calls = []
    for module in (cli, estimation, recurrence):
        monkeypatch.setattr(module, "build_system", lambda *a, **k: calls.append(a))
    monkeypatch.setattr(estimation, "_xi", lambda *a, **k: calls.append(a))
    return calls


class TestPlanCheckedBeforeBuild:
    @pytest.mark.parametrize("argv, lines, message", [
        # 2001 samples x 30000 particles; the (T, N) result and the kernel's
        # (N, C) log sums would take 480 MB each.
        (["simulate", "--n", "30000"], "", "exceeds the element cap"),
        (["oracle-check", "--n", "100000"], "", "exceeds the brute-force cap 14"),
        # The second cell breaks the cap: the first must not run either.
        (["sweep"], "n_list = 4, 30000\nu = 2\n", "exceeds the element cap"),
        (["fit-scaling"], "n_list = 10, 20, 30000\nrho_list = 0.5, 1, 2\nu = 2\n",
         "exceeds the element cap"),
        (["sweep"], "d = 1\nrho_list = 1, 1e300\nu = 2\n", "box side"),
        (["recurrence"], "d = 1\nrho_list = 1, 1e300\nu = 2\n", "box side"),
        # At rho = 1e100 the minimum separation to the 4th power underflows to 0.
        (["sweep"], "n = 3\nd = 1\nepsilon = 4\nrho_list = 1, 1e100\nu = 2\n",
         "coupling eta / r^epsilon is not finite"),
        # The N = 200 cell is fine; N = 2 has no coupling gaps.
        (["recurrence"], "n_list = 200, 2\nu = 5\n", "need N >= 3 for coupling gaps"),
        (["sweep", "--threads", "0"], "n_list = 4, 6\nu = 2\n", "threads must be >= 1, got 0"),
    ], ids=["simulate", "oracle-check", "sweep", "fit-scaling", "sweep-box", "recurrence-box",
            "sweep-couplings", "recurrence-small-n", "sweep-threads"])
    def test_whole_plan_checked_first(self, tmp_path, capsys, builds, argv, lines, message):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(lines)
        out = tmp_path / "out"
        assert main([*argv, "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err.strip()
        assert err.startswith("error:") and message in err and "\n" not in err, err
        assert builds == [] and not out.exists()

    def test_oracle_check_times_capped(self, tmp_path, capsys, monkeypatch, builds):
        # The kernel returns --times x N coherences: a huge --times must end
        # as a validation error, not in an allocation.
        monkeypatch.setattr(dynamics, "MAX_TRAJECTORY_ELEMENTS", 100)
        out = tmp_path / "out"
        assert main(["oracle-check", "--n", "10", "--times", "20", "--out", str(out)]) == 2
        err = capsys.readouterr().err.strip()
        assert err.startswith("error:") and "exceeds the element cap 100" in err, err
        assert "\n" not in err
        assert builds == [] and not out.exists()


class TestOptionTable:
    @pytest.mark.parametrize("subcommand, flag", [
        ("simulate", "--u"), ("simulate", "--threads"),
        ("recurrence", "--threads"), ("recurrence", "--tmax"), ("recurrence", "--dt"),
        ("oracle-check", "--u"), ("oracle-check", "--threads"), ("oracle-check", "--dt"),
    ])
    def test_unread_flag_is_usage_error(self, tmp_path, capsys, subcommand, flag):
        assert main([subcommand, flag, "2", "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"usage: spindecoh {subcommand} [-h]"), err
        assert f"unrecognized arguments: {flag} 2" in err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("subcommand, line", [
        ("simulate", "dt = 0"), ("simulate", "tmax = -1"),
        ("ensemble", "u = 0"), ("ensemble", "dt = 0"), ("ensemble", "tmax = -1"),
        ("sweep", "u = -2"), ("sweep", "dt = -1"), ("sweep", "tmax = 0"),
        ("fit-scaling", "u = 0"), ("fit-scaling", "dt = 0"), ("fit-scaling", "tmax = 0"),
        ("recurrence", "u = 0"), ("oracle-check", "tmax = 0"),
    ])
    def test_read_key_range_checked(self, tmp_path, capsys, builds, subcommand, line):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(line + "\n")
        out = tmp_path / "out"
        assert main([subcommand, "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err.strip()
        assert err.startswith(f"error: {line.split()[0]} must be") and "\n" not in err, err
        assert not out.exists() and builds == []

    @pytest.mark.parametrize("argv, line", [
        (["simulate", "--tmax", "1"], "u = 0"),
        (["recurrence", "--u", "2"], "dt = -1"),
        (["recurrence", "--u", "2"], "tmax = -1"),
        (["oracle-check", "--times", "2"], "u = 0"),
        (["oracle-check", "--times", "2"], "dt = 0"),
    ])
    def test_unread_key_not_range_checked(self, tmp_path, capsys, argv, line):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(line + "\n")
        assert main(argv + ["--config", str(cfg), "--n", "6", "--out", str(tmp_path)]) == 0

    # The list keys each subcommand reads; the others ignore a bad entry.
    LIST_READERS = {"sweep": ("n_list", "rho_list", "d_list"),
                    "recurrence": ("n_list", "rho_list", "d_list"),
                    "fit-scaling": ("n_list", "rho_list")}
    # Each entry is checked by the cell (a SystemConfig) it makes.
    ENTRY_RULES = {"n_list": "n_particles", "rho_list": "density", "d_list": "dimension"}

    @pytest.mark.parametrize("key, bad", [
        ("n_list", "0"), ("rho_list", "-1"), ("d_list", "5")])
    @pytest.mark.parametrize("subcommand", SUBCOMMANDS)
    def test_list_key_checked_where_read(self, tmp_path, capsys, subcommand, key, bad):
        lines = {"n": "8", "u": "4", "n_list": "4, 8, 16", "rho_list": "0.5, 1, 2",
                 key: bad}
        cfg = tmp_path / "run.cfg"
        cfg.write_text("".join(f"{k} = {v}\n" for k, v in lines.items()))
        out = tmp_path / "out"
        if key in self.LIST_READERS.get(subcommand, ()):
            assert main([subcommand, "--config", str(cfg), "--out", str(out)]) == 2
            err = capsys.readouterr().err.strip()
            rule = self.ENTRY_RULES[key]
            assert err.startswith(f"error: {rule} must be") and "\n" not in err, err
            assert not out.exists()
        else:
            assert main([subcommand, "--config", str(cfg), "--out", str(out)]) == 0

    def test_readme_flag_table_matches_parser(self):
        readme = Path(__file__).resolve().parents[1] / "README.md"
        documented = {}
        for line in readme.read_text().splitlines():
            cells = [c.strip() for c in line.strip("|").split("|")]
            if line.startswith("| ") and len(cells) == 2 and cells[1].startswith("`--"):
                names = SUBCOMMANDS if cells[0] == "all six" else cells[0].replace(
                    "`", "").split(", ")
                for name in names:
                    documented.setdefault(name, set()).update(
                        f.strip("` ") for f in cells[1].split(","))
        subparsers = next(a for a in build_parser()._actions
                          if isinstance(a, argparse._SubParsersAction)).choices
        actual = {name: {opt for a in p._actions for opt in a.option_strings
                         if opt not in ("-h", "--help")}
                  for name, p in subparsers.items()}
        assert documented == actual

    @pytest.mark.parametrize("argv, lines", [
        (["simulate", "--n", "4", "--tmax", "1"], ""),
        (["recurrence", "--n", "8", "--u", "2"], ""),
        (["oracle-check", "--n", "4", "--times", "2"], ""),
        (["ensemble", "--n", "4", "--u", "2"], ""),
        (["sweep"], "n_list = 4, 5\nu = 2\n"),
        (["fit-scaling"], "n = 4\nn_list = 4, 5, 6\nrho_list = 0.5, 1, 2\nu = 2\n"),
    ], ids=["simulate", "recurrence", "oracle-check", "ensemble", "sweep", "fit-scaling"])
    def test_threads_env_ignored(self, tmp_path, capsys, monkeypatch, argv, lines):
        # --threads is the only source of the thread count.
        monkeypatch.setenv("SPINDECOH_THREADS", "abc")
        cfg = tmp_path / "run.cfg"
        cfg.write_text(lines)
        assert main(argv + ["--config", str(cfg), "--out", str(tmp_path / "out")]) == 0

    @pytest.mark.parametrize("workload", sorted(PERFBENCH_WORKLOADS))
    def test_benchmark_inputs_accepted(self, tmp_path, workload):
        # The benchmark drives the CLI with fixed flags and config files: a
        # flag or key it uses must not disappear from under it.
        argvs, _ = PERFBENCH_WORKLOADS[workload].prepare(0, tmp_path, threads=2)
        for argv in argvs:
            args = build_parser().parse_args(argv)
            if args.config:
                parse_config(Path(args.config).read_text())

    # One benchmark seed per workload, the one whose outputs sit closest to
    # its tolerance: scaling-sweep seed 28's tau_std uses 0.4 of it.
    # recurrence-cells matches its record exactly on every seed, so it takes
    # the recheck seed.
    @pytest.mark.parametrize("workload, seed", [
        ("scaling-sweep", 28), ("recurrence-cells", 27), ("simulate-large-n", 5),
        ("oracle-check", 29)])
    def test_benchmark_outputs_match_reference(self, tmp_path, capsys, workload, seed):
        # The benchmark's own output check, in-process: a last-bit kernel
        # change that moves a recorded statistic past its tolerance fails here.
        w = PERFBENCH_WORKLOADS[workload]
        reference = None
        if w.has_reference:
            recorded = json.loads((PERFBENCH_DIR / "reference.json").read_text())[workload]
            assert recorded["params"] == json.loads(json.dumps(w.params()))
            reference = recorded["seeds"][str(PERFBENCH.program_seed(seed))]
        argvs, outs = w.prepare(seed, tmp_path, threads=2)
        for argv in argvs:
            assert main(argv) == 0, argv
        assert w.check(outs, reference)[0] == 0, capsys.readouterr().err

    def test_recorded_sweeps_refit_to_recorded_laws(self):
        # Stage 2 retraces scipy's bounded TRF, so every recorded sweep refits
        # to its recorded law, where the fit stopped short of R = 0 too
        # (program seeds 1002, 1003, 1010 and 1024).
        recorded = json.loads((PERFBENCH_DIR / "reference.json").read_text())["scaling-sweep"]
        n, rho = recorded["params"]["n"], recorded["params"]["rho"]
        assert len(recorded["seeds"]) == PERFBENCH.POOL
        for seed, ref in recorded["seeds"].items():
            sweep = [estimation.EnsembleStats(
                config=model.SystemConfig(n_particles=int(row[0]), dimension=int(row[1]),
                                          density=row[2], eta=row[3], epsilon=row[4]),
                u=int(row[5]), tau_mean=row[6], tau_std=row[7], xi_mean=row[8],
                xi_std=row[9], runs=()) for row in ref["rows"]]
            fit = estimation.fit_decoherence_law(sweep, n, rho)
            assert len(ref["law_columns"]) == 12
            for col, want in zip(ref["law_columns"], ref["law"]):
                rtol = PERFBENCH.LAW_STDERR_RTOL if col.endswith("_stderr") else PERFBENCH.LAW_RTOL
                assert PERFBENCH._close(getattr(fit, col), want, rtol, PERFBENCH.LAW_ATOL), (
                    seed, col, getattr(fit, col), want)

    def test_cli_leaves_out_scipy_and_numpy_ma(self, tmp_path):
        # scipy is a test-only dependency: importing the CLI loads none of
        # it. Nor do simulate, recurrence and oracle-check calls load
        # numpy.ma, which np.median's NaN check imports.
        src = str(Path(spindecoh.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
        (tmp_path / "recurrence.cfg").write_text("n_list = 10, 20\nd_list = 1, 3\nu = 3\n")
        (tmp_path / "oracle.cfg").write_text(
            "n = 6\namplitude_mode = random-complex\ncoupling_mode = uniform-random\n")
        probe = (
            "import sys, spindecoh.cli as cli\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
            f"out = {str(tmp_path)!r}\n"
            "for argv in (['simulate', '--n', '20', '--dt', '1', '--tmax', '10',"
            " '--with-z', '--with-entropy'],"
            " ['recurrence', '--config', out + '/recurrence.cfg'],"
            " ['oracle-check', '--config', out + '/oracle.cfg', '--times', '5']):\n"
            "    assert cli.main([*argv, '--out', out + '/' + argv[0]]) == 0, argv\n"
            "print(sorted(m for m in sys.modules if m.split('.')[:2] == ['numpy', 'ma']))\n")
        result = subprocess.run([sys.executable, "-c", probe], env=env,
                                capture_output=True, text=True, timeout=120, check=True)
        assert result.stdout.splitlines()[0] == "[]"
        assert result.stdout.splitlines()[-1] == "[]"

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
    def test_simulate_memory_past_import(self, tmp_path):
        # A potential-mode system holds no N x N array: simulate at N = 2000
        # grows the peak RSS over import by far less than the 32 MB one
        # takes. A child's ru_maxrss starts at its parent's peak, so the
        # probe reads its own peak, VmHWM. BLAS runs on one thread, so no
        # per-thread buffer counts.
        src = str(Path(spindecoh.__file__).resolve().parents[1])
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=os.pathsep.join(
            [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
        probe = (
            "import spindecoh.cli as cli\n"
            "def peak_kib():\n"
            "    with open('/proc/self/status') as status:\n"
            "        return next(int(line.split()[1]) for line in status"
            " if line.startswith('VmHWM:'))\n"
            "before = peak_kib()\n"
            "assert cli.main(['simulate', '--n', '2000', '--dt', '4', '--tmax', '100',"
            f" '--with-z', '--with-entropy', '--out', {str(tmp_path)!r}]) == 0\n"
            "print(peak_kib() - before)\n")
        result = subprocess.run([sys.executable, "-c", probe], env=env,
                                capture_output=True, text=True, timeout=120, check=True)
        assert int(result.stdout) < 16 * 1024

    def test_scipy_uses_pinned(self):
        # Distances, couplings, entropies and the stage-2 scaling fit are
        # computed in numpy: scipy is a test-only dependency.
        uses = set()
        for path in Path(spindecoh.__file__).parent.glob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and node.level == 0:
                    names = [f"{node.module}.{alias.name}" for alias in node.names]
                else:
                    continue
                uses |= {(path.stem, name) for name in names
                         if name == "scipy" or name.startswith("scipy.")}
        assert uses == set()


class TestPublicSurface:
    def test_all_names_resolve(self):
        namespace = {}
        exec("from spindecoh import *", namespace)
        for name in spindecoh.__all__:
            assert namespace[name] is getattr(spindecoh, name), name

    def test_removed_names_gone(self):
        removed = {
            dynamics: ("coherence", "xi_subset", "y_complement", "eigenvalue_pair", "xi",
                       "entropy_total"),
            estimation: ("saturation_size",),
            recurrence: ("particle_frequency",),
            oracle: ("mutual_information", "PurityError"),
            config: ("validate", "_LIST_RULES"),
            cli: ("_sweep_cells", "_fmt"),
            model: ("_place", "_couplings"),
        }
        for module, names in removed.items():
            for name in names:
                assert not hasattr(module, name), f"{module.__name__}.{name}"
                assert not hasattr(spindecoh, name), name
        assert "minimizing_pair" not in recurrence.RecurrenceEstimate.__dataclass_fields__
        assert "dimension" not in spindecoh.SpinSystem.__dataclass_fields__
        assert not hasattr(spindecoh.Trajectory, "dt")
        assert "entropy" not in spindecoh.Trajectory.__dataclass_fields__
        assert not hasattr(RunConfig, "n_samples")
        assert not hasattr(dynamics, "_grid_size")
        params = inspect.signature(spindecoh.sample_trajectory).parameters
        assert not {"n_samples", "include_coherences", "include_entropy"} & set(params)

    def test_benchmark_layers_are_public_functions(self):
        # Per-layer metrics read module.function.metric; the tracer times only
        # public functions, so a layer named after anything else reads 0.
        bench = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
        layers = {tuple(m["name"].split(".")[:2]) for m in bench["per_layer"]
                  if m["name"].count(".") >= 2}
        assert ("model", "place_particles") in layers
        for module_name, name in sorted(layers):
            module = importlib.import_module(f"spindecoh.{module_name}")
            obj = getattr(module, name, None)
            assert not name.startswith("_") and inspect.isfunction(obj), f"{module_name}.{name}"
            assert obj.__module__ == module.__name__, f"{module_name}.{name}"

    def test_readme_library_table_matches_modules(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        table = readme.split("| Module | Entry points |\n|---|---|\n", 1)[1].split("\n\n", 1)[0]
        documented = {}
        for line in table.splitlines():
            module, entries = (c.strip() for c in line.strip("|").split("|", 1))
            documented[module.strip("`")] = re.findall(r"`([A-Za-z_]\w*)", entries)
        assert set(documented) == {"model", "dynamics", "estimation", "recurrence", "oracle"}
        for module, names in documented.items():
            for name in names:
                obj = getattr(importlib.import_module(f"spindecoh.{module}"), name)
                if module != "oracle" and name != "particle_entropies":
                    assert name in spindecoh.__all__ and getattr(spindecoh, name) is obj, name
