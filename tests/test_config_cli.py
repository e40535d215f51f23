import math
import warnings

import numpy as np
import pytest

from spindecoh.cli import main
from spindecoh.config import (
    ConfigParseError,
    ConfigValidationError,
    RunConfig,
    config_hash,
    parse_config,
    render_config,
)


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
        cfg = parse_config("n_list = 10, 20, 50\nrho_list = 0.5, 1, 2\n")
        assert cfg.n_list == (10, 20, 50)
        assert cfg.rho_list == (0.5, 1.0, 2.0)

    def test_fit_window(self):
        assert parse_config("fit_window = auto\n").fit_window is None
        assert parse_config("fit_window = 0, 25\n").fit_window == (0.0, 25.0)

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigParseError, match="line 2"):
            parse_config("n = 4\nbogus = 1\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigParseError, match="duplicate"):
            parse_config("n = 4\nn = 5\n")

    def test_bad_value_reports_line(self):
        with pytest.raises(ConfigParseError, match="line 1"):
            parse_config("n = many\n")

    def test_window_order_validated(self):
        with pytest.raises(ConfigValidationError, match="t1 < t2"):
            parse_config("t1 = 90\nt2 = 80\n")

    def test_t2_within_span(self):
        with pytest.raises(ConfigValidationError):
            parse_config("tmax = 60\n")  # default t2=100 > tmax

    def test_system_constraints_propagate(self):
        with pytest.raises(ConfigValidationError):
            parse_config("d = 7\n")

    def test_round_trip(self):
        cfg = RunConfig(
            n=12, d=2, rho=0.7, eta=3.5, seed=987, dt=0.02, tmax=80.0,
            t1=40.0, t2=80.0, u=7, fit_window=(0.0, 12.5), out="results",
            n_list=(4, 8), rho_list=(0.5, 2.0), d_list=(1, 3),
        )
        assert parse_config(render_config(cfg)) == cfg

    def test_round_trip_defaults(self):
        cfg = RunConfig()
        assert parse_config(render_config(cfg)) == cfg

    def test_hash_stable(self):
        assert config_hash(RunConfig()) == config_hash(RunConfig())
        assert config_hash(RunConfig()) != config_hash(RunConfig(n=3))


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
        cfg = tmp_path / "run.cfg"
        cfg.write_text("t1 = 90\nt2 = 80\n")
        assert main(["simulate", "--config", str(cfg)]) == 2

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
        assert cols == ["run", "seed", "tau", "c", "ssr", "converged", "xi_avg"]
        assert len(rows) == 4
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

    def test_oracle_check_rejects_large_n(self, tmp_path, capsys):
        assert main(["oracle-check", "--n", "20", "--out", str(tmp_path)]) == 2

    def test_fit_scaling_requires_grids(self, tmp_path, capsys):
        assert main(["fit-scaling", "--out", str(tmp_path)]) == 2

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

    def test_threads_env_not_integer(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("SPINDECOH_THREADS", "abc")
        err = self.assert_one_line_error(capsys, ["simulate", "--out", str(tmp_path)])
        assert "SPINDECOH_THREADS" in err

    def test_negative_threads(self, tmp_path, capsys):
        err = self.assert_one_line_error(
            capsys, ["ensemble", "--threads", "-3", "--out", str(tmp_path)])
        assert "threads" in err

    def test_infinite_tmax(self, tmp_path, capsys):
        err = self.assert_one_line_error(
            capsys, ["simulate", "--tmax", "inf", "--out", str(tmp_path)])
        assert "tmax must be finite" in err

    def test_nan_dt(self, tmp_path, capsys):
        err = self.assert_one_line_error(
            capsys, ["simulate", "--dt", "nan", "--out", str(tmp_path)])
        assert "dt must be finite" in err
