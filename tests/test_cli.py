import csv
import math

import numpy as np
import pytest

from shortgp import harness
from shortgp.cli import main
from shortgp.harness import SyntheticConfig, export_csv, generate_sinc_series


@pytest.fixture()
def sinc_csv(tmp_path):
    cfg = SyntheticConfig(n_points=7, seed=0)
    series = [generate_sinc_series(cfg, rep) for rep in range(3)]
    path = tmp_path / "series.csv"
    export_csv(series, path)
    return path


@pytest.fixture()
def variance_csv(tmp_path):
    path = tmp_path / "expr.csv"
    rows = ["id,time,value,variance"]
    rng = np.random.default_rng(0)
    for sid in ("g1", "g2"):
        for t in range(6):
            rows.append(f"{sid},{t},{rng.normal():.6f},0.05")
    path.write_text("\n".join(rows) + "\n")
    return path


class TestBoundCommand:
    def test_times(self, capsys):
        rc = main(["bound", "--times=0,1,2,3"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "delta_t             1.0" in out
        value = float(
            [l for l in out.splitlines() if l.startswith("length_scale_lower")][0].split()[-1]
        )
        assert abs(value - 0.8199) <= 1e-4
        assert "length_scale_upper  3.0" in out

    def test_delta_t_matern(self, capsys):
        rc = main(["bound", "--delta-t", "1.0", "--family", "matern", "--nu", "0.5"])
        out = capsys.readouterr().out
        assert rc == 0
        value = float(
            [l for l in out.splitlines() if l.startswith("length_scale_lower")][0].split()[-1]
        )
        assert abs(value - math.tan(0.99 * math.pi / 2.0) / math.pi) <= 1e-4

    def test_median_rule_flagged(self, capsys):
        rc = main(["bound", "--times=0,0.5,2,3.5", "--gap-rule", "median"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "non-default heuristic" in out

    def test_usage_errors(self, capsys):
        assert main(["bound"]) == 1
        assert main(["bound", "--times=0,1", "--delta-t", "1"]) == 1
        assert main(["bound", "--delta-t", "1", "--family", "matern"]) == 1
        assert main(["nonsense"]) == 1


class TestFitCommand:
    def test_fit_first_series(self, sinc_csv, capsys):
        rc = main(["fit", "--input", str(sinc_csv), "--scenario", "4"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "length_scale" in out
        assert "log_marginal_lik" in out

    def test_fit_with_plotdata(self, sinc_csv, tmp_path, capsys):
        plot = tmp_path / "plot.csv"
        rc = main(
            [
                "fit",
                "--input",
                str(sinc_csv),
                "--id",
                "sinc-n7-r1",
                "--scenario",
                "1",
                "--plot-out",
                str(plot),
            ]
        )
        assert rc == 0
        with open(plot) as fh:
            header = fh.readline().strip().split(",")
        assert header == [
            "time",
            "mean",
            "latent_sd",
            "observed_sd",
            "is_training_point",
            "training_value",
        ]

    def test_missing_file_is_data_error(self, tmp_path, capsys):
        rc = main(["fit", "--input", str(tmp_path / "none.csv")])
        assert rc == 2

    def test_unknown_id_is_data_error(self, sinc_csv, capsys):
        rc = main(["fit", "--input", str(sinc_csv), "--id", "nope"])
        assert rc == 2

    def test_malformed_csv_is_data_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("id,time,value\ng1,zero,1\n")
        rc = main(["fit", "--input", str(bad)])
        assert rc == 2


class TestSynthCommand:
    def test_tiny_sweep(self, tmp_path, capsys):
        out_dir = tmp_path / "report"
        rc = main(
            [
                "synth",
                "--n-grid",
                "5",
                "--replicates",
                "3",
                "--restarts",
                "2",
                "--seed",
                "1",
                "--out-dir",
                str(out_dir),
            ]
        )
        assert rc == 0
        names = {p.name for p in out_dir.iterdir()}
        assert {
            "overfit_lengthscale.csv",
            "overfit_noise.csv",
            "low_loglik.csv",
            "high_mse.csv",
            "win_loglik.csv",
            "win_mse.csv",
            "failed.csv",
            "replicates.csv",
            "summary.txt",
        } <= names

    def test_config_file_with_flag_override(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        out_dir = tmp_path / "report"
        cfg.write_text(
            "replicates = 2\nrestarts = 2\nn_grid = 5\nout_dir = %s\n" % out_dir
        )
        rc = main(["synth", "--config", str(cfg), "--replicates", "3"])
        assert rc == 0
        with open(out_dir / "replicates.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 3 * 4  # flag overrode the config file

    def test_tuple_flags_override_config_file(self, tmp_path, monkeypatch, capsys):
        seen = []

        def record(config, n_grid, parallelism=1):
            seen.append(config)
            return harness.BatchReport(scenario_labels=[], n_values=[], rows=[])

        monkeypatch.setattr(harness, "run_synthetic_experiment", record)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "interval_lo = -4\ninterval_hi = 4\n"
            "test_lo = -5\ntest_hi = 3\ntest_count = 8\n"
            "noise_bound_lo = 0.02\nnoise_bound_hi = 0.2\n"
            "out_dir = %s\n" % (tmp_path / "report")
        )
        assert main(["synth", "--config", str(cfg)]) == 0
        assert main(
            [
                "synth",
                "--config",
                str(cfg),
                "--interval=-3,2",
                "--test-grid=-2,1,4",
                "--noise-bounds=0.03,0.3",
            ]
        ) == 0
        from_file, overridden = seen
        assert from_file.interval == (-4.0, 4.0)
        assert from_file.test_grid == (-5.0, 3.0, 8)
        assert from_file.noise_bounds == (0.02, 0.2)
        assert overridden.interval == (-3.0, 2.0)
        assert overridden.test_grid == (-2.0, 1.0, 4)
        assert overridden.noise_bounds == (0.03, 0.3)

    def test_missing_out_dir_is_usage_error(self, capsys):
        rc = main(["synth", "--n-grid", "5", "--replicates", "2"])
        assert rc == 1


class TestBatchCommand:
    def test_expression_batch(self, variance_csv, tmp_path, capsys):
        out_dir = tmp_path / "report"
        rc = main(
            [
                "batch",
                "--input",
                str(variance_csv),
                "--scenario-set",
                "expression",
                "--restarts",
                "2",
                "--out-dir",
                str(out_dir),
            ]
        )
        assert rc == 0
        with open(out_dir / "overfit_noise.csv") as fh:
            rows = {r[0]: r[1] for r in list(csv.reader(fh))[1:]}
        assert rows["noise_fixed"] == "."
        assert rows["both_bounded"] == "."


class TestPlotdataCommand:
    def test_writes_curves(self, sinc_csv, tmp_path, capsys):
        out = tmp_path / "curves.csv"
        rc = main(
            [
                "plotdata",
                "--input",
                str(sinc_csv),
                "--scenario",
                "2",
                "--resolution",
                "40",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 47


class TestExitCodes:
    def test_numerical_failure_exit_code(self, capsys):
        # a bound (near 1e1000) that double precision cannot represent
        rc = main(
            [
                "bound",
                "--delta-t",
                "1.0",
                "--family",
                "matern",
                "--nu",
                "0.001",
                "--alpha",
                "0.99",
            ]
        )
        assert rc == 3
