import csv
import math
import os

import numpy as np
import pytest

from shortgp import harness
from shortgp.bound import length_scale_bound
from shortgp.cli import main
from shortgp.fitting import fit, make_scenarios
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

    @pytest.mark.parametrize("delta_t", ["0", "-1", "inf", "nan"])
    def test_delta_t_outside_zero_to_inf_is_data_error(self, delta_t, capsys):
        assert main(["bound", "--delta-t", delta_t]) == 2
        assert "--delta-t must be finite and > 0" in capsys.readouterr().err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_delta_t_near_largest_float(self, capsys):
        # 1 / (2 dt) would overflow 2 dt and print 0.0
        assert main(["bound", "--delta-t", "1e308"]) == 0
        assert "nyquist_frequency   5e-309" in capsys.readouterr().out

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_times_with_overflowing_span_is_data_error(self, capsys):
        assert main(["bound", "--times=-1e308,0,1e308"]) == 2
        assert "span" in capsys.readouterr().err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--delta-t", "1e-320"], "--delta-t must be finite and > 0"),
            (["--times=0,1e-320,2e-320"], "smallest normal float"),
        ],
        ids=["delta-t", "times"],
    )
    def test_subnormal_sampling_interval_is_data_error(self, argv, message, capsys):
        # its Nyquist frequency 0.5 / dt would overflow to inf
        assert main(["bound", *argv]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_smallest_normal_sampling_interval(self, capsys):
        assert main(["bound", "--delta-t", "2.3e-308"]) == 0
        assert "nyquist_frequency   2.17" in capsys.readouterr().out

    def test_usage_errors(self, capsys):
        assert main(["bound"]) == 1
        assert main(["bound", "--times=0,1", "--delta-t", "1"]) == 1
        assert main(["bound", "--delta-t", "1", "--family", "matern"]) == 1
        assert main(["bound", "--delta-t", "1", "--nu", "2.5"]) == 1
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

    def test_header_only_csv_is_data_error(self, tmp_path, capsys):
        empty = tmp_path / "empty.csv"
        empty.write_text("id,time,value\n")
        assert main(["fit", "--input", str(empty)]) == 2
        assert "no series found" in capsys.readouterr().err


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
            "replicates = 2\nn_grid = 5\nout_dir = %s\n" % out_dir
        )
        rc = main(["synth", "--config", str(cfg), "--replicates", "3"])
        assert rc == 0
        with open(out_dir / "replicates.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 3 * 4  # flag overrode the config file

    def test_nu_flag_overrides_config_file(self, tmp_path, monkeypatch, capsys):
        seen = []

        def record(config, n_grid, parallelism=1):
            seen.append(config)
            return harness.BatchReport(scenario_labels=[], n_values=[], rows=[])

        monkeypatch.setattr(harness, "run_synthetic_experiment", record)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("family = matern\nnu = 1.5\nout_dir = %s\n" % (tmp_path / "r"))
        assert main(["synth", "--config", str(cfg)]) == 0
        assert main(["synth", "--config", str(cfg), "--nu", "2.5"]) == 0
        assert [(c.family, c.nu) for c in seen] == [("matern", 1.5), ("matern", 2.5)]

    def test_nu_without_the_matern_family_is_usage_error(self, tmp_path, capsys):
        out = ["--out-dir", str(tmp_path / "report")]
        assert main(["synth", "--nu", "2.5", *out]) == 1
        assert main(["synth", "--family", "se", "--nu", "2.5", *out]) == 1
        cfg = tmp_path / "run.cfg"
        cfg.write_text("family = matern\nnu = 1.5\n")
        assert main(["synth", "--config", str(cfg), "--family", "se", *out]) == 1
        assert "applies only to the matern family" in capsys.readouterr().err
        assert not (tmp_path / "report").exists()

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

    @pytest.mark.parametrize("joined", [False, True])
    def test_tuple_flags_take_a_negative_first_value(self, tmp_path, monkeypatch, joined):
        seen = []

        def record(config, n_grid, parallelism=1):
            seen.append(config)
            return harness.BatchReport(scenario_labels=[], n_values=[], rows=[])

        monkeypatch.setattr(harness, "run_synthetic_experiment", record)
        flags = [("--interval", "-3,2"), ("--test-grid", "-6,5,10"),
                 ("--noise-bounds", "-.5,0.1")]
        argv = ["synth", "--out-dir", str(tmp_path / "report"), "--n-grid", "5"]
        for flag, value in flags:
            argv += [f"{flag}={value}"] if joined else [flag, value]
        assert main(argv) == 0
        assert seen[0].interval == (-3.0, 2.0)
        assert seen[0].test_grid == (-6.0, 5.0, 10)
        # Parsed as given; the noise box itself is checked where the
        # scenarios are built, which the recorder replaces.
        assert seen[0].noise_bounds == (-0.5, 0.1)

    def test_missing_out_dir_is_usage_error(self, capsys):
        rc = main(["synth", "--n-grid", "5", "--replicates", "2"])
        assert rc == 1

    def test_tuple_flag_with_too_few_values_is_data_error(self, tmp_path, capsys):
        rc = main(["synth", "--interval", "1", "--out-dir", str(tmp_path / "report")])
        assert rc == 2
        assert "--interval needs 2 values" in capsys.readouterr().err

    def test_matern_sweep(self, tmp_path, capsys):
        out_dir = tmp_path / "report"
        argv = ["synth", "--family", "matern", "--nu", "1.5", "--n-grid", "5",
                "--replicates", "2", "--out-dir", str(out_dir)]
        assert main(argv) == 0
        with open(out_dir / "replicates.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2 * 4
        # the Matern 3/2 bound of the default grid: 5 points on [-5, 6]
        bound = length_scale_bound("matern", 0.99, 11.0 / 4.0, 1.5)
        assert {float(r["length_scale_lower"]) for r in rows} == {bound}


class TestBatchCommand:
    def test_nu_without_the_matern_family_is_usage_error(self, variance_csv, tmp_path, capsys):
        # it once fitted SE, ignoring --nu
        argv = ["batch", "--input", str(variance_csv), "--out-dir", str(tmp_path / "report")]
        assert main([*argv, "--nu", "2.5"]) == 1
        assert main(["fit", "--input", str(variance_csv), "--nu", "2.5"]) == 1
        assert not (tmp_path / "report").exists()
        assert main([*argv, "--family", "matern", "--nu", "2.5"]) == 0

    def test_expression_batch(self, variance_csv, tmp_path, capsys):
        out_dir = tmp_path / "report"
        rc = main(
            [
                "batch",
                "--input",
                str(variance_csv),
                "--scenario-set",
                "expression",
                "--out-dir",
                str(out_dir),
            ]
        )
        assert rc == 0
        with open(out_dir / "overfit_noise.csv") as fh:
            rows = {r[0]: r[1] for r in list(csv.reader(fh))[1:]}
        assert rows["noise_fixed"] == "."
        assert rows["both_bounded"] == "."

    @pytest.mark.parametrize(
        "text",
        [
            "id,time,value\n",
            # the second series' time span overflows a float
            "id,time,value,variance\na,0,0.1,0.05\na,1,0.5,0.05\n"
            "b,-1e308,0.1,0.05\nb,0,0.5,0.05\nb,1e308,0.2,0.05\n",
        ],
    )
    def test_unusable_csv_is_data_error(self, text, tmp_path, capsys):
        path = tmp_path / "in.csv"
        path.write_text(text)
        out_dir = tmp_path / "report"
        assert main(["batch", "--input", str(path), "--out-dir", str(out_dir)]) == 2
        assert not out_dir.exists()


@pytest.mark.parametrize(
    "command, flag",
    [
        ("fit", "--seed"),
        ("fit", "--restarts"),
        ("synth", "--restarts"),
        ("batch", "--seed"),
        ("batch", "--restarts"),
        ("fit", "--format"),
        ("batch", "--format"),
    ],
)
def test_fit_seed_and_restarts_flags_are_usage_errors(command, flag, variance_csv, tmp_path, capsys):
    # every fit starts from its likelihood grid alone: no command takes a
    # fit seed or a restart count (synth --seed seeds the data); and the
    # CSV header alone decides its layout, so no command takes a format
    out_dir = tmp_path / "report"
    argv = {
        "fit": ["--input", str(variance_csv), "--plot-out", str(out_dir / "curves.csv")],
        "synth": ["--n-grid", "5", "--replicates", "2", "--out-dir", str(out_dir)],
        "batch": ["--input", str(variance_csv), "--out-dir", str(out_dir)],
    }[command]
    assert main([command, *argv, flag, "1"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and f"unrecognized arguments: {flag} 1" in err
    assert not out_dir.exists()


class TestPlotdataCommand:
    def test_writes_curves(self, sinc_csv, tmp_path, capsys):
        # fit --plot-out writes the curves of the fit it prints
        out = tmp_path / "curves.csv"
        rc = main(
            [
                "fit",
                "--input",
                str(sinc_csv),
                "--scenario",
                "2",
                "--resolution",
                "40",
                "--plot-out",
                str(out),
            ]
        )
        assert rc == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 47
        series = harness.ingest_csv(sinc_csv)[0]
        result = fit(series, "se", make_scenarios(series, "se")[1])
        expected = tmp_path / "expected.csv"
        harness.emit_fit_plotdata(series, result, expected, 40)
        assert out.read_bytes() == expected.read_bytes()

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--resolution", "1", "--plot-out", "curves.csv"], "--resolution must be >= 2"),
            (["--resolution", "40"], "--resolution applies only with --plot-out"),
        ],
        ids=["below-two", "without-plot-out"],
    )
    def test_resolution_usage_errors_come_before_the_fit(
        self, flags, message, tmp_path, monkeypatch, capsys
    ):
        # raised before the CSV is read: the input does not exist, nothing is
        # printed, and no file is written
        monkeypatch.chdir(tmp_path)
        assert main(["fit", "--input", str(tmp_path / "missing.csv"), *flags]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err
        assert not (tmp_path / "curves.csv").exists()

    def test_the_removed_command_is_a_usage_error(self, sinc_csv, tmp_path, capsys):
        out = tmp_path / "curves.csv"
        assert main(["plotdata", "--input", str(sinc_csv), "--out", str(out)]) == 1
        assert "invalid choice: 'plotdata'" in capsys.readouterr().err
        assert not out.exists()


class TestOutDir:
    """An --out-dir that cannot be made is a data error, one line, raised
    after the input is read and before any fit."""

    @pytest.mark.parametrize("command", ["synth", "batch"])
    @pytest.mark.parametrize("where", ["a-file", "under-a-file", "not-writable"])
    def test_unusable_out_dir_is_data_error(
        self, command, where, variance_csv, tmp_path, monkeypatch, capsys
    ):
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        out_dir = {
            "a-file": blocker,
            "under-a-file": blocker / "report",
            "not-writable": tmp_path / "locked" / "report",
        }[where]
        if where == "not-writable":
            # what the system raises in a folder that the user cannot write,
            # which a superuser, who can write anywhere, would not see
            def denied(path, *args, **kwargs):
                raise PermissionError(13, "Permission denied", str(path))

            monkeypatch.setattr(os, "makedirs", denied)
        fits = []
        monkeypatch.setattr(harness, "_fit_all", lambda *args: fits.append(args))
        argv = {
            "synth": ["--n-grid", "5", "--replicates", "2"],
            "batch": ["--input", str(variance_csv)],
        }[command]
        assert main([command, *argv, "--out-dir", str(out_dir)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and fits == []
        assert err.startswith("data error: ") and err.count("\n") == 1
        assert str(out_dir) in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["synth", "--n-grid", "5,5"],
            ["synth", "--family", "matern", "--nu", "3.7"],
            ["synth", "--alpha", "1.5"],
            ["batch", "--alpha", "2"],
            ["batch", "--family", "matern", "--nu", "3.7"],
        ],
        ids=["repeated-n", "synth-nu", "synth-alpha", "batch-alpha", "batch-nu"],
    )
    def test_rejected_run_leaves_no_out_dir(self, argv, variance_csv, tmp_path, capsys):
        # the folder is made before the run checks its settings; a run that
        # raises removes the folder it made, and leaves one that was there
        if argv[0] == "synth":
            argv = [*argv, "--replicates", "1"]
        else:
            argv = [*argv, "--input", str(variance_csv)]
        made = tmp_path / "made" / "report"
        made.parent.mkdir()
        assert main([*argv, "--out-dir", str(made)]) == 2
        assert not made.exists() and made.parent.is_dir()
        # every folder it made goes, parents included, up to one that was there
        nested = tmp_path / "parent" / "middle" / "leaf"
        assert main([*argv, "--out-dir", str(nested)]) == 2
        assert not (tmp_path / "parent").exists()
        kept = tmp_path / "kept"
        kept.mkdir()
        assert main([*argv, "--out-dir", str(kept)]) == 2
        assert kept.is_dir() and list(kept.iterdir()) == []
        out, err = capsys.readouterr()
        assert out == "" and err.count("data error: ") == 3


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
