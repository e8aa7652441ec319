import csv
import ctypes
import importlib
import math
import os
import re
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shortgp import fitting as fitmod
from shortgp import harness
from shortgp.fitting import Scenario, fit, make_expression_scenarios, make_scenarios
from shortgp.harness import (
    BatchReport,
    CsvFormatError,
    SyntheticConfig,
    config_from_mapping,
    emit_fit_plotdata,
    emit_report,
    export_csv,
    generate_sinc_series,
    ingest_csv,
    load_config,
    run_batch,
    run_synthetic_experiment,
    sinc,
)
from shortgp.gp import posterior_at
from shortgp.series import NoiseModel, TimeSeries


class TestSinc:
    def test_removable_singularity(self):
        assert sinc(0.0) == 1.0

    def test_matches_ratio(self):
        for x in [0.1, 1.0, -3.3]:
            assert abs(sinc(x) - math.sin(x) / x) <= 1e-15


class TestGenerate:
    def test_noiseless(self):
        cfg = SyntheticConfig(n_points=7, noise_variance=0.0)
        s = generate_sinc_series(cfg, 3)
        assert np.array_equal(s.values, sinc(s.times))

    def test_benchmark_gap(self):
        s = generate_sinc_series(SyntheticConfig(n_points=7), 0)
        gaps = np.diff(s.times)
        assert abs(gaps[0] - 11.0 / 6.0) <= 1e-12
        assert s.times[0] == -5.0 and s.times[-1] == 6.0

    def test_replicates_differ_and_reproduce(self):
        cfg = SyntheticConfig(n_points=7, seed=9)
        a = generate_sinc_series(cfg, 4)
        b = generate_sinc_series(cfg, 4)
        c = generate_sinc_series(cfg, 5)
        assert np.array_equal(a.values, b.values)
        assert not np.array_equal(a.values, c.values)

    def test_monte_carlo_moments(self):
        # 1e5 draws of one point: mean within 4 standard errors, variance
        # within 5 percent of the configured noise variance
        cfg = SyntheticConfig(n_points=7, seed=123, noise_variance=0.09)
        resid = np.empty(100_000)
        for rep in range(100_000):
            s = generate_sinc_series(cfg, rep)
            resid[rep] = s.values[3] - sinc(s.times[3])
        se = math.sqrt(0.09 / resid.size)
        assert abs(resid.mean()) <= 4.0 * se
        assert abs(resid.var() - 0.09) <= 0.05 * 0.09

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SyntheticConfig(n_points=1)
        with pytest.raises(ValueError):
            SyntheticConfig(interval=(2.0, 1.0))
        with pytest.raises(ValueError):
            SyntheticConfig(noise_variance=-0.1)
        with pytest.raises(ValueError):
            SyntheticConfig(seed=-1)


def _toy_series_set(count=6, n=5, seed=0):
    cfg = SyntheticConfig(n_points=n, seed=seed)
    return [generate_sinc_series(cfg, rep) for rep in range(count)]


def _record_calls(monkeypatch, module, *names):
    """Replace each ``module.name`` with a stub that records its calls, all
    in one list."""
    calls = []
    for name in names:
        monkeypatch.setattr(module, name, lambda *args, **kwargs: calls.append(args))
    return calls


class TestRunSyntheticExperiment:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"restarts": 0},
            {"family": "matern", "nu": 0.7},
            {"alpha": 1.5},
            {"nu": 1.5},
            {"noise_bounds": (0.1, 0.01)},
            {"noise_bounds": (0.0, 0.1)},
        ],
    )
    def test_settings_fitting_rejects_raise_before_any_draw(self, monkeypatch, kwargs):
        fits = _record_calls(monkeypatch, fitmod, "fit", "_fit_problems")
        draws = _record_calls(monkeypatch, harness, "generate_sinc_series")
        with pytest.raises(ValueError):
            run_synthetic_experiment(SyntheticConfig(replicates=2, **kwargs), [5, 7])
        assert fits == [] and draws == []

    def test_repeated_n_raises_before_any_draw(self, monkeypatch):
        fits = _record_calls(monkeypatch, fitmod, "fit", "_fit_problems")
        draws = _record_calls(monkeypatch, harness, "generate_sinc_series")
        with pytest.raises(ValueError, match="n_grid"):
            run_synthetic_experiment(SyntheticConfig(replicates=2), [5, 7, 5])
        assert fits == [] and draws == []

    def test_n_below_2_raises_before_any_draw(self, monkeypatch):
        # each n's config is built before the first draw
        fits = _record_calls(monkeypatch, fitmod, "fit", "_fit_problems")
        draws = _record_calls(monkeypatch, harness, "generate_sinc_series")
        with pytest.raises(ValueError, match="n_points must be >= 2"):
            run_synthetic_experiment(SyntheticConfig(replicates=3), [5, 1])
        assert fits == [] and draws == []

    def test_small_sweep_structure(self):
        cfg = SyntheticConfig(replicates=6, seed=1, restarts=2)
        report = run_synthetic_experiment(cfg, [5])
        assert report.n_values == [5]
        assert len(report.rows) == 6 * 4
        labels = set(r.scenario for r in report.rows)
        assert labels == {
            "no_bounds",
            "lengthscale_bounded",
            "noise_bounded",
            "both_bounded",
        }
        for label in report.scenario_labels:
            stats = report.cell(label, 5)
            assert stats.count == 6
            for value in (
                stats.overfit_fraction_lengthscale,
                stats.overfit_fraction_noise,
                stats.low_loglik_fraction,
                stats.high_mse_fraction,
            ):
                assert 0.0 <= value <= 1.0

    def test_win_fractions_sum_to_one(self):
        cfg = SyntheticConfig(replicates=8, seed=2, restarts=2)
        report = run_synthetic_experiment(cfg, [5])
        total_ll = sum(report.cell(lab, 5).win_fraction_loglik for lab in report.scenario_labels)
        total_mse = sum(report.cell(lab, 5).win_fraction_mse for lab in report.scenario_labels)
        assert abs(total_ll - 1.0) <= 1e-12
        assert abs(total_mse - 1.0) <= 1e-12

    def test_replicate_rows_recomputable(self):
        # each row must be reproducible in isolation from its own series
        from shortgp.bound import delta_t_from_times
        from shortgp.fitting import diagnose, make_scenarios

        cfg = SyntheticConfig(replicates=4, seed=5, restarts=2)
        report = run_synthetic_experiment(cfg, [5])
        row = next(r for r in report.rows if r.replicate == 2 and r.scenario == "both_bounded")
        series = generate_sinc_series(
            SyntheticConfig(replicates=4, seed=5, restarts=2, n_points=5), 2
        )
        scenario = make_scenarios(series, "se")[3]
        result = fit(series, "se", scenario)
        assert result.kernel.length_scale == row.length_scale
        assert result.log_marginal_likelihood == row.log_marginal_likelihood

    def test_parallel_determinism(self):
        cfg = SyntheticConfig(replicates=6, seed=3, restarts=2)
        serial = run_synthetic_experiment(cfg, [5], parallelism=1)
        parallel = run_synthetic_experiment(cfg, [5], parallelism=4)
        assert serial.rows == parallel.rows


# (looser, tighter) scenario indices: no_bounds > lengthscale_bounded >
# both_bounded and no_bounds > noise_bounded > both_bounded
_NESTED_PAIRS = [(0, 1), (0, 2), (0, 3), (1, 3), (2, 3)]


def _in_box(row, scenario):
    l_ok = scenario.length_scale_lower <= row.length_scale <= scenario.length_scale_upper
    if scenario.noise_mode == "fixed":
        return l_ok and row.noise_variance is None
    if row.noise_variance is None:
        return False
    if scenario.noise_mode == "bounded":
        return l_ok and scenario.noise_lower <= row.noise_variance <= scenario.noise_upper
    return l_ok and row.noise_variance > 0.0


def _fit_fields(row):
    return (
        row.length_scale,
        row.signal_variance,
        row.noise_variance,
        row.log_marginal_likelihood,
        row.predictive_log_likelihood,
        row.mse,
    )


def _check_shared_optima(report, scenarios_of):
    """Per series: fits inside their boxes, marginal likelihoods monotone
    along the nesting, coincident fits identical and credited to the
    tighter scenario.  Returns the number of coincident nested pairs."""
    by_series = {}
    for r in report.rows:
        by_series.setdefault(r.series_id, {})[r.scenario_index] = r
    coincident = 0
    for sid, rows in by_series.items():
        assert [rows[i].scenario for i in range(4)] == report.scenario_labels
        scenarios = scenarios_of(sid)
        for i, row in rows.items():
            assert not row.failed
            assert _in_box(row, scenarios[i]), (sid, row.scenario)
        for loose, tight in _NESTED_PAIRS:
            a, b = rows[loose], rows[tight]
            assert a.log_marginal_likelihood >= b.log_marginal_likelihood, (sid, loose, tight)
            if _in_box(a, scenarios[tight]):
                coincident += 1
                assert _fit_fields(a) == _fit_fields(b), (sid, loose, tight)
                assert not a.win_loglik and not a.win_mse, (sid, loose, tight)
    return coincident


@pytest.fixture(scope="module")
def shared_sweep():
    cfg = SyntheticConfig(replicates=12, seed=0, restarts=2)
    return run_synthetic_experiment(cfg, [5, 7])


class TestSharedOptima:
    def test_synthetic_sweep(self, shared_sweep):
        from shortgp.fitting import make_scenarios

        series = {}
        for n in (5, 7):
            for rep in range(12):
                s = generate_sinc_series(SyntheticConfig(n_points=n, seed=0), rep)
                series[s.id] = s
        coincident = _check_shared_optima(
            shared_sweep, lambda sid: make_scenarios(series[sid], "se")
        )
        assert coincident > 0
        for n in (5, 7):
            for attr in ("win_fraction_loglik", "win_fraction_mse"):
                total = sum(
                    getattr(shared_sweep.cell(lab, n), attr)
                    for lab in shared_sweep.scenario_labels
                )
                assert abs(total - 1.0) <= 1e-12

    def test_fixed_noise_batch(self):
        rng = np.random.default_rng(5)
        t = np.linspace(0.0, 10.0, 6)
        series_set = [
            TimeSeries(
                t, sinc(t - 5.0) + rng.normal(0.0, 0.2, 6), np.full(6, 0.04), id=f"g{k}"
            )
            for k in range(8)
        ]
        report = run_batch(series_set, scenario_set="expression", restarts=2)
        by_id = {s.id: s for s in series_set}
        _check_shared_optima(report, lambda sid: make_expression_scenarios(by_id[sid], "se"))

    def test_exact_tie_goes_to_most_constrained(self, shared_sweep):
        # a series whose optimum lies inside every box: all four scenarios
        # share one fit, and the most constrained scenario takes both wins
        by_series = {}
        for r in shared_sweep.rows:
            by_series.setdefault(r.series_id, []).append(r)
        shared = [
            rows for rows in by_series.values() if len({_fit_fields(r) for r in rows}) == 1
        ]
        assert shared
        for rows in shared:
            assert [r.win_loglik for r in rows] == [False, False, False, True]
            assert [r.win_mse for r in rows] == [False, False, False, True]


class TestRunBatch:
    def test_batch_of_one_equals_direct_fit(self):
        series = _toy_series_set(count=1)[0]
        report = run_batch([series], scenario_set="synthetic", restarts=2)
        row = next(r for r in report.rows if r.scenario == "no_bounds")
        from shortgp.fitting import make_scenarios

        direct = fit(series, "se", make_scenarios(series, "se")[0])
        assert row.length_scale == direct.kernel.length_scale
        assert row.log_marginal_likelihood == direct.log_marginal_likelihood

    def test_order_independence(self):
        series_set = _toy_series_set(count=4)
        fwd = run_batch(series_set, scenario_set="synthetic", restarts=2)
        # records come out in input order, so compare by series id
        rev = run_batch(series_set[::-1], scenario_set="synthetic", restarts=2)

        def key(report):
            return {
                (r.series_id, r.scenario): (r.length_scale, r.log_marginal_likelihood)
                for r in report.rows
            }

        # a rerun in the same order gives the same per-series results
        again = run_batch(series_set, scenario_set="synthetic", restarts=2)
        assert key(fwd) == key(again)
        assert key(rev) == key(fwd)
        assert rev.scenario_labels == fwd.scenario_labels

    def test_parallel_determinism_bitwise(self):
        # 100 small synthetic series, 1 vs 8 workers
        series_set = _toy_series_set(count=100, n=5)
        one = run_batch(series_set, scenario_set="synthetic", parallelism=1, restarts=2)
        eight = run_batch(series_set, scenario_set="synthetic", parallelism=8, restarts=2)
        assert one.rows == eight.rows

    def test_per_series_bound_from_own_sampling(self):
        a = TimeSeries(np.linspace(0.0, 4.0, 5), np.zeros(5) + 0.1, id="dense")
        b = TimeSeries(np.linspace(0.0, 40.0, 5), np.zeros(5) + 0.1, id="sparse")
        report = run_batch([a, b], scenario_set="synthetic", restarts=2)
        # the series are constant, so only their bounded-noise scenarios fit
        rows = {r.series_id: r for r in report.rows if r.scenario == "noise_bounded"}
        assert abs(rows["dense"].length_scale_lower * 10.0 - rows["sparse"].length_scale_lower) <= 1e-9

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError):
            run_batch([], scenario_set="synthetic")

    @pytest.mark.parametrize("parallelism", [1, 2])
    @pytest.mark.parametrize("scenario_set", ["synthetic", "expression"])
    def test_single_observation_series_is_not_fatal(self, parallelism, scenario_set):
        # a one-point series has no sampling interval; placed first, it must
        # still yield one failed record per scenario and leave the labels
        # and the other series' fits alone
        t = np.linspace(0.0, 6.0, 7)
        ok = TimeSeries(t, sinc(t), noise_variances=np.full(7, 0.04), id="ok")
        bad = TimeSeries([1.0], [0.3], noise_variances=[0.04], id="bad")
        # "ok" is second in both runs
        pair = run_batch([ok, ok], scenario_set=scenario_set, restarts=2)
        report = run_batch(
            [bad, ok], scenario_set=scenario_set, restarts=2, parallelism=parallelism
        )
        assert report.scenario_labels == pair.scenario_labels
        labels = pair.scenario_labels
        assert [r.scenario for r in report.rows[: len(labels)]] == labels
        assert all(r.failed and r.n == 1 for r in report.rows[: len(labels)])
        assert report.rows[len(labels) :] == pair.rows[len(labels) :]
        assert not any(r.failed for r in pair.rows)

    @pytest.mark.parametrize("parallelism", [1, 2])
    def test_series_without_variances_is_not_fatal(self, parallelism):
        # under the fixed-noise set, a series without per-point variances
        # fails its fixed-noise scenarios and fits its estimated-noise ones;
        # placed first, it leaves the other series' rows alone
        t = np.linspace(0.0, 6.0, 7)
        ok = TimeSeries(t, sinc(t), noise_variances=np.full(7, 0.04), id="ok")
        bare = TimeSeries(t, sinc(t) + 0.05 * np.cos(3.0 * t), id="bare")
        pair = run_batch([ok, ok], scenario_set="expression", restarts=2)
        report = run_batch(
            [bare, ok], scenario_set="expression", restarts=2, parallelism=parallelism
        )
        assert report.scenario_labels == pair.scenario_labels
        assert report.rows[4:] == pair.rows[4:]
        bare_rows = report.rows[:4]
        assert [r.scenario for r in bare_rows] == pair.scenario_labels
        assert [r.failed for r in bare_rows] == [False, False, True, True]
        assert all(r.noise_variance is not None for r in bare_rows[:2])
        # the estimated-noise rows are those of a run of just those scenarios
        estimated = make_expression_scenarios(bare, "se")[:2]
        alone = run_batch([bare], scenario_set=estimated, restarts=2)
        assert bare_rows[:2] == alone.rows

    @pytest.mark.parametrize("parallelism", [1, 2])
    @pytest.mark.parametrize("scenario_set", ["synthetic", "expression"])
    def test_constant_series_fails_under_estimated_noise(self, parallelism, scenario_set):
        # var y = 0: the estimated-noise likelihood grows without bound as
        # sn2 -> 0 and l -> inf, so those scenarios are failed records and
        # take no bounded- or fixed-noise fit, which still stand.  The
        # values are 0.1 so that np.var is 1.9e-34, not 0: the rule is
        # "all values equal", not a rounded variance.
        t = np.linspace(0.0, 6.0, 7)
        ok = TimeSeries(t, sinc(t), noise_variances=np.full(7, 0.04), id="ok")
        flat = TimeSeries(t, np.full(7, 0.1), noise_variances=np.full(7, 0.04), id="flat")
        pair = run_batch([ok, ok], scenario_set=scenario_set, restarts=2)
        report = run_batch(
            [flat, ok], scenario_set=scenario_set, restarts=2, parallelism=parallelism
        )
        assert report.rows[4:] == pair.rows[4:]
        flat_rows = report.rows[:4]
        assert [r.failed for r in flat_rows] == [True, True, False, False]
        assert all(r.shared_from is None for r in flat_rows[:2])
        assert all(math.isfinite(r.log_marginal_likelihood) for r in flat_rows[2:])
        for scenario in fitmod.SCENARIO_SETS[scenario_set](flat, "se")[:2]:
            with pytest.raises(ValueError, match="constant series"):
                fit(flat, "se", scenario)

    def test_all_short_series_labels_and_structure(self):
        # with no series long enough to fit, the labels and structural flags
        # still come from the scenario set
        one_point = TimeSeries([1.0], [0.3], id="p")
        report = run_batch([one_point], scenario_set="expression")
        assert report.scenario_labels == [
            "no_bounds",
            "lengthscale_bounded",
            "noise_fixed",
            "both_bounded",
        ]
        assert report.structural == {
            "no_bounds": {"lengthscale_impossible": False, "noise_impossible": False},
            "lengthscale_bounded": {
                "lengthscale_impossible": True,
                "noise_impossible": False,
            },
            "noise_fixed": {"lengthscale_impossible": False, "noise_impossible": True},
            "both_bounded": {"lengthscale_impossible": True, "noise_impossible": True},
        }
        assert [r.failed for r in report.rows] == [True] * 4

    def test_zero_restarts_raise_before_any_fit(self, monkeypatch):
        fits = _record_calls(monkeypatch, fitmod, "fit", "_fit_problems")
        with pytest.raises(ValueError, match="restarts"):
            run_batch(_toy_series_set(count=2), "synthetic", restarts=0)
        assert fits == []

    def test_empty_scenario_list_raises_before_any_fit(self, monkeypatch):
        fits = _record_calls(monkeypatch, fitmod, "fit", "_fit_problems")
        with pytest.raises(ValueError, match="scenario_set"):
            run_batch(_toy_series_set(count=2), scenario_set=[])
        assert fits == []

    def test_repeated_scenario_label_raises_before_any_fit(self, monkeypatch):
        # the report's cells and structural flags are keyed by label, so two
        # scenarios of one label would be aggregated together
        fits = _record_calls(monkeypatch, fitmod, "fit", "_fit_problems")
        repeated = [Scenario("a"), Scenario("a", length_scale_lower=2.0)]
        with pytest.raises(ValueError, match="repeat a scenario label"):
            run_batch(_toy_series_set(count=2), scenario_set=repeated)
        assert fits == []

    def test_alpha_raises_before_any_fit_for_an_explicit_list(self, monkeypatch):
        # an explicit list builds no bound of its own, so only the run's
        # settings see alpha before the fits
        fits = _record_calls(monkeypatch, fitmod, "fit", "_fit_problems")
        with pytest.raises(ValueError, match="alpha"):
            run_batch(_toy_series_set(count=2), scenario_set=[Scenario("free")], alpha=1.5)
        assert fits == []

    def test_nu_with_the_se_family_raises_before_any_fit(self, monkeypatch):
        fits = _record_calls(monkeypatch, fitmod, "fit", "_fit_problems")
        with pytest.raises(ValueError, match="nu applies only to the Matern family"):
            run_batch(_toy_series_set(count=2), family="se", nu=2.5)
        assert fits == []

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"scenario_set": "bogus"},
            {"family": "foo"},
            {"alpha": 1.5},
            {"family": "matern", "nu": None},
            {"family": "matern", "nu": 0.75},
        ],
    )
    def test_configuration_errors_raise_without_a_fittable_series(self, kwargs):
        one_point = TimeSeries([1.0], [0.3], noise_variances=[0.04], id="p")
        with pytest.raises(ValueError):
            run_batch([one_point], **kwargs)

    def test_fixed_noise_scenarios_from_csv_variances(self):
        series = TimeSeries(
            np.linspace(0.0, 6.0, 7),
            sinc(np.linspace(0.0, 6.0, 7)),
            noise_variances=np.full(7, 0.04),
            id="g1",
        )
        report = run_batch([series], scenario_set="expression", restarts=2)
        fixed_rows = [r for r in report.rows if r.scenario in ("noise_fixed", "both_bounded")]
        assert fixed_rows
        assert all(r.noise_variance is None for r in fixed_rows if not r.failed)


@st.composite
def _series_sets(draw):
    """Lists of valid series: 1 to 6 points on increasing times, with or
    without per-point variances."""
    out = []
    for k in range(draw(st.integers(1, 4))):
        n = draw(st.integers(1, 6))
        gaps = draw(st.lists(st.floats(0.3, 3.0), min_size=n - 1, max_size=n - 1))
        times = np.concatenate([[0.0], np.cumsum(gaps)])
        values = draw(st.lists(st.floats(-2.0, 2.0), min_size=n, max_size=n))
        variances = None
        if draw(st.booleans()):
            variances = draw(st.lists(st.floats(0.01, 0.2), min_size=n, max_size=n))
        out.append(TimeSeries(times, values, variances, id=f"s{k}"))
    return out


# Values of a series sampled 1e120 apart: its length-scale bound, about
# 8.2e119, cubed overflows a float.
_FAR_VALUES = [0.1, 0.5, -0.2, 0.3, 0.0]


class TestBatchContract:
    @settings(max_examples=20)
    @given(series_set=_series_sets(), scenario_set=st.sampled_from(["synthetic", "expression"]))
    def test_one_record_per_series_and_scenario_inside_its_box(
        self, series_set, scenario_set
    ):
        report = run_batch(series_set, scenario_set=scenario_set, restarts=1)
        labels = report.scenario_labels
        assert len(labels) == 4
        assert len(report.rows) == len(series_set) * len(labels)
        build = make_scenarios if scenario_set == "synthetic" else make_expression_scenarios
        for i, series in enumerate(series_set):
            rows = report.rows[i * len(labels) : (i + 1) * len(labels)]
            assert [r.series_id for r in rows] == [series.id] * len(labels)
            assert [r.scenario for r in rows] == labels
            assert [r.scenario_index for r in rows] == list(range(len(labels)))
            if len(series) < 2:
                assert all(r.failed for r in rows)
                continue
            for row, scenario in zip(rows, build(series, "se")):
                assert row.failed or _in_box(row, scenario), (series.id, row.scenario)


    @pytest.mark.parametrize("scale", [1e140, 1e150, 1e155, 1e200, 1e300])
    @pytest.mark.parametrize("scenario_set", ["synthetic", "expression"])
    def test_extreme_scales_give_a_record_per_scenario(self, scale, scenario_set):
        # the likelihood's gradient overflows at 1e140 and 1e150, and
        # L-BFGS-B steps to points that are not finite; from 1e155 the
        # sample variance, from which the starts are drawn, overflows too
        t = np.arange(7.0)
        big = TimeSeries(t, np.sin(t) * scale, np.full(7, 0.04), id="big")
        near = TimeSeries(t, np.cos(t), np.full(7, 0.04), id="near")
        alone = run_batch([near], scenario_set=scenario_set)
        report = run_batch([near, big], scenario_set=scenario_set)
        assert len(report.rows) == 8
        assert [r.scenario for r in report.rows[4:]] == report.scenario_labels
        assert [r.series_id for r in report.rows] == ["near"] * 4 + ["big"] * 4
        assert all(r.failed for r in report.rows[4:])
        assert repr(report.rows[:4]) == repr(alone.rows)


    @pytest.mark.parametrize("parallelism", [1, 2])
    def test_far_sampled_series_fails_alone(self, parallelism):
        near = TimeSeries(np.arange(5.0), _FAR_VALUES, id="near")
        far = TimeSeries(np.arange(5.0) * 1e120, _FAR_VALUES, id="far")
        alone = run_batch([near], scenario_set="synthetic", restarts=2)
        report = run_batch(
            [near, far], scenario_set="synthetic", restarts=2, parallelism=parallelism
        )
        assert [r.series_id for r in report.rows] == ["near"] * 4 + ["far"] * 4
        assert repr(report.rows[:4]) == repr(alone.rows)
        # the length-scale-bounded scenarios fail; the others fit inside
        # their boxes, at a length-scale of e^230
        scenarios = make_scenarios(far, "se")
        for row, scenario in zip(report.rows[4:], scenarios):
            assert row.failed == (scenario.length_scale_lower > 0.0), row.scenario
            assert row.failed or _in_box(row, scenario), row.scenario


# (looser, tighter) scenario indices whose boxes nest, per preset set
_NESTING = {
    "synthetic": set(_NESTED_PAIRS),
    "expression": {(0, 1), (2, 3)},
}


def _on_lower_bound(result, scenario):
    l, lo = result.kernel.length_scale, scenario.length_scale_lower
    if lo > 0.0 and l - lo <= 1e-6 * lo:
        return True
    return (
        scenario.noise_mode == "bounded"
        and result.noise_variance - scenario.noise_lower <= 1e-6 * scenario.noise_lower
    )


def _point(result):
    return SimpleNamespace(
        length_scale=result.kernel.length_scale, noise_variance=result.noise_variance
    )


def _own_fit(series, scenario):
    """``fit``, or None where the series cannot be fitted under the scenario
    or every start fails."""
    if fitmod._no_fit_reason(series, scenario) is not None:
        return None
    try:
        return fit(series, "se", scenario)
    except fitmod.AllStartsFailedError:
        return None


def _oracle(series, scenarios, nesting):
    """Every scenario fitted on its own; a fit skipped when a nesting
    scenario's kept fit lies in its box off its lower bounds; then every
    scenario that the series can be fitted under takes the first best
    feasible kept fit, and the others, and those with none, are failed
    (None in every field).  Returns (shared_from, l, sf2, sn2, lml) per
    scenario and the number of kept fits."""
    fits = [_own_fit(series, sc) for sc in scenarios]
    kept = []
    for k, sc in enumerate(scenarios):
        skip = any(
            (j, k) in nesting
            and kept[j] is not None
            and _in_box(_point(kept[j]), sc)
            and not _on_lower_bound(kept[j], sc)
            for j in range(k)
        )
        kept.append(None if skip else fits[k])
    out = []
    for sc in scenarios:
        feasible = [] if fitmod._no_fit_reason(series, sc) is not None else [
            j for j, f in enumerate(kept) if f is not None and _in_box(_point(f), sc)
        ]
        if not feasible:
            out.append((None,) * 5)
            continue
        j = max(feasible, key=lambda j: kept[j].log_marginal_likelihood)
        f = kept[j]
        out.append(
            (j, f.kernel.length_scale, f.kernel.signal_variance, f.noise_variance,
             f.log_marginal_likelihood)
        )
    return out, sum(f is not None for f in kept)


def _row_fits(rows):
    return [
        (r.shared_from, r.length_scale, r.signal_variance, r.noise_variance,
         r.log_marginal_likelihood)
        for r in rows
    ]


def _count_fits(monkeypatch):
    """Record the scenario label of every problem fitted.  The harness
    hands each stage, of one problem or more, to ``fitting._fit_problems``
    once, and ``fit`` does not call it."""
    calls = []
    original = fitmod._fit_problems

    def counting(problems, *args, **kwargs):
        calls.extend(scenario.label for _, scenario in problems)
        return original(problems, *args, **kwargs)

    monkeypatch.setattr(fitmod, "_fit_problems", counting)
    return calls


class TestNestedSkip:
    def test_contains_preset_sets(self):
        series = _toy_series_set(count=1, n=7)[0]
        for name, build in (("synthetic", make_scenarios), ("expression", make_expression_scenarios)):
            scenarios = build(series, "se")
            for i, outer in enumerate(scenarios):
                for k, inner in enumerate(scenarios):
                    expected = i == k or (i, k) in _NESTING[name]
                    assert outer.contains(inner) == expected, (name, i, k)
        # so neither bounded scenario contains the other, and no_bounds does
        # not contain noise_fixed
        assert make_expression_scenarios(series, "se")[2].label == "noise_fixed"

    def test_contains_explicit_list(self):
        free = Scenario("free")
        wide = Scenario("wide", noise_mode="bounded", noise_lower=0.01, noise_upper=0.5)
        narrow = Scenario("narrow", noise_mode="bounded", noise_lower=0.02, noise_upper=0.1)
        shifted = Scenario("shifted", noise_mode="bounded", noise_lower=0.05, noise_upper=1.0)
        boxed = Scenario("boxed", 1.0, 5.0)
        inner = Scenario("inner", 2.0, 4.0, "bounded", 0.02, 0.1)
        fixed = Scenario("fixed", noise_mode="fixed")
        fixed_boxed = Scenario("fixed_boxed", 1.0, 5.0, "fixed")
        assert free.contains(wide) and free.contains(boxed)
        assert wide.contains(narrow) and not narrow.contains(wide)
        assert not wide.contains(shifted) and not shifted.contains(wide)
        assert boxed.contains(inner) and not inner.contains(boxed)
        assert wide.contains(inner) and not boxed.contains(narrow)
        assert fixed.contains(fixed_boxed) and not fixed_boxed.contains(fixed)
        assert not free.contains(fixed) and not fixed.contains(free)
        assert not fixed.contains(narrow) and not wide.contains(fixed)

    def test_sweep_rows_match_the_oracle(self):
        cfg = SyntheticConfig(replicates=6, seed=3, restarts=2)
        report = run_synthetic_experiment(cfg, [5, 9])
        kept = 0
        for i, n in enumerate([5, 9]):
            for rep in range(6):
                series = generate_sinc_series(replace(cfg, n_points=n), rep)
                expected, count = _oracle(
                    series, make_scenarios(series, "se"), _NESTING["synthetic"]
                )
                kept += count
                start = (i * 6 + rep) * 4
                assert _row_fits(report.rows[start : start + 4]) == expected, series.id
        assert 12 <= kept < 12 * 4

    def test_fixed_noise_batch_rows_match_the_oracle(self):
        rng = np.random.default_rng(5)
        t = np.linspace(0.0, 10.0, 6)
        series_set = [
            TimeSeries(
                t, sinc(t - 5.0) + rng.normal(0.0, 0.2, 6), np.full(6, 0.04), id=f"g{k}"
            )
            for k in range(8)
        ]
        report = run_batch(series_set, scenario_set="expression", restarts=2)
        kept = 0
        for i, series in enumerate(series_set):
            expected, count = _oracle(
                series, make_expression_scenarios(series, "se"), _NESTING["expression"]
            )
            kept += count
            assert _row_fits(report.rows[4 * i : 4 * i + 4]) == expected, series.id
        assert kept < 8 * 4

    def test_fewer_than_four_fits_per_series(self, monkeypatch):
        calls = _count_fits(monkeypatch)
        report = run_synthetic_experiment(SyntheticConfig(replicates=6, seed=1, restarts=2), [9])
        assert 6 <= len(calls) < 4 * 6
        skipped = [r for r in report.rows if r.shared_from != r.scenario_index]
        assert len(skipped) >= 4 * 6 - len(calls)

    def test_no_skip_on_an_active_lower_bound(self, monkeypatch):
        series = _toy_series_set(count=1, n=7)[0]
        free = Scenario("free")
        l_free = fit(series, "se", free).kernel.length_scale
        on_bound = Scenario("on_bound", length_scale_lower=l_free * (1.0 - 1e-7))
        below = Scenario("below", length_scale_lower=l_free * 0.5)
        calls = _count_fits(monkeypatch)
        run_batch([series], scenario_set=[free, on_bound], restarts=2)
        assert calls == ["free", "on_bound"]
        calls.clear()
        report = run_batch([series], scenario_set=[free, below], restarts=2)
        assert calls == ["free"]
        assert [r.shared_from for r in report.rows] == [0, 0]


def _mixed_lengths():
    """Two series of every length from 1 to 15, some without per-point
    variances, plus a constant series, one with near-duplicate times and one
    sampled 1e120 apart, whose length-scales overflow."""
    rng = np.random.default_rng(11)
    out = []
    for n in range(1, 16):
        for k in range(2):
            t = np.cumsum(rng.uniform(0.3, 2.0, n))
            y = np.sin(t) + rng.normal(0.0, 0.3, n)
            variances = rng.uniform(0.01, 0.2, n) if (n + k) % 3 else None
            out.append(TimeSeries(t, y, variances, id=f"m{n}-{k}"))
    t = np.arange(6.0)
    out.append(TimeSeries(t, np.full(6, 0.4), np.full(6, 0.05), id="constant"))
    t = np.array([0.0, 1e-9, 1.0, 2.0, 3.5, 4.0, 6.0])
    out.append(TimeSeries(t, np.cos(t), np.full(7, 0.05), id="near-duplicate"))
    out.append(TimeSeries(np.arange(5.0) * 1e120, _FAR_VALUES, np.full(5, 0.05), id="far"))
    return out


class TestFitsAcrossSeries:
    """Series of one length are fitted together, scenario by scenario; every
    record must be the one that fitting each problem on its own gives."""

    @pytest.mark.parametrize("scenario_set", ["synthetic", "expression"])
    def test_mixed_lengths_match_the_oracle(self, scenario_set):
        series_set = _mixed_lengths()
        build = make_scenarios if scenario_set == "synthetic" else make_expression_scenarios
        expected = []
        for series in series_set:
            if len(series) < 2:
                expected += [(None,) * 5] * 4
                continue
            rows, _ = _oracle(series, build(series, "se"), _NESTING[scenario_set])
            expected += rows
        ids = [s.id for s in series_set for _ in range(4)]
        for parallelism in (1, 2):
            report = run_batch(
                series_set, scenario_set, restarts=2, parallelism=parallelism
            )
            assert [r.series_id for r in report.rows] == ids
            assert _row_fits(report.rows) == expected, parallelism
            far = report.rows[-4:]
            assert [r.failed for r in far] == [False, True, False, True]


def _record_stages(monkeypatch):
    """Record each call of ``fitting._fit_problems`` as the (length, label)
    pairs of its problems, and the label of each call of ``fitting.fit``."""
    stages, fits = [], []
    fit_problems, fit_one = fitmod._fit_problems, fitmod.fit

    def on_stage(problems, *args):
        stages.append([(len(series), scenario.label) for series, scenario in problems])
        return fit_problems(problems, *args)

    def on_fit(series, family, scenario, *args, **kwargs):
        fits.append(scenario.label)
        return fit_one(series, family, scenario, *args, **kwargs)

    monkeypatch.setattr(fitmod, "_fit_problems", on_stage)
    monkeypatch.setattr(fitmod, "fit", on_fit)
    return stages, fits


# Two scenarios neither of whose boxes holds the other's, so that no fit is
# skipped and every stage holds every series of its length.
_APART = [Scenario("short", length_scale_upper=3.0), Scenario("long", length_scale_lower=0.5)]


class TestStageRouting:
    """One ``fitting._fit_problems`` call per non-empty stage; a lone problem
    goes through ``fitting.fit``, and two or more do not."""

    @pytest.mark.parametrize("per_length", [1, 2])
    @pytest.mark.parametrize(
        "scenario_set, nesting",
        [("synthetic", _NESTING["synthetic"]), (_APART, set())],
        ids=["synthetic", "apart"],
    )
    def test_stages(self, monkeypatch, per_length, scenario_set, nesting):
        series_set = [
            s for n in (5, 7, 9) for s in _toy_series_set(count=per_length, n=n, seed=n)
        ]
        expected, fitted = [], 0
        for series in series_set:
            scenarios = _APART if scenario_set is _APART else make_scenarios(series, "se")
            rows, count = _oracle(series, scenarios, nesting)
            expected += rows
            fitted += count
        stages, fits = _record_stages(monkeypatch)
        report = run_batch(series_set, scenario_set, restarts=2)
        assert _row_fits(report.rows) == expected
        # every call is one stage: one length and one scenario, and no stage
        # is split over two calls
        assert all(len(set(stage)) == 1 for stage in stages)
        assert len({stage[0] for stage in stages}) == len(stages)
        assert sum(len(stage) for stage in stages) == fitted
        assert fits == [label for stage in stages if len(stage) == 1 for _, label in stage]
        if per_length == 1:
            assert len(fits) == fitted
        if scenario_set is _APART:
            assert [len(stage) for stage in stages] == [per_length] * 6


def _blas_threads():
    """Thread counts of scipy's and numpy's OpenBLAS, or None if unknown."""
    counts = []
    for module, symbol in (
        ("scipy.linalg._fblas", "scipy_openblas_get_num_threads"),
        ("numpy._core._multiarray_umath", "scipy_openblas_get_num_threads64_"),
    ):
        try:
            lib = ctypes.CDLL(importlib.import_module(module).__file__)
            counts.append(int(getattr(lib, symbol)()))
        except (ImportError, OSError, AttributeError):
            return None
    return tuple(counts)


def _worker_blas_threads(settings, group):
    return [[_blas_threads()] for _ in group]


class TestPool:
    def test_workers_run_blas_on_one_thread(self, monkeypatch):
        before = _blas_threads()
        if before is None:
            pytest.skip("this BLAS build has no thread-count getters")
        monkeypatch.setattr(harness, "_fit_group", _worker_blas_threads)
        tasks = [([0.0] * n,) for n in range(1, 5)]  # four lengths, four groups
        for parallelism in (2, 1):  # pool workers, then the serial path
            in_fits = harness._fit_all(None, tasks, parallelism)
            assert in_fits == [(1, 1)] * 4, parallelism
            assert _blas_threads() == before, parallelism

    def test_pin_blas_without_the_setters_does_nothing(self, monkeypatch):
        before = _blas_threads()
        loaded = []

        def without_setters(path):
            loaded.append(path)
            return SimpleNamespace()

        def missing(path):
            raise OSError(f"cannot load {path}")

        monkeypatch.setattr(harness, "_load_library", without_setters)
        harness._blas_on_one_thread()()
        assert len(loaded) == 2
        monkeypatch.setattr(harness, "_load_library", missing)
        restore = harness._blas_on_one_thread()
        assert _blas_threads() == before
        restore()
        assert _blas_threads() == before


    def test_pin_blas_without_the_scipy_linalg_package(self, fresh_python):
        # the pin reads scipy's OpenBLAS from the LAPACK extension that the
        # package loaded from its file, with no scipy.linalg package: both
        # libraries go to one thread and back to the counts found
        out = fresh_python(
            "import ctypes, importlib, sys\n"
            "from shortgp import _compiled, harness\n"
            "try:\n"
            "    libraries = [\n"
            "        (getattr(library, f'scipy_openblas_get_num_threads{suffix}'),\n"
            "         getattr(library, f'scipy_openblas_set_num_threads{suffix}'))\n"
            "        for library, suffix in (\n"
            "            (ctypes.CDLL(_compiled.extension('linalg', '_flapack').__file__), ''),\n"
            "            (ctypes.CDLL(importlib.import_module(\n"
            "                'numpy._core._multiarray_umath').__file__), '64_'),\n"
            "        )\n"
            "    ]\n"
            "except (ImportError, AttributeError):\n"
            "    sys.exit(print('no thread-count getters'))\n"
            "for _, set_threads in libraries:\n"
            "    set_threads(2)\n"
            "restore = harness._blas_on_one_thread()\n"
            "print([get() for get, _ in libraries], 'scipy.linalg' in sys.modules)\n"
            "restore()\n"
            "print([get() for get, _ in libraries])\n"
        )
        if out[0] == "no thread-count getters":
            pytest.skip("this BLAS build has no thread-count getters")
        assert out[:2] == ["[1, 1] False", "[2, 2]"]


class TestCsv:
    def test_wide_minimal(self, tmp_path):
        path = tmp_path / "wide.csv"
        path.write_text("id,t=0,t=1\ng1,0.5,0.25\n")
        series = ingest_csv(path)
        assert len(series) == 1
        assert len(series[0]) == 2
        assert np.array_equal(series[0].times, [0.0, 1.0])
        assert np.array_equal(series[0].values, [0.5, 0.25])
        assert series[0].id == "g1"

    def test_wide_plain_numeric_header(self, tmp_path):
        path = tmp_path / "wide.csv"
        path.write_text("id,0.0,1.5,3.0\na,1,2,3\nb,4,5,6\n")
        series = ingest_csv(path)
        assert [s.id for s in series] == ["a", "b"]
        assert np.array_equal(series[0].times, [0.0, 1.5, 3.0])

    def test_long_with_variance(self, tmp_path):
        path = tmp_path / "long.csv"
        path.write_text(
            "id,time,value,variance\n"
            "g1,0,0.1,0.01\n"
            "g1,1,0.2,0.02\n"
            "g2,0,0.3,0.03\n"
            "g2,2,0.4,0.04\n"
        )
        series = ingest_csv(path)
        assert [s.id for s in series] == ["g1", "g2"]
        assert np.array_equal(series[0].noise_variances, [0.01, 0.02])
        # fixed-noise fitting is usable straight from the file
        scenarios = make_expression_scenarios(series[0], "se")
        assert scenarios[2].noise_mode == "fixed"

    @pytest.mark.parametrize(
        "text",
        ["id,time,value,variance\ng1,0,0.1,0.01\ng1,1,0.2,0.02\ng2,0,0.3,\ng2,2,0.4,\n",
         "id,t=0,t=1.5\ng1,0.5,0.25\ng2,-1,2\n"],
    )
    def test_utf8_byte_order_mark_is_skipped(self, tmp_path, text):
        # Excel's "CSV UTF-8" export starts the file with a byte-order mark
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        plain.write_text(text, encoding="utf-8")
        marked.write_text(text, encoding="utf-8-sig")
        assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
        expected, got = ingest_csv(plain), ingest_csv(marked)
        assert [s.id for s in got] == [s.id for s in expected] == ["g1", "g2"]
        for a, b in zip(expected, got):
            assert np.array_equal(a.times, b.times) and np.array_equal(a.values, b.values)
            assert (a.noise_variances is None) == (b.noise_variances is None)
            if a.noise_variances is not None:
                assert np.array_equal(a.noise_variances, b.noise_variances)

    def test_round_trip(self, tmp_path):
        with_variances = [
            TimeSeries([0.0, 0.7, 2.0], [0.1, -0.2, 0.33], [0.01, 0.02, 0.03], id="a"),
            TimeSeries([0.5, 1.5], [1.0, 2.0], [0.1, 0.2], id="b"),
        ]
        # a series without variances beside one with them keeps none
        mixed = [with_variances[0], TimeSeries([0.5, 1.5], [1.0, 2.0], id="c")]
        for series_set in (with_variances, mixed):
            path = tmp_path / "out.csv"
            export_csv(series_set, path)
            back = ingest_csv(path)
            assert len(back) == 2
            for orig, new in zip(series_set, back):
                assert new.id == orig.id
                assert np.array_equal(new.times, orig.times)
                assert np.array_equal(new.values, orig.values)
                if orig.noise_variances is None:
                    assert new.noise_variances is None
                else:
                    assert np.array_equal(new.noise_variances, orig.noise_variances)

    def test_parse_error_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        for text in (
            "id,time,value\ng1,0,0.1\ng1,oops,0.2\n",
            # a series that mixes empty and numeric variance cells
            "id,time,value,variance\ng1,0,0.1,\ng1,1,0.2,0.02\n",
        ):
            path.write_text(text)
            with pytest.raises(CsvFormatError, match="line 3"):
                ingest_csv(path)

    def test_monotonicity_violation(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("id,time,value\ng1,1,0.1\ng1,0,0.2\n")
        with pytest.raises(CsvFormatError, match="strictly increasing"):
            ingest_csv(path)

    def test_missing_column(self, tmp_path):
        # a header naming time or value is long format, so a long header
        # without value says so rather than failing as a wide header
        path = tmp_path / "bad.csv"
        path.write_text("id,time\ng1,0\n")
        with pytest.raises(CsvFormatError, match=r"^line 1: long format .*, missing \['value'\]$"):
            ingest_csv(path)

    @pytest.mark.parametrize(
        "text, missing",
        [
            ("id,Value\ng1,0.5\n", "['time']"),
            ("ID,TIME,variance\ng1,0,0.1\n", "['value']"),
            ("name,time,value\ng1,0,0.5\n", "['id']"),
        ],
    )
    def test_header_with_time_or_value_is_long(self, tmp_path, text, missing):
        # either name, in any case, makes the header long
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(CsvFormatError, match=f"^line 1: long format .*, missing {re.escape(missing)}$"):
            ingest_csv(path)

    @pytest.mark.parametrize(
        "text, match",
        [
            ("id,t=0\ng1,0.5\n", "two time columns"),
            ("id,t=1,t=0\ng1,0.5,0.25\n", "header times must be strictly increasing"),
            ("id,t=0,t=1\ng1,0.5,0.25\ng2,0.5\n", "line 3: expected 3 cells, got 2"),
        ],
    )
    def test_wide_format_errors(self, tmp_path, text, match):
        path = tmp_path / "wide.csv"
        path.write_text(text)
        with pytest.raises(CsvFormatError, match=match):
            ingest_csv(path)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "text, match",
        [
            ("id,time,value\ng1,0,0.1\ng1,1,nan\n", "series 'g1': values must be finite"),
            ("id,time,value\ng1,0,0.1\ng1,1,inf\n", "series 'g1': values must be finite"),
            (
                "id,time,value,variance\ng1,0,0.1,0.05\ng1,1,0.2,-0.05\n",
                "series 'g1': noise_variances must be finite and >= 0",
            ),
            ("id,time,value\ng1,-1e308,0.1\ng1,1e308,0.2\n", "series 'g1': times must span"),
            ("id,time,value\ng1,1,0.1\ng1,0,0.2\n", "series 'g1': times must be strictly increasing"),
            ("id,t=0,t=1\ng1,0.5,0.25\ng2,nan,0.25\n", "line 3: series 'g2': values must be finite"),
            ("id,t=0,t=1\ng1,0.5,0.25\ng2,0.5,inf\n", "line 3: series 'g2': values must be finite"),
            ("id,t=-1e308,t=1e308\ng1,0.5,0.25\n", "line 1: wide-format header times must span"),
            ("id,t=1,t=0\ng1,0.5,0.25\n", "line 1: wide-format header times must be strictly increasing"),
            ("id,time,value\ng1,0,0.1\ng1,1e-320,0.2\n", "series 'g1': times must be at least"),
            ("id,t=0,t=1e-320\ng1,0.5,0.25\n", "line 1: wide-format header times must be at least"),
        ],
        ids=[
            "long-nan", "long-inf", "long-negative-variance", "long-span", "long-decreasing",
            "wide-nan", "wide-inf", "wide-span", "wide-decreasing", "long-subnormal-gap",
            "wide-subnormal-gap",
        ],
    )
    def test_series_rule_broken_names_series_or_line(self, tmp_path, text, match):
        # a TimeSeries rule is a CsvFormatError naming where it broke, with
        # no overflow warning on the way
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(CsvFormatError, match=f"^{match}"):
            ingest_csv(path)

    @pytest.mark.parametrize(
        "text",
        [
            "id,t=0,t=1\n\ng1,0.5,0.25\n , \n",
            "id,time,value\n\ng1,0,0.5\n , , \ng1,1,0.25\n",
        ],
    )
    def test_blank_rows_skipped(self, tmp_path, text):
        path = tmp_path / "blank.csv"
        path.write_text(text)
        [series] = ingest_csv(path)
        assert series.id == "g1"
        assert np.array_equal(series.times, [0.0, 1.0])
        assert np.array_equal(series.values, [0.5, 0.25])

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(CsvFormatError):
            ingest_csv(path)


class TestEmitReport:
    def test_empty_grid_header_only(self, tmp_path):
        report = BatchReport(scenario_labels=[], n_values=[], rows=[])
        files = emit_report(report, tmp_path / "out")
        table = [p for p in files if p.endswith("win_loglik.csv")][0]
        lines = open(table).read().strip().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("scenario")

    def test_table_layout_and_round_trip(self, tmp_path):
        cfg = SyntheticConfig(replicates=5, seed=4, restarts=2)
        report = run_synthetic_experiment(cfg, [5, 7])
        out = tmp_path / "report"
        emit_report(report, out)
        with open(out / "win_loglik.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["scenario", "n=5", "n=7"]
        assert [r[0] for r in rows[1:]] == [
            "no_bounds",
            "lengthscale_bounded",
            "noise_bounded",
            "both_bounded",
        ]
        for label, row in zip(report.scenario_labels, rows[1:]):
            for n, cell in zip([5, 7], row[1:]):
                assert abs(float(cell) - report.cell(label, n).win_fraction_loglik) <= 5e-5

    def test_aggregates_recomputable_from_raw(self, tmp_path):
        cfg = SyntheticConfig(replicates=6, seed=6, restarts=2)
        report = run_synthetic_experiment(cfg, [5])
        out = tmp_path / "report"
        emit_report(report, out)
        with open(out / "replicates.csv") as fh:
            raw = list(csv.DictReader(fh))
        for label in report.scenario_labels:
            ok = [r for r in raw if r["scenario"] == label and r["failed"] == "0"]
            frac = sum(r["flag_short_length_scale"] == "1" for r in ok) / len(ok)
            assert frac == report.cell(label, 5).overfit_fraction_lengthscale
            eligible = [r for r in raw if r["scenario"] == label and r["all_scenarios_ok"] == "1"]
            win = sum(r["win_loglik"] == "1" for r in eligible) / len(eligible)
            assert win == report.cell(label, 5).win_fraction_loglik

    def test_expression_report_impossible_cells(self, tmp_path):
        series = TimeSeries(
            np.linspace(0.0, 6.0, 7),
            sinc(np.linspace(0.0, 6.0, 7)) + 0.01,
            noise_variances=np.full(7, 0.04),
            id="g1",
        )
        report = run_batch([series], scenario_set="expression", restarts=2)
        out = tmp_path / "report"
        emit_report(report, out)
        with open(out / "overfit_lengthscale.csv") as fh:
            rows = {r[0]: r[1] for r in list(csv.reader(fh))[1:]}
        assert rows["lengthscale_bounded"] == "."
        assert rows["both_bounded"] == "."
        assert rows["no_bounds"] != "."
        with open(out / "overfit_noise.csv") as fh:
            rows = {r[0]: r[1] for r in list(csv.reader(fh))[1:]}
        assert rows["noise_fixed"] == "."
        assert rows["both_bounded"] == "."

    def test_floor_below_the_bound_keeps_its_lengthscale_cell(self, tmp_path):
        # a floor under the Nyquist bound cannot stop the length-scale flag,
        # so its cell is the flagged fraction, not "."
        rng = np.random.default_rng(3)
        t = np.arange(7.0)
        series = [
            TimeSeries(t, np.sin(1.3 * t) + rng.normal(0.0, 0.3, 7), id=f"s{i}")
            for i in range(8)
        ]
        scenarios = [Scenario("free"), Scenario("low_floor", length_scale_lower=0.05)]
        report = run_batch(series, scenario_set=scenarios, restarts=3)
        emit_report(report, tmp_path / "report")
        with open(tmp_path / "report" / "overfit_lengthscale.csv") as fh:
            rows = {r[0]: r[1] for r in list(csv.reader(fh))[1:]}
        flagged = report.cell("low_floor").overfit_fraction_lengthscale
        assert flagged > 0.0
        assert rows["low_floor"] == f"{flagged:.4f}"


class TestEmitPlotdata:
    def test_columns_and_interpolation(self, tmp_path):
        t = np.linspace(0.0, 4.0, 5)
        series = TimeSeries(t, np.sin(t), noise_variances=np.zeros(5), id="s")
        scenario = Scenario("fx", noise_mode="fixed")
        result = fit(series, "se", scenario, restarts=2)
        path = tmp_path / "plot.csv"
        emit_fit_plotdata(series, result, path, resolution=50)
        with open(path) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 55
        train_rows = [r for r in rows if r["is_training_point"] == "1"]
        assert len(train_rows) == 5
        for r in train_rows:
            assert abs(float(r["latent_sd"])) <= 1e-4  # zero-noise interpolation
            assert r["training_value"] != ""
        for r in rows:
            assert float(r["observed_sd"]) >= float(r["latent_sd"])
        times = [float(r["time"]) for r in rows]
        assert times == sorted(times)

    def test_grid_matches_posterior_call(self, tmp_path):
        t = np.linspace(0.0, 4.0, 6)
        series = TimeSeries(t, np.cos(t), id="s")
        scenario = Scenario("free")
        result = fit(series, "se", scenario, restarts=2)
        path = tmp_path / "plot.csv"
        emit_fit_plotdata(series, result, path, resolution=20)
        with open(path) as fh:
            rows = list(csv.DictReader(fh))
        grid_rows = [r for r in rows if r["is_training_point"] == "0"]
        times = np.array([float(r["time"]) for r in grid_rows])
        post = posterior_at(
            series, result.kernel, NoiseModel.estimated(result.noise_variance), times
        )
        for r, m, v in zip(grid_rows, post.mean, post.variance_latent):
            assert abs(float(r["mean"]) - m) <= 1e-12
            assert abs(float(r["latent_sd"]) - math.sqrt(max(v, 0.0))) <= 1e-12


class TestConfigFile:
    def test_load_and_build(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "# benchmark at desk scale\n"
            "replicates = 12\n"
            "seed = 9\n"
            "noise_variance = 0.04\n"
            "interval_lo = -4\n"
            "interval_hi = 4\n"
            "test_lo = -5\n"
            "test_hi = 3\n"
            "test_count = 8\n"
            "n_grid = 5,7\n"
            "restarts = 2\n"
        )
        mapping = load_config(path)
        config = config_from_mapping(mapping)
        assert config.replicates == 12
        assert config.seed == 9
        assert config.interval == (-4.0, 4.0)
        assert config.test_grid == (-5.0, 3.0, 8)
        assert config.restarts == 2
        assert mapping["n_grid"] == "5,7"

    def test_utf8_byte_order_mark_is_skipped(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("replicates = 12\nfamily = matern\n", encoding="utf-8-sig")
        assert load_config(path) == {"replicates": 12, "family": "matern"}

    def test_every_field_settable(self, tmp_path):
        from dataclasses import fields

        path = tmp_path / "run.cfg"
        path.write_text(
            "n_points = 9\n"
            "interval_lo = -4\n"
            "interval_hi = 4.5\n"
            "noise_variance = 0.04\n"
            "replicates = 12\n"
            "test_lo = -5\n"
            "test_hi = 3\n"
            "test_count = 8\n"
            "seed = 9\n"
            "family = matern\n"
            "nu = 1.5\n"
            "alpha = 0.95\n"
            "noise_bound_lo = 0.02\n"
            "noise_bound_hi = 0.2\n"
            "restarts = 2\n"
            "loglik_threshold = -10\n"
            "mse_threshold = 0.2\n"
            "noise_flag_threshold = 0.001\n"
        )
        config = config_from_mapping(load_config(path))
        expected = SyntheticConfig(
            n_points=9,
            interval=(-4.0, 4.5),
            noise_variance=0.04,
            replicates=12,
            test_grid=(-5.0, 3.0, 8),
            seed=9,
            family="matern",
            nu=1.5,
            alpha=0.95,
            noise_bounds=(0.02, 0.2),
            restarts=2,
            loglik_threshold=-10.0,
            mse_threshold=0.2,
            noise_flag_threshold=0.001,
        )
        assert config == expected
        default = SyntheticConfig()
        for f in fields(SyntheticConfig):
            assert getattr(config, f.name) != getattr(default, f.name), f.name
        assert isinstance(config.test_grid[2], int)

    def test_partial_tuple_keys_keep_defaults(self):
        config = config_from_mapping({"interval_hi": "8", "test_count": "4"})
        assert config.interval == (-5.0, 8.0)
        assert config.test_grid == (-6.0, 5.0, 4)

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("replicas = 12\n")
        with pytest.raises(CsvFormatError, match="unknown config key"):
            load_config(path)

    def test_line_without_equals_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("# a comment\n\nreplicates 12\n")
        with pytest.raises(CsvFormatError, match="line 3: expected 'key = value'"):
            load_config(path)

    def test_bad_value_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("replicates = soon\n")
        with pytest.raises(CsvFormatError, match="line 1"):
            load_config(path)
