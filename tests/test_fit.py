import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.optimize

from shortgp import fitting
from shortgp.bound import delta_t_from_times, length_scale_bound
from shortgp.fitting import (
    AllStartsFailedError,
    Diagnostics,
    Scenario,
    diagnose,
    fit,
    make_expression_scenarios,
    make_scenarios,
)
from shortgp.harness import generate_sinc_series, SyntheticConfig
from shortgp.kernels import FactorizationError
from shortgp.series import TimeSeries


def _sinc_series(n=7, rep=0, seed=0, noise=0.09):
    return generate_sinc_series(
        SyntheticConfig(n_points=n, seed=seed, noise_variance=noise), rep
    )


class TestScenario:
    def test_validation(self):
        with pytest.raises(ValueError):
            Scenario("bad", length_scale_lower=-1.0)
        with pytest.raises(ValueError):
            Scenario("bad", length_scale_lower=2.0, length_scale_upper=1.0)
        with pytest.raises(ValueError):
            Scenario("bad", noise_mode="bounded")
        with pytest.raises(ValueError):
            Scenario("bad", noise_mode="bounded", noise_lower=0.1, noise_upper=0.01)
        with pytest.raises(ValueError):
            Scenario("bad", noise_mode="sometimes")
        with pytest.raises(ValueError):
            Scenario("bad", alpha=1.5)


_ESTIMATED = Scenario("estimated", 1.0, 5.0)
_BOUNDED = Scenario("bounded", 1.0, 5.0, "bounded", 0.01, 0.1)
_FIXED = Scenario("fixed", 1.0, 5.0, "fixed")


class TestScenarioBox:
    @pytest.mark.parametrize(
        "scenario, box",
        [
            (_ESTIMATED, ((1.0, 5.0), (0.0, math.inf))),
            (_BOUNDED, ((1.0, 5.0), (0.01, 0.1))),
            (_FIXED, ((1.0, 5.0),)),
            (Scenario("free"), ((0.0, math.inf), (0.0, math.inf))),
        ],
    )
    def test_box(self, scenario, box):
        assert scenario.box == box

    @pytest.mark.parametrize(
        "scenario, length_scale, noise_variance, inside",
        [
            # the length-scale faces, and just outside them
            (_ESTIMATED, 1.0, 0.05, True),
            (_ESTIMATED, 5.0, 0.05, True),
            (_ESTIMATED, math.nextafter(1.0, -math.inf), 0.05, False),
            (_ESTIMATED, math.nextafter(5.0, math.inf), 0.05, False),
            (_BOUNDED, 1.0, 0.05, True),
            (_BOUNDED, 5.0, 0.05, True),
            (_BOUNDED, math.nextafter(1.0, -math.inf), 0.05, False),
            (_BOUNDED, math.nextafter(5.0, math.inf), 0.05, False),
            (_FIXED, 1.0, None, True),
            (_FIXED, 5.0, None, True),
            (_FIXED, math.nextafter(1.0, -math.inf), None, False),
            (_FIXED, math.nextafter(5.0, math.inf), None, False),
            # the noise faces, and just outside them
            (_BOUNDED, 2.0, 0.01, True),
            (_BOUNDED, 2.0, 0.1, True),
            (_BOUNDED, 2.0, math.nextafter(0.01, -math.inf), False),
            (_BOUNDED, 2.0, math.nextafter(0.1, math.inf), False),
            (_ESTIMATED, 2.0, 1e-300, True),
            (_ESTIMATED, 2.0, 1e300, True),
            # the series' own fixed noise (None) against an estimated one
            (_ESTIMATED, 2.0, None, False),
            (_BOUNDED, 2.0, None, False),
            (_FIXED, 2.0, 0.05, False),
        ],
    )
    def test_holds(self, scenario, length_scale, noise_variance, inside):
        assert scenario.holds(length_scale, noise_variance) is inside

    @pytest.mark.parametrize(
        "scenario, length_scale, noise_variance, active",
        [
            (_ESTIMATED, 1.0, 1e-300, (True, False)),
            (_ESTIMATED, 1.0 + 2e-6, 0.05, (False, False)),
            (_BOUNDED, 1.0 + 1e-7, 0.01, (True, True)),
            (_BOUNDED, 2.0, 0.01 * (1.0 + 1e-7), (False, True)),
            (_BOUNDED, 2.0, 0.01 * (1.0 + 2e-6), (False, False)),
            (_FIXED, 1.0, None, (True, False)),
            (_FIXED, 2.0, None, (False, False)),
            (Scenario("free"), 1e-300, 1e-300, (False, False)),
        ],
    )
    def test_lower_bounds_active(self, scenario, length_scale, noise_variance, active):
        flags = fitting.lower_bounds_active(scenario, length_scale, noise_variance)
        assert flags == dict(zip(("length_scale", "noise_variance"), active))


class TestMakeScenarios:
    def test_four_benchmark_configurations(self):
        series = _sinc_series(n=7)
        scenarios = make_scenarios(series, "se")
        assert [s.label for s in scenarios] == [
            "no_bounds",
            "lengthscale_bounded",
            "noise_bounded",
            "both_bounded",
        ]
        # scenario 1: positivity only
        assert scenarios[0].length_scale_lower == 0.0
        assert scenarios[0].noise_mode == "estimated"
        # scenario 2 lower bound at the benchmark sampling interval
        assert abs(scenarios[1].length_scale_lower - 1.5032) <= 1e-3
        # scenario 4 carries both constraints
        assert scenarios[3].length_scale_lower == scenarios[1].length_scale_lower
        assert scenarios[3].noise_mode == "bounded"
        assert scenarios[3].noise_lower == 0.01
        assert scenarios[3].noise_upper == 0.1

    def test_expression_variant_fixes_noise(self):
        series = TimeSeries(
            [0.0, 1.0, 2.0, 4.0],
            [0.1, 0.2, -0.1, 0.3],
            noise_variances=[0.05, 0.05, 0.08, 0.05],
        )
        scenarios = make_expression_scenarios(series, "se")
        assert scenarios[2].noise_mode == "fixed"
        assert scenarios[3].noise_mode == "fixed"
        assert scenarios[3].length_scale_lower > 0.0


class TestFit:
    def test_lengthscale_bound_respected(self):
        series = _sinc_series(n=7, rep=1)
        scenarios = make_scenarios(series, "se")
        for rep_seed in range(5):
            result = fit(series, "se", scenarios[1], seed=rep_seed)
            assert result.kernel.length_scale >= scenarios[1].length_scale_lower

    def test_noise_box_respected(self):
        series = _sinc_series(n=7, rep=2)
        scenarios = make_scenarios(series, "se")
        result = fit(series, "se", scenarios[2], seed=0)
        assert 0.01 <= result.noise_variance <= 0.1

    def test_overfit_regime_reproduced(self):
        # the benchmark data regime: a substantial share of unconstrained
        # fits collapses to short length-scales and near-zero noise (the
        # shorter the series, the larger the short-length-scale share)
        counts = {}
        for n in (5, 7):
            a_l = length_scale_bound("se", 0.99, 11.0 / (n - 1))
            short = tiny = 0
            for rep in range(40):
                series = _sinc_series(n=n, rep=rep)
                result = fit(series, "se", make_scenarios(series, "se")[0], seed=rep)
                if result.kernel.length_scale < a_l:
                    short += 1
                if result.noise_variance < 1e-4:
                    tiny += 1
            counts[n] = (short, tiny)
        assert counts[5][0] >= 16  # at least 40% short length-scales at n=5
        assert counts[5][1] >= 8
        assert counts[7][0] >= 3
        assert counts[7][1] >= 8

    def test_reoptimization_stability(self):
        # noiseless linear trend, tight noise box: restarting from the
        # returned optimum must not move the likelihood
        series = TimeSeries(
            [0.0, 1.0, 2.0, 3.0, 4.0], [0.0, 0.1, 0.2, 0.3, 0.4]
        )
        scenario = Scenario(
            "tight", noise_mode="bounded", noise_lower=1e-4, noise_upper=1e-3
        )
        first = fit(series, "se", scenario, seed=0)
        again = fit(
            series,
            "se",
            scenario,
            seed=0,
            restarts=0,
            extra_starts=[
                (
                    first.kernel.signal_variance,
                    first.kernel.length_scale,
                    first.noise_variance,
                )
            ],
        )
        assert abs(again.log_marginal_likelihood - first.log_marginal_likelihood) < 1e-6

    def test_determinism(self):
        series = _sinc_series(n=9, rep=3)
        scenario = make_scenarios(series, "se")[3]
        a = fit(series, "se", scenario, seed=42)
        b = fit(series, "se", scenario, seed=42)
        assert a.kernel == b.kernel
        assert a.noise_variance == b.noise_variance
        assert a.log_marginal_likelihood == b.log_marginal_likelihood
        assert a.bound_lower_active == b.bound_lower_active

    def test_monotone_nesting_of_constrained_optima(self):
        # the unconstrained feasible set contains the constrained one;
        # warm-start the free fit with the constrained optimum so the
        # comparison tests the sets, not multi-start luck
        for rep in range(10):
            series = _sinc_series(n=7, rep=rep)
            scenarios = make_scenarios(series, "se")
            for constrained in scenarios[1:]:
                con = fit(series, "se", constrained, seed=rep)
                free = fit(
                    series,
                    "se",
                    scenarios[0],
                    seed=rep,
                    extra_starts=[
                        (
                            con.kernel.signal_variance,
                            con.kernel.length_scale,
                            con.noise_variance if con.noise_variance else 0.05,
                        )
                    ],
                )
                assert (
                    free.log_marginal_likelihood
                    >= con.log_marginal_likelihood - 1e-8
                )

    def test_more_restarts_never_lose(self):
        series = _sinc_series(n=7, rep=4)
        scenario = make_scenarios(series, "se")[0]
        few = fit(series, "se", scenario, seed=1, restarts=2)
        many = fit(series, "se", scenario, seed=1, restarts=5)
        assert many.log_marginal_likelihood >= few.log_marginal_likelihood - 1e-12

    def test_box_exactness_random_scenarios(self):
        rng = np.random.default_rng(17)
        series = _sinc_series(n=9, rep=5)
        for _ in range(10):
            lo = float(np.exp(rng.uniform(-1.0, 1.0)))
            scenario = Scenario(
                "boxed",
                length_scale_lower=lo,
                length_scale_upper=lo * float(np.exp(rng.uniform(0.5, 2.0))),
                noise_mode="bounded",
                noise_lower=0.005,
                noise_upper=0.5,
            )
            result = fit(series, "se", scenario, seed=int(rng.integers(0, 100)))
            assert scenario.length_scale_lower <= result.kernel.length_scale
            assert result.kernel.length_scale <= scenario.length_scale_upper
            assert scenario.noise_lower <= result.noise_variance <= scenario.noise_upper

    def test_matern_families(self):
        series = _sinc_series(n=9, rep=6)
        scenario = make_scenarios(series, "matern", nu=1.5)[3]
        result = fit(series, "matern", scenario, seed=0, nu=1.5)
        assert result.kernel.family == "matern"
        assert result.kernel.nu == 1.5
        assert math.isfinite(result.log_marginal_likelihood)

    def test_invalid_inputs(self):
        series = _sinc_series(n=5)
        scenario = make_scenarios(series, "se")[0]
        with pytest.raises(ValueError):
            fit(TimeSeries([0.0], [1.0]), "se", scenario, seed=0)
        with pytest.raises(ValueError):
            fit(series, "matern", scenario, seed=0, nu=3.7)  # unsupported order
        with pytest.raises(ValueError):
            fit(series, "cubic", scenario, seed=0)
        fixed = Scenario("fx", noise_mode="fixed")
        with pytest.raises(ValueError):
            fit(series, "se", fixed, seed=0)  # series has no variances

    @pytest.mark.parametrize(
        "value, upper, unbounded",
        [(0.1, math.inf, True), (0.0, math.inf, True), (0.0, 2.0, True), (0.1, 2.0, False)],
    )
    def test_constant_series_under_estimated_noise(self, value, upper, unbounded):
        # the likelihood grows without bound as sn2 -> 0 and l -> inf, or,
        # for y = 0, as sf2 and sn2 -> 0; a finite l box on a nonzero
        # constant keeps it bounded
        series = TimeSeries(np.linspace(0.0, 6.0, 7), np.full(7, value))
        scenario = Scenario("x", 0.0, upper)
        if unbounded:
            with pytest.raises(ValueError, match="constant series"):
                fit(series, "se", scenario, seed=0)
        else:
            assert math.isfinite(fit(series, "se", scenario, seed=0).log_marginal_likelihood)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_tiny_matern_length_scales_warn_nothing(self):
        # these fits probe l near e^-230, where dK/dl overflows before the
        # kernel masks it
        base = _sinc_series(n=15, rep=3)
        series = TimeSeries(base.times, base.values, np.full(15, 0.09))
        scenarios = make_scenarios(series, "matern", nu=2.5)
        scenarios += make_expression_scenarios(series, "matern", nu=2.5)
        for scenario in scenarios:
            fit(series, "matern", scenario, seed=15, nu=2.5)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_far_sampled_matern_fits(self):
        # Sampled 1e60 apart, these fits probe l where u^2 in K overflows
        # while the decay underflows: K is 0 there, not inf * 0 = NaN, which
        # the factorization rejected with a ValueError.
        base = _sinc_series(n=15, rep=3)
        series = TimeSeries(base.times * 1e60, base.values, np.full(15, 0.09))
        scenario = make_scenarios(series, "matern", nu=2.5)[2]
        result = fit(series, "matern", scenario, seed=15, nu=2.5)
        assert scenario.holds(result.kernel.length_scale, result.noise_variance)
        assert math.isfinite(result.log_marginal_likelihood)

    def test_all_starts_failed(self, monkeypatch):
        _force_factorization_errors(monkeypatch)
        series = _sinc_series(n=5)
        scenario = make_scenarios(series, "se")[0]
        with pytest.raises(AllStartsFailedError):
            fit(series, "se", scenario, seed=0)

    def test_non_finite_steps_are_failed_evaluations(self, monkeypatch):
        # At this scale the likelihood's gradient overflows, and L-BFGS-B
        # steps to NaN z; those must be failed evaluations, not errors.
        lockstep = fitting._minimize_lockstep
        asked, objectives = [], []

        def recorder(fun_batch, x0s, boxes):
            def batch(members, xs):
                outs = fun_batch(members, xs)
                asked.extend(zip(xs, outs))
                return outs

            objectives.append(fun_batch)
            return lockstep(batch, x0s, boxes)

        monkeypatch.setattr(fitting, "_minimize_lockstep", recorder)
        t = np.arange(7.0)
        series = TimeSeries(t, np.sin(t) * 1e140)
        with pytest.raises(AllStartsFailedError):
            fit(series, "se", make_scenarios(series, "se")[0], seed=0)
        nan = [out for x, out in asked if np.isnan(x).any()]
        assert nan
        for value, grad in nan:
            assert value == fitting._FAILED_OBJECTIVE and not grad.any()

        # An infinite coordinate is no failure: it is evaluated at
        # exp(+-230), as any z beyond 230 in size is, alone and in a batch.
        series = _sinc_series(n=5)
        fit(series, "se", make_scenarios(series, "se")[0], seed=0)
        objective = objectives[-1]
        for far in (-math.inf, math.inf):
            z = np.array([far, 0.0, -2.0])
            clamped = np.array([math.copysign(230.0, far), 0.0, -2.0])
            outs = objective([0], [z]) + objective([0], [clamped])
            outs += objective([0, 1], [z, clamped])
            for value, grad in outs[1:]:
                assert value == outs[0][0]
                assert grad.tobytes() == outs[0][1].tobytes()
            if far < 0:
                assert outs[0][0] < fitting._FAILED_OBJECTIVE * 0.5

    def test_overflowing_length_scales_are_failed_evaluations(self):
        # Sampled 1e120 apart, the length-scale floor of the bounded
        # scenarios, about 8.2e119, cubed overflows a float; alone and in a
        # batch, such an evaluation is a failed one.  Without a floor, the
        # length-scale stops at e^230 and fits.
        series = TimeSeries(np.arange(5.0) * 1e120, [0.1, 0.5, -0.2, 0.3, 0.0])
        free, floored, noise_bounded, both = make_scenarios(series, "se")
        for scenario in (floored, both):
            with pytest.raises(AllStartsFailedError):
                fit(series, "se", scenario, seed=0)
        for scenario in (free, noise_bounded):
            assert fit(series, "se", scenario, seed=0).kernel.length_scale == math.exp(230.0)
        # Under Matern 1/2, whose l^2 overflows only beyond about 1.3e154,
        # the floored scenarios fit: a z beyond 230 inside a box that lies
        # beyond e^230 maps onto the box, not to e^230 below its floor.
        for scenario in make_scenarios(series, "matern", nu=0.5):
            result = fit(series, "matern", scenario, seed=0, nu=0.5)
            assert scenario.holds(result.kernel.length_scale, result.noise_variance)

    def test_bound_activity_flag(self):
        series = _sinc_series(n=5, rep=7)
        scenarios = make_scenarios(series, "se")
        result = fit(series, "se", scenarios[3], seed=0)
        active = result.bound_lower_active["length_scale"]
        at_bound = (
            result.kernel.length_scale - scenarios[3].length_scale_lower
        ) <= 1e-6 * scenarios[3].length_scale_lower
        assert active == at_bound

    def test_active_lower_bounds_are_exact(self):
        # a length-scale or bounded noise variance within a relative 1e-6 of
        # its lower bound is that bound, not a point just short of it
        near = 0
        for n in (5, 7, 9):
            for rep in range(10):
                series = _sinc_series(n=n, rep=rep)
                for scenario in make_scenarios(series, "se")[1:]:
                    result = fit(series, "se", scenario, seed=rep)
                    pairs = [(result.kernel.length_scale, scenario.length_scale_lower)]
                    if scenario.noise_mode == "bounded":
                        pairs.append((result.noise_variance, scenario.noise_lower))
                    for value, lower in pairs:
                        if lower > 0.0 and value - lower <= 1e-6 * lower:
                            near += 1
                            assert value == lower
        assert near > 0


def _force_factorization_errors(monkeypatch):
    """Make every likelihood evaluation fail to factor K, on both paths: the
    per-call path raises FactorizationError, and the batched path's dpotrf
    reports a matrix that is not positive definite, which hands each member
    to the per-call path."""
    from shortgp import gp as gp_module

    def boom(*args, **kwargs):
        raise FactorizationError("forced")

    def not_positive_definite(a, **kwargs):
        return np.array(a, order="F"), 1

    monkeypatch.setattr(gp_module, "log_marginal_likelihood_and_gradient", boom)
    monkeypatch.setattr(gp_module, "dpotrf", not_positive_definite)


class TestDriverMatchesScipyMinimize:
    """``fit`` drives L-BFGS-B's ``setulb`` itself, with its restarts in
    lockstep over a batched objective; every run must equal
    scipy.optimize.minimize's L-BFGS-B run from the same start in the same
    box on the one-point objective, bit for bit."""

    @pytest.fixture
    def runs(self, monkeypatch):
        lockstep = fitting._minimize_lockstep
        recorded = []

        def recorder(fun_batch, x0s, boxes):
            results = lockstep(fun_batch, x0s, boxes)
            for member, (ours, x0, bounds) in enumerate(zip(results, x0s, boxes)):
                ref = scipy.optimize.minimize(
                    lambda x: fun_batch([member], [x])[0],
                    x0,
                    jac=True,
                    method="L-BFGS-B",
                    bounds=bounds,
                    options={
                        "maxiter": fitting._MAX_ITER,
                        "ftol": fitting._OBJ_REL_TOL,
                        "gtol": fitting._GRAD_TOL,
                    },
                )
                recorded.append((ours, ref, bounds))
            return results

        monkeypatch.setattr(fitting, "_minimize_lockstep", recorder)
        return recorded

    @staticmethod
    def _assert_same(runs):
        assert runs
        for ours, ref, _ in runs:
            assert ours.x.tobytes() == ref.x.tobytes()
            assert ours.fun == ref.fun
            assert ours.nit == ref.nit
            assert ours.nfev == ref.nfev
            assert ours.success == ref.success

    @pytest.mark.parametrize("n", [5, 15])
    @pytest.mark.parametrize(
        "family, nu", [("se", None), ("matern", 0.5), ("matern", 1.5), ("matern", 2.5)]
    )
    def test_every_scenario(self, runs, family, nu, n):
        base = _sinc_series(n=n, rep=3)
        series = TimeSeries(base.times, base.values, np.full(n, 0.09))
        scenarios = make_scenarios(series, family, nu=nu)
        scenarios += make_expression_scenarios(series, family, nu=nu)
        for scenario in scenarios:
            fit(series, family, scenario, seed=n, nu=nu)
        assert len(runs) == len(scenarios) * 5
        self._assert_same(runs)

    @pytest.mark.parametrize("family, nu", [("se", None), ("matern", 1.5)])
    @pytest.mark.parametrize("build, k", [(make_scenarios, 1), (make_expression_scenarios, 2)])
    def test_members_from_several_series(self, runs, family, nu, build, k):
        # one lockstep over the restarts of four series of 7 points, under
        # one scenario each
        series = [_sinc_series(n=7, rep=rep) for rep in range(4)]
        series = [TimeSeries(s.times, s.values, np.full(7, 0.09)) for s in series]
        problems = [(s, build(s, family, nu=nu)[k], seed) for seed, s in enumerate(series)]
        results = fitting._fit_problems(problems, family, nu, 5)
        assert len(runs) == len(problems) * 5
        self._assert_same(runs)
        for (s, scenario, seed), result in zip(problems, results):
            assert result == fit(s, family, scenario, seed=seed, nu=nu)

    def test_every_evaluation_failed(self, runs, monkeypatch):
        _force_factorization_errors(monkeypatch)
        series = _sinc_series(n=5)
        with pytest.raises(AllStartsFailedError):
            fit(series, "se", make_scenarios(series, "se")[0], seed=0)
        assert len(runs) == 5
        assert all(ours.fun == fitting._FAILED_OBJECTIVE for ours, _, _ in runs)
        self._assert_same(runs)

    def test_optimum_on_a_lower_bound(self, runs):
        series = _sinc_series(n=5, rep=0)
        scenarios = make_scenarios(series, "se")
        for scenario, name, i in (
            (scenarios[1], "length_scale", 1),
            (scenarios[2], "noise_variance", 2),
        ):
            runs.clear()
            assert fit(series, "se", scenario, seed=0).bound_lower_active[name]
            assert any(ours.x[i] == bounds[i][0] for ours, _, bounds in runs)
            self._assert_same(runs)

    def test_iteration_cap(self, runs, monkeypatch):
        monkeypatch.setattr(fitting, "_MAX_ITER", 3)
        series = _sinc_series(n=9, rep=2)
        fit(series, "se", make_scenarios(series, "se")[0], seed=2)
        assert all(not ours.success and ours.nit == 3 for ours, _, _ in runs)
        self._assert_same(runs)


class TestDiagnose:
    def test_short_length_scale_flag(self):
        series = _sinc_series(n=7)
        sampling = delta_t_from_times(series.times)
        a_l = length_scale_bound("se", 0.99, sampling.delta_t)
        scenario = make_scenarios(series, "se")[0]
        result = fit(series, "se", scenario, seed=0)
        forced = replace(result.kernel, length_scale=0.5 * a_l)
        diag = diagnose(
            type(result)(
                kernel=forced,
                noise_variance=result.noise_variance,
                log_marginal_likelihood=result.log_marginal_likelihood,
                bound_lower_active=result.bound_lower_active,
                restarts_used=result.restarts_used,
                converged=result.converged,
            ),
            sampling,
        )
        assert diag.length_scale_below_bound
        assert abs(diag.thresholds["length_scale_lower"] - a_l) <= 1e-12

    def test_threshold_selects_flag(self):
        series = _sinc_series(n=7)
        sampling = delta_t_from_times(series.times)
        scenario = make_scenarios(series, "se")[2]
        result = fit(series, "se", scenario, seed=0)
        fudged = type(result)(
            kernel=result.kernel,
            noise_variance=0.005,
            log_marginal_likelihood=result.log_marginal_likelihood,
            bound_lower_active=result.bound_lower_active,
            restarts_used=result.restarts_used,
            converged=result.converged,
        )
        assert diagnose(fudged, sampling, noise_threshold=1e-2).tiny_noise
        assert not diagnose(fudged, sampling, noise_threshold=1e-4).tiny_noise

    def test_bounded_scenarios_cannot_flag(self):
        # constraint construction makes both flags impossible
        series = _sinc_series(n=7, rep=8)
        sampling = delta_t_from_times(series.times)
        scenario = make_scenarios(series, "se")[3]
        for seed in range(5):
            result = fit(series, "se", scenario, seed=seed)
            diag = diagnose(result, sampling, noise_threshold=1e-4)
            assert not diag.length_scale_below_bound
            assert not diag.tiny_noise

    def test_fixed_noise_never_tiny(self):
        series = TimeSeries(
            [0.0, 1.0, 2.0, 3.0],
            [0.0, 0.5, -0.5, 0.2],
            noise_variances=np.full(4, 1e-6),
        )
        sampling = delta_t_from_times(series.times)
        scenario = make_expression_scenarios(series, "se")[3]
        result = fit(series, "se", scenario, seed=0)
        assert result.noise_variance is None
        diag = diagnose(result, sampling, noise_threshold=1e-2)
        assert not diag.tiny_noise
        assert isinstance(diag, Diagnostics)
