import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.optimize

from shortgp import fitting, gp
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
        result = fit(series, "se", scenarios[1])
        assert result.kernel.length_scale >= scenarios[1].length_scale_lower

    def test_noise_box_respected(self):
        series = _sinc_series(n=7, rep=2)
        scenarios = make_scenarios(series, "se")
        result = fit(series, "se", scenarios[2])
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
                result = fit(series, "se", make_scenarios(series, "se")[0])
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
        first = fit(series, "se", scenario)
        again = fit(
            series,
            "se",
            scenario,
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
        a = fit(series, "se", scenario)
        b = fit(series, "se", scenario)
        assert a.kernel == b.kernel
        assert a.noise_variance == b.noise_variance
        assert a.log_marginal_likelihood == b.log_marginal_likelihood
        assert a.bound_lower_active == b.bound_lower_active

    def test_monotone_nesting_of_constrained_optima(self):
        # the unconstrained feasible set contains the constrained one;
        # warm-start the free fit with the constrained optimum so the
        # comparison tests the sets, not where one ascent stops
        for rep in range(10):
            series = _sinc_series(n=7, rep=rep)
            scenarios = make_scenarios(series, "se")
            for constrained in scenarios[1:]:
                con = fit(series, "se", constrained)
                free = fit(
                    series,
                    "se",
                    scenarios[0],
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
        # a fixed-noise fit starts from its grid argmax too, so more
        # restarts add no start and cannot lose
        base = _sinc_series(n=7, rep=4)
        series = TimeSeries(base.times, base.values, np.full(7, 0.09))
        scenario = make_expression_scenarios(series, "se")[2]
        few = fit(series, "se", scenario, restarts=2)
        many = fit(series, "se", scenario, restarts=5)
        assert (few.restarts_used, many.restarts_used) == (1, 1)
        assert many.log_marginal_likelihood >= few.log_marginal_likelihood - 1e-12

    def test_restarts_and_seed_leave_grid_started_fits_alone(self):
        # every fit starts from its grid argmax alone, whatever the noise
        base = _sinc_series(n=7, rep=4)
        series = TimeSeries(base.times, base.values, np.full(7, 0.09))
        scenarios = make_scenarios(series, "se") + make_expression_scenarios(series, "se")
        for scenario in scenarios:
            one = fit(series, "se", scenario, restarts=1)
            assert one.restarts_used == 1
            assert fit(series, "se", scenario, restarts=5) == one
            assert fit(series, "se", scenario, restarts=0) == one
            assert fit(series, "se", scenario) == one

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
            rng.integers(0, 100)  # one more draw per box, so the boxes stay as drawn
            result = fit(series, "se", scenario)
            assert scenario.length_scale_lower <= result.kernel.length_scale
            assert result.kernel.length_scale <= scenario.length_scale_upper
            assert scenario.noise_lower <= result.noise_variance <= scenario.noise_upper

    def test_matern_families(self):
        series = _sinc_series(n=9, rep=6)
        scenario = make_scenarios(series, "matern", nu=1.5)[3]
        result = fit(series, "matern", scenario, nu=1.5)
        assert result.kernel.family == "matern"
        assert result.kernel.nu == 1.5
        assert math.isfinite(result.log_marginal_likelihood)

    def test_invalid_inputs(self):
        series = _sinc_series(n=5)
        scenario = make_scenarios(series, "se")[0]
        with pytest.raises(ValueError):
            fit(TimeSeries([0.0], [1.0]), "se", scenario)
        with pytest.raises(ValueError):
            fit(series, "matern", scenario, nu=3.7)  # unsupported order
        with pytest.raises(ValueError):
            fit(series, "cubic", scenario)
        fixed = Scenario("fx", noise_mode="fixed")
        with pytest.raises(ValueError):
            fit(series, "se", fixed)  # series has no variances

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
                fit(series, "se", scenario)
        else:
            assert math.isfinite(fit(series, "se", scenario).log_marginal_likelihood)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_tiny_matern_length_scales_warn_nothing(self):
        # these fits probe l near e^-230, where dK/dl overflows before the
        # kernel masks it
        base = _sinc_series(n=15, rep=3)
        series = TimeSeries(base.times, base.values, np.full(15, 0.09))
        scenarios = make_scenarios(series, "matern", nu=2.5)
        scenarios += make_expression_scenarios(series, "matern", nu=2.5)
        for scenario in scenarios:
            fit(series, "matern", scenario, nu=2.5)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_far_sampled_matern_fits(self):
        # Sampled 1e60 apart, these fits probe l where u^2 in K overflows
        # while the decay underflows: K is 0 there, not inf * 0 = NaN, which
        # the factorization rejected with a ValueError.
        base = _sinc_series(n=15, rep=3)
        series = TimeSeries(base.times * 1e60, base.values, np.full(15, 0.09))
        scenario = make_scenarios(series, "matern", nu=2.5)[2]
        result = fit(series, "matern", scenario, nu=2.5)
        assert scenario.holds(result.kernel.length_scale, result.noise_variance)
        assert math.isfinite(result.log_marginal_likelihood)

    def test_all_starts_failed(self, monkeypatch):
        _force_factorization_errors(monkeypatch)
        series = _sinc_series(n=5)
        scenario = make_scenarios(series, "se")[0]
        with pytest.raises(AllStartsFailedError):
            fit(series, "se", scenario)

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
            fit(series, "se", make_scenarios(series, "se")[0])
        nan = [out for x, out in asked if np.isnan(x).any()]
        assert nan
        for value, grad in nan:
            assert value == fitting._FAILED_OBJECTIVE and not grad.any()

        # An infinite coordinate is no failure: it is evaluated at
        # exp(+-230), as any z beyond 230 in size is, alone and in a batch
        # (an extra start beside the grid start gives the fit two members).
        series = _sinc_series(n=5)
        fit(series, "se", make_scenarios(series, "se")[0], extra_starts=[(1.0, 1.0, 0.1)])
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
                fit(series, "se", scenario)
        for scenario in (free, noise_bounded):
            assert fit(series, "se", scenario).kernel.length_scale == math.exp(230.0)
        # Under Matern 1/2, whose l^2 overflows only beyond about 1.3e154,
        # the floored scenarios fit: a z beyond 230 inside a box that lies
        # beyond e^230 maps onto the box, not to e^230 below its floor.
        for scenario in make_scenarios(series, "matern", nu=0.5):
            result = fit(series, "matern", scenario, nu=0.5)
            assert scenario.holds(result.kernel.length_scale, result.noise_variance)

    def test_bound_activity_flag(self):
        series = _sinc_series(n=5, rep=7)
        scenarios = make_scenarios(series, "se")
        result = fit(series, "se", scenarios[3])
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
                    result = fit(series, "se", scenario)
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
    """``fit`` drives L-BFGS-B's ``setulb`` itself, with its starts in
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
            fit(series, family, scenario, nu=nu)
        # one run per fit: its grid start, whatever the noise
        assert len(runs) == len(scenarios)
        self._assert_same(runs)

    @pytest.mark.parametrize("family, nu", [("se", None), ("matern", 1.5)])
    @pytest.mark.parametrize("build, k", [(make_scenarios, 1), (make_expression_scenarios, 2)])
    def test_members_from_several_series(self, runs, family, nu, build, k):
        # one lockstep over the grid starts of four series of 7 points,
        # under one scenario each
        series = [_sinc_series(n=7, rep=rep) for rep in range(4)]
        series = [TimeSeries(s.times, s.values, np.full(7, 0.09)) for s in series]
        problems = [(s, build(s, family, nu=nu)[k]) for s in series]
        results = fitting._fit_problems(problems, family, nu)
        assert len(runs) == len(problems)
        self._assert_same(runs)
        for (s, scenario), result in zip(problems, results):
            assert result == fit(s, family, scenario, nu=nu)

    def test_every_evaluation_failed(self, runs, monkeypatch):
        _force_factorization_errors(monkeypatch)
        series = _sinc_series(n=5)
        with pytest.raises(AllStartsFailedError, match="all 1 starts failed"):
            fit(series, "se", make_scenarios(series, "se")[0])
        with pytest.raises(AllStartsFailedError, match="all 1 starts failed"):
            fit(TimeSeries(series.times, series.values, np.full(5, 0.09)), "se",
                make_expression_scenarios(series, "se")[2])
        assert len(runs) == 1 + 1
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
            assert fit(series, "se", scenario).bound_lower_active[name]
            assert any(ours.x[i] == bounds[i][0] for ours, _, bounds in runs)
            self._assert_same(runs)

    def test_iteration_cap(self, runs, monkeypatch):
        monkeypatch.setattr(fitting, "_MAX_ITER", 3)
        series = _sinc_series(n=9, rep=2)
        fit(series, "se", make_scenarios(series, "se")[0])
        assert all(not ours.success and ours.nit == 3 for ours, _, _ in runs)
        self._assert_same(runs)


def _same_run(a, b) -> bool:
    return (a.x.tobytes(), a.fun, a.nit, a.nfev, a.success) == (
        b.x.tobytes(), b.fun, b.nit, b.nfev, b.success
    )


class TestExtraStarts:
    """Each extra start of ``fit`` is a sibling problem of the grid start's
    (same series and scenario) in one lockstep.  Each run takes the bits it
    takes alone, and the best run wins: within 1e-10 nats the smaller
    length-scale, then the smaller noise variance."""

    @pytest.fixture
    def lockstep_runs(self, monkeypatch):
        lockstep = fitting._minimize_lockstep
        recorded = []

        def recorder(fun_batch, x0s, boxes):
            recorded.append(lockstep(fun_batch, x0s, boxes))
            return recorded[-1]

        monkeypatch.setattr(fitting, "_minimize_lockstep", recorder)
        return recorded

    @staticmethod
    def _better(a, b):
        # the tie rule, spelled out: b wins only by more than 1e-10 nats,
        # or within them by a smaller (l, sn2)
        gap = b.log_marginal_likelihood - a.log_marginal_likelihood
        if abs(gap) > 1e-10:
            return b if gap > 0.0 else a
        a_key = (a.kernel.length_scale, a.noise_variance or 0.0)
        b_key = (b.kernel.length_scale, b.noise_variance or 0.0)
        return b if b_key < a_key else a

    @pytest.mark.parametrize("family, nu", [("se", None), ("matern", 1.5)])
    @pytest.mark.parametrize("k", range(8))
    def test_a_start_at_the_optimum(self, lockstep_runs, family, nu, k):
        base = _sinc_series(n=9, rep=3)
        series = TimeSeries(base.times, base.values, np.full(9, 0.09))
        scenarios = make_scenarios(series, family, nu=nu)
        scenarios += make_expression_scenarios(series, family, nu=nu)
        problem = [(series, scenarios[k])]
        own = fit(series, family, scenarios[k], nu=nu)
        start = (own.kernel.signal_variance, own.kernel.length_scale, own.noise_variance)
        [grid_alone] = fitting._lockstep(problem, family, nu)
        [extra_alone] = fitting._lockstep(problem, family, nu, starts=[start])
        both = fit(series, family, scenarios[k], nu=nu, extra_starts=[start])
        assert grid_alone == own
        assert both.restarts_used == 2
        assert both == replace(self._better(grid_alone, extra_alone), restarts_used=2)
        # one run per problem: the grid start's run is the same beside its
        # sibling as alone, and so is the sibling's
        [[own_run], [grid_run], [extra_run], pair] = lockstep_runs
        assert _same_run(own_run, grid_run) and _same_run(pair[0], grid_run)
        assert _same_run(pair[1], extra_run)

    def test_every_start_failed(self, monkeypatch):
        _force_factorization_errors(monkeypatch)
        series = _sinc_series(n=5)
        with pytest.raises(AllStartsFailedError, match="^all 3 starts failed for scenario 'no_bounds'$"):
            fit(series, "se", make_scenarios(series, "se")[0], extra_starts=[(1.0, 1.0, 0.1)] * 2)

    @pytest.mark.parametrize(
        "start",
        [(math.nan, 1.0, 0.1), (1.0, math.nan, 0.1), (-1.0, -1.0, -1.0), (0.0, 1.0, 0.1), (1.0, 1.0, math.inf)],
        ids=["nan-sf2", "nan-l", "negative", "zero-sf2", "infinite-sn2"],
    )
    def test_a_start_that_can_only_fail_is_a_value_error(self, monkeypatch, start):
        # checked before any eigendecomposition: a NaN start used to run to
        # a failed point and a value <= 0 or inf to be clipped into the box,
        # each silently
        eighs = []
        monkeypatch.setattr(fitting, "_correlation_eigh", lambda *args: eighs.append(args))
        t = np.arange(7.0)
        series = TimeSeries(t, np.sin(t))
        with pytest.raises(ValueError, match="must be finite and > 0"):
            fit(series, "se", make_scenarios(series, "se")[0], extra_starts=[start])
        assert eighs == []

    def test_fixed_noise_ignores_sn2(self):
        t = np.arange(7.0)
        series = TimeSeries(t, np.sin(t), np.full(7, 0.05))
        scenario = make_expression_scenarios(series, "se")[2]
        assert scenario.noise_mode == "fixed"
        result = fit(series, "se", scenario, extra_starts=[(1.0, 1.0, math.nan), (1.0, 1.0, -1.0)])
        assert result.restarts_used == 3


def _grid_starts_of(problems, family="se", nu=None, spectra=None):
    """The grid starts of (series, scenario) problems, as one group."""
    setups = [fitting._Problem(s, family, sc, nu) for s, sc in problems]
    return fitting._grid_starts(setups, family, nu, spectra)


def _grid_start_of(problem, family="se", nu=None):
    """The grid start of one problem, alone."""
    return _grid_starts_of([problem], family, nu)[0]


class TestGridStarts:
    """A fit starts from the argmax of its likelihood over a grid of
    (l, lambda = sn2 / sf2): profiled in sf2 for estimated or bounded noise,
    at sf2 = mean variance / lambda for fixed noise."""

    @pytest.mark.parametrize(
        "family, nu", [("se", None), ("matern", 0.5), ("matern", 1.5), ("matern", 2.5)]
    )
    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    def test_eigen_form_matches_the_likelihood(self, family, nu, k):
        # scenarios 0 and 1 estimate the noise, 2 and 3 bound it
        from shortgp.gp import log_marginal_likelihood
        from shortgp.kernels import KernelSpec
        from shortgp.series import NoiseModel

        for n, rep in ((5, 0), (9, 3), (15, 7)):
            series = _sinc_series(n=n, rep=rep)
            scenario = make_scenarios(series, family, nu=nu)[k]
            sf2, l, sn2, value = _grid_start_of((series, scenario), family, nu)
            kernel = KernelSpec.se(sf2, l) if nu is None else KernelSpec.matern(nu, sf2, l)
            exact = log_marginal_likelihood(series, kernel, NoiseModel.estimated(sn2))
            assert value == pytest.approx(exact, rel=1e-9)
            assert scenario.length_scale_lower <= l
            if scenario.noise_mode == "bounded":
                assert scenario.noise_lower * (1 - 1e-12) <= sn2
                assert sn2 <= scenario.noise_upper * (1 + 1e-12)

    def test_start_alone_in_a_group_and_in_a_pool(self):
        # the same bits alone, among series of the same and of other time
        # grids, in any order, after other stages filled the spectra, and in
        # a 2-worker pool with BLAS on one thread, for every noise mode
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        from shortgp.harness import _blas_on_one_thread

        rng = np.random.default_rng(3)
        series = [_sinc_series(n=7, rep=rep) for rep in range(3)]
        series.append(TimeSeries(series[0].times * 1.5, series[1].values))
        series = [TimeSeries(s.times, s.values, rng.uniform(0.01, 0.2, 7)) for s in series]
        stages = [
            [(s, build(s, "se")[k]) for s in series]
            for build, k in ((make_scenarios, 0), (make_scenarios, 3),
                             (make_expression_scenarios, 2), (make_expression_scenarios, 3))
        ]
        problems = [problem for stage in stages for problem in stage]
        alone = [_grid_start_of(problem) for problem in problems]
        assert _grid_starts_of(problems) == alone
        assert _grid_starts_of(problems[::-1]) == alone[::-1]
        spectra = {}
        shared = [start for stage in stages for start in _grid_starts_of(stage, spectra=spectra)]
        assert shared == alone
        context = (
            multiprocessing.get_context("fork")
            if "fork" in multiprocessing.get_all_start_methods()
            else None
        )
        with ProcessPoolExecutor(2, mp_context=context, initializer=_blas_on_one_thread) as pool:
            pooled = list(pool.map(_grid_start_of, problems))
        assert pooled == alone
        # and the fits of each stage, with or without the filled spectra,
        # are the fits alone
        for stage in stages:
            for spectra_in in (None, spectra):
                results = fitting._fit_problems(stage, "se", None, spectra_in)
                for (s, scenario), result in zip(stage, results):
                    assert result == fit(s, "se", scenario)

    def test_input_checks_raise_before_the_grid(self, monkeypatch):
        def no_grid(*args):
            raise AssertionError("grid built")

        monkeypatch.setattr(fitting, "_grid_starts", no_grid)
        series = _sinc_series(n=5)
        scenario = make_scenarios(series, "se")[0]
        flat = TimeSeries(series.times, np.full(5, 0.3))
        for problems, family, nu in (
            ([(series, scenario), (TimeSeries([0.0], [1.0]), scenario)], "se", None),
            ([(series, scenario), (flat, scenario)], "se", None),
            ([(series, scenario)], "matern", 3.7),
            ([(series, scenario)], "cubic", None),
            ([(series, scenario)], "se", 1.5),
        ):
            with pytest.raises(ValueError):
                fitting._lockstep(problems, family, nu)
        with pytest.raises(ValueError, match="one series length"):
            fitting._lockstep([(series, scenario), (_sinc_series(n=7), scenario)], "se", None)

    def test_length_to_infinity_optimum(self):
        # five random restarts all stopped at l = 2.15 (LML -4.3112); the
        # grid's edge leads to the near-constant fit at l of about 2.7e5
        series = _sinc_series(n=5, rep=14)
        scenario = make_scenarios(series, "se")[2]
        result = fit(series, "se", scenario)
        assert result.log_marginal_likelihood == pytest.approx(-3.6828, abs=1e-4)
        assert result.kernel.length_scale > 1e5

    @pytest.mark.parametrize("k", [2, 3])
    def test_finite_length_scale_optimum(self, k):
        # five random restarts all stopped at l = 0.94 (LML -8.4830)
        series = _sinc_series(n=11, rep=174)
        result = fit(series, "se", make_scenarios(series, "se")[k])
        assert result.log_marginal_likelihood == pytest.approx(-8.1392, abs=1e-4)
        assert result.kernel.length_scale == pytest.approx(2.356, abs=1e-3)

    @pytest.mark.parametrize(
        "family, nu", [("se", None), ("matern", 0.5), ("matern", 1.5), ("matern", 2.5)]
    )
    def test_fixed_noise_score_matches_the_likelihood(self, family, nu):
        # with equal variances d, the cell sf2 = d / lambda is the fixed-noise
        # likelihood itself
        from shortgp.gp import log_marginal_likelihood
        from shortgp.kernels import KernelSpec
        from shortgp.series import NoiseModel

        for n, rep, variance in ((5, 0, 0.09), (9, 3, 0.01), (15, 7, 0.3)):
            base = _sinc_series(n=n, rep=rep)
            series = TimeSeries(base.times, base.values, np.full(n, variance))
            for scenario in make_expression_scenarios(series, family, nu=nu)[2:]:
                sf2, l, _, value = _grid_start_of((series, scenario), family, nu)
                kernel = KernelSpec.se(sf2, l) if nu is None else KernelSpec.matern(nu, sf2, l)
                noise = NoiseModel.fixed(series.noise_variances)
                exact = log_marginal_likelihood(series, kernel, noise)
                assert value == pytest.approx(exact, rel=1e-9)
                assert scenario.length_scale_lower <= l

    @pytest.mark.parametrize("scenario_set", ["synthetic", "expression"])
    def test_one_eigh_per_time_grid_and_box(self, monkeypatch, scenario_set):
        # the stages of a group share their spectra: a group on two time
        # grids decomposes one stack of the grid's 64 length-scales per time
        # grid and one matrix per distinct box edge (here a grid's floor
        # a_l), and its spectra hold all of them after the four stages
        from shortgp.harness import run_batch

        eigh, fit_problems = fitting._correlation_eigh, fitting._fit_problems
        stacks, held = [], []

        def counting(family, nu, distances, length_scales):
            stacks.append(length_scales.tolist())
            return eigh(family, nu, distances, length_scales)

        def capturing(problems, family, nu, spectra=None):
            held.append(spectra)
            return fit_problems(problems, family, nu, spectra)

        monkeypatch.setattr(fitting, "_correlation_eigh", counting)
        monkeypatch.setattr(fitting, "_fit_problems", capturing)
        base = [_sinc_series(n=7, rep=rep) for rep in range(3)]
        series = [
            TimeSeries(s.times * scale, s.values, np.full(7, 0.09), id=f"{scale}-{i}")
            for scale in (1.0, 1.5)
            for i, s in enumerate(base)
        ]
        report = run_batch(series, scenario_set)
        assert not any(r.failed for r in report.rows)
        grids = {s.times.tobytes(): s for s in series}
        floors = {make_scenarios(s, "se")[1].length_scale_lower for s in grids.values()}
        full = [ls for ls in stacks if len(ls) == fitting._GRID_SIZE]
        rows = [ls[0] for ls in stacks if len(ls) == 1]
        assert len(full) + len(rows) == len(stacks)
        assert sorted(ls[0] for ls in full) == sorted(
            s.sampling.delta_t / 20.0 for s in grids.values()
        )
        assert len(set(rows)) == len(rows) and set(rows) <= floors
        assert sum(map(len, stacks)) == fitting._GRID_SIZE * len(grids) + len(rows)
        # one dict for the group, which holds what was decomposed
        assert len({id(spectra) for spectra in held}) == 1
        spectra = held[0]
        kept = sorted(spectrum.length_scales.tolist() for spectrum in spectra.values())
        assert kept == sorted(stacks)
        for s in series:
            key = ("se", None, s.times.tobytes())
            assert spectra[key].q[s.values.tobytes()].shape == (
                fitting._GRID_SIZE, fitting._GRID_SIZE
            )

    def test_logdet_summed_in_eigenvalue_order(self):
        # log|C_l + lambda I| is summed in place, one eigenvalue at a time:
        # the bits of the plain sum in that order
        for n in (2, 7, 15):
            series = _sinc_series(n=n)
            spectrum = fitting._Spectrum.build(
                "se", None, series, fitting._grid_length_scales(series)
            )
            expected = sum(
                np.log(spectrum.e[:, i, None] + fitting._GRID_RATIOS) for i in range(n)
            )
            assert spectrum.logdet.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("family, nu", [("se", None), ("matern", 1.5)])
    @pytest.mark.parametrize(
        "lower, upper",
        [
            (0.5, 3.0),  # inside the grid's range, both edges finite
            (0.0, 2.0),  # a ceiling and no floor
            (1e-4, 1e-3),  # wholly below the grid's range
            (0.0, 1e-3),
            (1e4, 1e5),  # wholly above it
            (1e4, math.inf),
        ],
    )
    @pytest.mark.parametrize("noise", ["estimated", "bounded"])
    def test_explicit_boxes_start_inside(self, family, nu, lower, upper, noise):
        # every box takes its start from the grid's length-scales inside it
        # and a length-scale at each finite, nonzero edge, so the start lies
        # in the box, and its value is the likelihood there
        from shortgp.gp import log_marginal_likelihood
        from shortgp.kernels import KernelSpec
        from shortgp.series import NoiseModel

        bounds = (0.01, 0.1) if noise == "bounded" else (None, None)
        scenario = Scenario("box", lower, upper, noise, *bounds)
        for n, rep in ((5, 0), (9, 3)):
            series = _sinc_series(n=n, rep=rep)
            sf2, l, sn2, value = _grid_start_of((series, scenario), family, nu)
            assert lower <= l <= upper
            grid = fitting._grid_length_scales(series)
            if not np.any((lower <= grid) & (grid <= upper)):
                assert l in (lower, upper)
            kernel = KernelSpec.se(sf2, l) if nu is None else KernelSpec.matern(nu, sf2, l)
            exact = log_marginal_likelihood(series, kernel, NoiseModel.estimated(sn2))
            assert value == pytest.approx(exact, rel=1e-9)

    @pytest.mark.parametrize(
        "variances, optima",
        [
            # the optima of five seeded random restarts, which fitted fixed
            # noise before the grid did: SE, then Matern 3/2, each under
            # noise_fixed and both_bounded
            (np.r_[0.0, np.full(8, 0.09)],
             (-5.754172442256859, -5.754172442256744, -6.203474219364035, -6.358247114952132)),
            (np.zeros(9),
             (-4.2040762791124875, -4.204076279112249, -5.517994705624466, -5.679023050975991)),
            (np.geomspace(1e-6, 1.0, 9),
             (-5.90799423647675, -5.9079942364767515, -6.8253086935885445, -7.017382957217445)),
        ],
        ids=["one-zero", "all-zero", "spanning"],
    )
    def test_degenerate_variances(self, variances, optima):
        # a zero mean variance starts from the estimated-noise profile
        # sf2 = q / n, as sf2 = 0 / lambda would fail every start
        base = _sinc_series(n=9, rep=2)
        series = TimeSeries(base.times, base.values, variances)
        lmls = [
            fit(series, family, scenario, nu=nu).log_marginal_likelihood
            for family, nu in (("se", None), ("matern", 1.5))
            for scenario in make_expression_scenarios(series, family, nu=nu)[2:]
        ]
        assert lmls == pytest.approx(optima, abs=1e-9)


class TestLikelihoodSurface:
    def test_profiled_signal_variance_takes_the_best_mode(self):
        # demo 03's series: at l = 17.73, sn2 = 2.04e-3 the likelihood in
        # log sf2 has two maxima; a bounded scalar search returned
        # sf2 = 7.48e4, 2.38 nats below the one at sf2 = 9.82e6
        from shortgp.gp import log_marginal_likelihood
        from shortgp.kernels import KernelSpec
        from shortgp.series import NoiseModel

        series = _sinc_series(n=7, rep=0, seed=5)
        l, sn2 = 17.730376127960206, 0.0020429437558131115
        noise = NoiseModel.estimated(sn2)
        [[value]] = fitting.likelihood_surface(series, "se", [l], [sn2])
        for sf2 in (7.48e4, 9.82e6):
            assert value >= log_marginal_likelihood(series, KernelSpec.se(sf2, l), noise) - 1e-6
        assert fitting._profiled_signal_variances(series, "se", [l], [sn2], None)[0, 0] > 1e6

    def test_each_cell_is_a_maximum_in_sf2(self):
        from shortgp.gp import log_marginal_likelihood
        from shortgp.kernels import KernelSpec
        from shortgp.series import NoiseModel

        series = _sinc_series(n=7, rep=0, seed=5)
        ls, ns = np.logspace(-0.5, 1.2, 6), np.logspace(-3, 0, 5)
        surface = fitting.likelihood_surface(series, "matern", ls, ns, nu=1.5)
        for i, l in enumerate(ls):
            for j, sn2 in enumerate(ns):
                scan = [
                    log_marginal_likelihood(
                        series, KernelSpec.matern(1.5, sf2, l), NoiseModel.estimated(sn2)
                    )
                    for sf2 in np.logspace(-6, 6, 121)
                ]
                assert surface[i, j] >= max(scan) - 1e-9

    @pytest.mark.parametrize(
        "family, nu",
        [("matern", 0.75), ("matern", None), ("foo", None), ("se", 1.5)],
        ids=["matern-0.75", "matern-no-nu", "unknown-family", "se-with-nu"],
    )
    def test_unsupported_family_or_nu_is_a_value_error(self, monkeypatch, family, nu):
        # checked as fit checks it, before any eigendecomposition: nu = 0.75
        # used to reach the kernel's general-order branch (IndexError),
        # Matern without nu and an unknown family a TypeError, and SE
        # silently dropped nu
        eighs = []
        monkeypatch.setattr(fitting, "_correlation_eigh", lambda *args: eighs.append(args))
        series = _sinc_series(n=7)
        with pytest.raises(ValueError):
            fitting.likelihood_surface(series, family, [0.5, 2.0], [0.01, 0.1], nu=nu)
        assert eighs == []


class TestDiagnose:
    def test_short_length_scale_flag(self):
        series = _sinc_series(n=7)
        sampling = delta_t_from_times(series.times)
        a_l = length_scale_bound("se", 0.99, sampling.delta_t)
        scenario = make_scenarios(series, "se")[0]
        result = fit(series, "se", scenario)
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
        result = fit(series, "se", scenario)
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
        result = fit(series, "se", scenario)
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
        result = fit(series, "se", scenario)
        assert result.noise_variance is None
        diag = diagnose(result, sampling, noise_threshold=1e-2)
        assert not diag.tiny_noise
        assert isinstance(diag, Diagnostics)


@pytest.mark.parametrize("family, nu", [("se", None), ("matern", 1.5)])
@pytest.mark.parametrize("k", [1, 3], ids=["lengthscale_bounded", "both_bounded"])
def test_an_overflowing_batch_leaves_its_members_to_the_per_call_path(monkeypatch, family, nu, k):
    # the Nyquist floor of a series sampled 1e120 apart overflows a power of
    # l in the batched call; its members then go one by one, so the near
    # series fits as it does alone and only the far series fails
    values = [0.1, 0.5, -0.2, 0.3, 0.0]
    near = TimeSeries(np.arange(5.0), values)
    far = TimeSeries(np.arange(5.0) * 1e120, values)
    problems = [(s, make_scenarios(s, family, nu=nu)[k]) for s in (near, far)]
    [alone] = fitting._lockstep(problems[:1], family, nu)
    batch, overflows = gp._lml_and_grad_batch, []

    def counting(*args):
        try:
            return batch(*args)
        except OverflowError:
            overflows.append(args)
            raise

    monkeypatch.setattr(gp, "_lml_and_grad_batch", counting)
    near_fit, far_fit = fitting._lockstep(problems, family, nu)
    assert overflows
    assert repr(near_fit) == repr(alone)
    assert far_fit is None


@pytest.mark.parametrize("scale", [1e155, 1e200, 1e300])
def test_an_overflowing_sample_variance_is_a_value_error(scale):
    t = np.arange(7.0)
    series = TimeSeries(t, np.sin(t) * scale, np.full(7, 0.04))
    assert series.sample_variance == math.inf
    for scenario in make_scenarios(series, "se"):
        with pytest.raises(ValueError, match="sample variance"):
            fit(series, "se", scenario)


def test_a_fit_never_imports_scipy_optimize():
    # A fit loads L-BFGS-B's setulb from its extension file, and a
    # likelihood surface profiles sf2 without a scalar optimizer, so neither
    # loads the scipy.optimize package (its import time and memory).
    # Imported afterwards, scipy.optimize works as usual, with the same
    # setulb.
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = Path(__file__).resolve().parents[1] / "src"
    code = (
        "import sys, numpy as np, shortgp\n"
        "from shortgp import fitting\n"
        "t = np.arange(7.0)\n"
        "s = shortgp.TimeSeries(t, np.sin(t))\n"
        "shortgp.fit(s, 'se', shortgp.make_scenarios(s, 'se')[3])\n"
        "shortgp.likelihood_surface(s, 'se', [0.5, 2.0], [0.01, 0.1])\n"
        "print(sorted(m for m in sys.modules if m.startswith('scipy.optimize')))\n"
        "from scipy.optimize import _lbfgsb, minimize\n"
        "res = minimize(lambda x: (float(x @ x), 2 * x), np.ones(2), jac=True,\n"
        "               method='L-BFGS-B')\n"
        "print(_lbfgsb.setulb is fitting._setulb, res.success)\n"
    )
    path = [str(src), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in path if p)}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.split("\n")[:2] == ["[]", "True True"]


# The scipy packages whose __init__s a fit never runs, and scipy's
# array-API layer that they import.
_SCIPY_PACKAGES = ("scipy.linalg", "scipy.special", "scipy.optimize", "scipy._lib._array_api")

# The eight compiled routines, as the package holds them and as scipy's
# packages export them.
_ROUTINES = (
    "[kernels.dpotrf, gp.dpotrs, gp.dtrtrs, kernels.kve, bound.betainc,\n"
    " bound.betaincinv, bound.erfinv, fitting._setulb]"
)
_EXPORTED = (
    "[lapack.dpotrf, lapack.dpotrs, lapack.dtrtrs, special.kve, special.betainc,\n"
    " special.betaincinv, special.erfinv, _lbfgsb.setulb]"
)
_IMPORT_SCIPY = (
    "import scipy.linalg.lapack as lapack, scipy.special as special\n"
    "from scipy.optimize import _lbfgsb\n"
)


class TestCompiledRoutines:
    """The routines come from scipy's extension files, without the scipy
    package __init__s, and are the objects the packages export."""

    def test_file_route_imports_no_scipy_package(self, fresh_python):
        # bounds of both families, a fit of each, a posterior and the BLAS
        # pin, then scipy's packages: the same routine objects
        out = fresh_python(
            "import sys, numpy as np, shortgp\n"
            "from shortgp import bound, fitting, gp, harness, kernels\n"
            "t = np.arange(7.0)\n"
            "s = shortgp.TimeSeries(t, np.sin(t), np.full(7, 0.04))\n"
            "shortgp.length_scale_bound('se', 0.99, 1.0)\n"
            "shortgp.length_scale_bound('matern', 0.99, 1.0, 2.5)\n"
            "for family, nu in (('se', None), ('matern', 1.5)):\n"
            "    scenario = shortgp.make_scenarios(s, family, nu=nu)[3]\n"
            "    r = shortgp.fit(s, family, scenario, nu=nu)\n"
            "noise = shortgp.result_noise_model(r, s)\n"
            "shortgp.posterior_at(s, r.kernel, noise, np.array([0.5, 7.5]))\n"
            "harness._blas_on_one_thread()()\n"
            f"print([m for m in {_SCIPY_PACKAGES!r} if m in sys.modules])\n"
            f"routines = {_ROUTINES}\n"
            f"{_IMPORT_SCIPY}"
            f"print([a is b for a, b in zip(routines, {_EXPORTED})])\n"
        )
        assert out[:2] == ["[]", str([True] * 8)]

    def test_package_route_when_scipy_is_imported_first(self, fresh_python):
        out = fresh_python(
            f"{_IMPORT_SCIPY}"
            "import sys, shortgp\n"
            "from shortgp import _compiled, bound, fitting, gp, kernels\n"
            f"print([a is b for a, b in zip({_ROUTINES}, {_EXPORTED})])\n"
            "print(_compiled.extension('special', '_ufuncs')\n"
            "      is sys.modules['scipy.special._ufuncs'])\n"
        )
        assert out[:2] == [str([True] * 8), "True"]

    def test_package_route_when_the_file_is_missing(self, fresh_python, tmp_path):
        # scipy's folder taken as an empty one: no extension file is found,
        # and the load leaves no stand-in package or module behind
        out = fresh_python(
            "import sys, shortgp\n"
            "from shortgp import _compiled, kernels\n"
            f"_compiled._SCIPY_DIR = {str(tmp_path)!r}\n"
            "_compiled.extension.cache_clear()\n"
            "ufuncs = _compiled.extension('special', '_ufuncs')\n"
            "import scipy.special\n"
            "print(ufuncs is sys.modules['scipy.special._ufuncs'],\n"
            "      ufuncs.kve is kernels.kve is scipy.special.kve,\n"
            "      sys.modules['scipy.special'] is scipy.special)\n"
            "print([name for name, m in sys.modules.items()\n"
            "       if name.startswith('scipy.') and m.__spec__ is None])\n"
        )
        assert out[:2] == ["True True True", "[]"]
