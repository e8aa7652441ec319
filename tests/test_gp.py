import math
import pickle
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import LinAlgError, cho_solve, cholesky, solve_triangular
from scipy.linalg.lapack import dpotrf, dpotrs

from shortgp import gp
from shortgp.gp import (
    PREDICTIVE_VARIANCE_FLOOR,
    log_marginal_likelihood,
    log_marginal_likelihood_and_gradient,
    mse,
    posterior_at,
    predictive_log_likelihood,
)
from shortgp.harness import sinc
from shortgp.kernels import (
    KernelSpec,
    _cov_and_dcov_dl,
    _cov_array,
    covariance_matrix,
    factor_covariance,
)
from shortgp.series import NoiseModel, TimeSeries


class TestTimeSeries:
    def test_validation(self):
        with pytest.raises(ValueError):
            TimeSeries([0.0, 1.0], [1.0])
        with pytest.raises(ValueError):
            TimeSeries([1.0, 0.0], [1.0, 2.0])
        with pytest.raises(ValueError):
            TimeSeries([0.0, 0.0], [1.0, 2.0])
        with pytest.raises(ValueError):
            TimeSeries([0.0, math.nan], [1.0, 2.0])
        with pytest.raises(ValueError):
            TimeSeries([0.0, 1.0], [1.0, 2.0], noise_variances=[-0.1, 0.0])
        with pytest.raises(ValueError):
            TimeSeries([0.0, 1.0], [1.0, 2.0], noise_variances=[0.1])
        # t[-1] - t[0] overflows: the span, and with two points the gap, is inf
        for times in ([-1e308, 0.0, 1e308], [-1e308, 1e308]):
            with pytest.raises(ValueError, match="span"):
                TimeSeries(times, [0.1] * len(times), [0.05] * len(times))

    def test_from_unordered_sorts_jointly(self):
        s = TimeSeries.from_unordered(
            [2.0, 0.0, 1.0], [20.0, 0.0, 10.0], [0.2, 0.0, 0.1], id="x"
        )
        assert np.array_equal(s.times, [0.0, 1.0, 2.0])
        assert np.array_equal(s.values, [0.0, 10.0, 20.0])
        assert np.array_equal(s.noise_variances, [0.0, 0.1, 0.2])

    def test_span_and_len(self):
        s = TimeSeries([0.0, 2.5], [1.0, -1.0])
        assert s.span == 2.5
        assert len(s) == 2

    def test_distances_computed_once_read_only_and_picklable(self):
        t = np.array([-1.0, 0.3, 1.7, 4.0, 4.25])
        s = TimeSeries(t, np.sin(t))
        r = s.distances
        assert np.array_equal(r, np.abs(t[:, None] - t[None, :]))
        assert not r.flags.writeable
        with pytest.raises(ValueError):
            r[0, 1] = 0.0
        log_marginal_likelihood_and_gradient(s, _se(), NoiseModel.estimated(0.1))
        assert s.distances is r
        # the process pool pickles series
        copy = pickle.loads(pickle.dumps(s))
        assert np.array_equal(copy.distances, r)
        assert not copy.distances.flags.writeable
        assert np.array_equal(copy.times, t) and np.array_equal(copy.values, s.values)
        assert not copy.times.flags.writeable and not copy.values.flags.writeable


class TestNoiseModel:
    def test_validation(self):
        with pytest.raises(ValueError):
            NoiseModel.estimated(0.0)
        with pytest.raises(ValueError):
            NoiseModel.fixed([-0.1])
        with pytest.raises(ValueError):
            NoiseModel("weird")

    def test_diagonal(self):
        assert np.array_equal(NoiseModel.estimated(0.3).diagonal(2), [0.3, 0.3])
        assert np.array_equal(NoiseModel.fixed([0.1, 0.2]).diagonal(2), [0.1, 0.2])
        with pytest.raises(ValueError):
            NoiseModel.fixed([0.1]).diagonal(2)


def _se(sf2=1.0, l=1.0):
    return KernelSpec.se(sf2, l)


class TestLogMarginalLikelihood:
    def test_single_point(self):
        # K = [[2]]: log p = -1/2 log(2 * 2 pi) ... = -1/2 log(4 pi)
        s = TimeSeries([0.0], [0.0])
        value = log_marginal_likelihood(s, _se(), NoiseModel.estimated(1.0))
        assert abs(value - (-0.5 * math.log(4.0 * math.pi))) <= 1e-14

    def test_two_point_closed_form(self):
        t = [0.0, 1.0]
        y = np.array([1.0, -1.0])
        sn2 = 0.5
        s = TimeSeries(t, y)
        value = log_marginal_likelihood(s, _se(), NoiseModel.estimated(sn2))
        # explicit 2x2 inverse and determinant
        off = math.exp(-0.5)
        det = (1.0 + sn2) ** 2 - off**2
        quad = (y[0] ** 2 * (1.0 + sn2) - 2.0 * y[0] * y[1] * off + y[1] ** 2 * (1.0 + sn2)) / det
        expected = -0.5 * quad - 0.5 * math.log(det) - math.log(2.0 * math.pi)
        assert abs(value - expected) <= 1e-12

    def test_permutation_invariance(self):
        rng = np.random.default_rng(11)
        t = np.sort(rng.uniform(0.0, 5.0, 6))
        y = rng.normal(size=6)
        noise = NoiseModel.estimated(0.2)
        base = log_marginal_likelihood(TimeSeries(t, y), _se(1.3, 0.8), noise)
        perm = rng.permutation(6)
        shuffled = TimeSeries.from_unordered(t[perm], y[perm])
        assert abs(log_marginal_likelihood(shuffled, _se(1.3, 0.8), noise) - base) <= 1e-10

    def test_noise_identifiability(self):
        # near-coincident times with inconsistent values: the likelihood must
        # collapse as the noise variance is forced toward zero
        t = [0.0, 1e-6, 1.0, 1.0 + 1e-6]
        y = [0.0, 1.0, 0.0, 1.0]
        s = TimeSeries(t, y)
        ll_tiny = log_marginal_likelihood(s, _se(), NoiseModel.estimated(1e-8))
        ll_sane = log_marginal_likelihood(s, _se(), NoiseModel.estimated(0.1))
        assert ll_tiny < ll_sane


class TestGradient:
    @pytest.mark.parametrize("family", ["se", "m32"])
    def test_finite_difference_match(self, family):
        rng = np.random.default_rng(5)
        for _ in range(20):
            n = int(rng.integers(5, 12))
            t = np.sort(rng.uniform(0.0, 8.0, n)) + np.arange(n) * 1e-9
            y = rng.normal(size=n)
            s = TimeSeries(t, y)
            sf2, l, sn2 = np.exp(rng.uniform(-1.5, 1.5, 3))
            spec = _se(sf2, l) if family == "se" else KernelSpec.matern(1.5, sf2, l)
            noise = NoiseModel.estimated(sn2)
            _, grad = log_marginal_likelihood_and_gradient(s, spec, noise)
            h = 1e-6

            def lml(d0, d1, d2):
                spec2 = replace(
                    spec, signal_variance=sf2 * math.exp(d0), length_scale=l * math.exp(d1)
                )
                return log_marginal_likelihood(
                    s, spec2, NoiseModel.estimated(sn2 * math.exp(d2))
                )

            fd = np.array(
                [
                    (lml(h, 0, 0) - lml(-h, 0, 0)) / (2 * h),
                    (lml(0, h, 0) - lml(0, -h, 0)) / (2 * h),
                    (lml(0, 0, h) - lml(0, 0, -h)) / (2 * h),
                ]
            )
            assert np.all(np.abs(grad - fd) <= 1e-5 * np.maximum(np.abs(fd), 1e-3))

    @pytest.mark.parametrize(
        "kernel",
        [KernelSpec.matern(2.5, 1.0, 1e-80), KernelSpec.matern(1.5, 1e10, 1e-100)],
    )
    def test_tiny_length_scale_gives_finite_gradient(self, kernel):
        # exp(-r/l) underflows to 0 off the diagonal while r^2/l^3 overflows;
        # the length-scale derivative there is 0, not inf * 0 = NaN
        s = TimeSeries(np.arange(7.0), np.sin(np.arange(7.0)))
        with np.errstate(over="ignore", invalid="ignore"):
            value, grad = log_marginal_likelihood_and_gradient(
                s, kernel, NoiseModel.estimated(0.1)
            )
        assert math.isfinite(value)
        assert np.all(np.isfinite(grad))
        assert grad[1] == 0.0

    def test_fixed_noise_gradient_length(self):
        s = TimeSeries([0.0, 1.0, 2.0], [0.1, -0.2, 0.4], noise_variances=[0.1, 0.1, 0.1])
        grad = log_marginal_likelihood_and_gradient(
            s, _se(), NoiseModel.fixed(s.noise_variances)
        )[1]
        assert grad.shape == (2,)

    def test_gradient_zero_at_optimum(self):
        from scipy.optimize import minimize

        from shortgp.fitting import Scenario, fit

        rng = np.random.default_rng(2)
        t = np.linspace(0.0, 10.0, 12)
        y = np.sin(t) + rng.normal(0.0, 0.2, 12)
        s = TimeSeries(t, y)
        result = fit(s, "se", Scenario("free"))

        # polish the located optimum to the gradient tolerance being checked
        def neg(z):
            value, grad = log_marginal_likelihood_and_gradient(
                s,
                _se(math.exp(z[0]), math.exp(z[1])),
                NoiseModel.estimated(math.exp(z[2])),
            )
            return -value, -grad

        z0 = np.log(
            [
                result.kernel.signal_variance,
                result.kernel.length_scale,
                result.noise_variance,
            ]
        )
        res = minimize(neg, z0, jac=True, method="BFGS", options={"gtol": 1e-8})
        grad = log_marginal_likelihood_and_gradient(
            s,
            _se(math.exp(res.x[0]), math.exp(res.x[1])),
            NoiseModel.estimated(math.exp(res.x[2])),
        )[1]
        assert np.max(np.abs(grad)) < 1e-5
        # and the polish must not have moved the optimum materially
        assert abs(-res.fun - result.log_marginal_likelihood) < 1e-4

    def test_signal_variance_gradient_zero_at_profile_optimum(self):
        from shortgp.fitting import _profiled_signal_variances

        rng = np.random.default_rng(3)
        t = np.sort(rng.uniform(0.0, 6.0, 8))
        y = rng.normal(size=8)
        s = TimeSeries(t, y)
        noise = NoiseModel.estimated(0.05)
        sf2 = _profiled_signal_variances(s, "se", [1.2], [noise.variance], None)[0, 0]
        grad = log_marginal_likelihood_and_gradient(s, _se(sf2, 1.2), noise)[1]
        assert abs(grad[0]) <= 1e-6


class TestPosterior:
    def test_noise_free_interpolation(self):
        t = np.array([0.0, 1.0, 2.5])
        y = np.array([1.0, -0.3, 0.7])
        s = TimeSeries(t, y)
        noise = NoiseModel.fixed(np.zeros(3))
        post = posterior_at(s, _se(2.0, 1.0), noise, t)
        assert np.max(np.abs(post.mean - y)) <= 1e-8
        assert np.max(post.variance_latent) <= 1e-8

    def test_prior_reversion_far_from_data(self):
        s = TimeSeries([0.0, 1.0, 2.0], [0.5, -0.5, 0.25])
        post = posterior_at(s, _se(1.7, 1.0), NoiseModel.estimated(0.1), [90.0])
        assert abs(post.mean[0]) <= 1e-9
        assert abs(post.variance_latent[0] - 1.7) <= 1e-9

    def test_dense_linear_algebra_oracle(self):
        t = np.array([0.0, 0.9, 2.0])
        y = np.array([0.3, -0.6, 0.9])
        s = TimeSeries(t, y)
        spec = _se(1.4, 0.8)
        sn2 = 0.07
        q = np.array([1.2])
        post = posterior_at(s, spec, NoiseModel.estimated(sn2), q)
        # direct dense computation
        from shortgp.kernels import covariance

        k = np.array([[covariance(spec, abs(a - b)) for b in t] for a in t])
        k += sn2 * np.eye(3)
        kx = np.array([covariance(spec, abs(1.2 - b)) for b in t])
        mean = kx @ np.linalg.solve(k, y)
        var = spec.signal_variance - kx @ np.linalg.solve(k, kx)
        assert abs(post.mean[0] - mean) <= 1e-12
        assert abs(post.variance_latent[0] - var) <= 1e-12

    def test_observed_variance_offset(self):
        s = TimeSeries([0.0, 1.0, 3.0], [0.1, 0.4, -0.2])
        sn2 = 0.23
        post = posterior_at(s, _se(), NoiseModel.estimated(sn2), np.linspace(-2, 5, 17))
        assert np.max(np.abs(post.variance_observed - post.variance_latent - sn2)) <= 1e-10

    def test_fixed_noise_observed_equals_latent(self):
        s = TimeSeries([0.0, 1.0], [0.1, 0.2], noise_variances=[0.1, 0.2])
        post = posterior_at(s, _se(), NoiseModel.fixed(s.noise_variances), [0.5])
        assert post.variance_observed[0] == post.variance_latent[0]

    def test_mean_linear_in_observations(self):
        rng = np.random.default_rng(9)
        t = np.sort(rng.uniform(0.0, 5.0, 6))
        y1 = rng.normal(size=6)
        y2 = rng.normal(size=6)
        a, b = 1.7, -0.6
        q = np.linspace(-1.0, 6.0, 13)
        noise = NoiseModel.estimated(0.09)
        spec = _se(1.2, 0.9)
        p1 = posterior_at(TimeSeries(t, y1), spec, noise, q).mean
        p2 = posterior_at(TimeSeries(t, y2), spec, noise, q).mean
        p12 = posterior_at(TimeSeries(t, a * y1 + b * y2), spec, noise, q).mean
        assert np.max(np.abs(p12 - (a * p1 + b * p2))) <= 1e-9

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "spec",
        [KernelSpec.matern(0.75, 1.0, 1e-9), KernelSpec.matern(0.75, 1, 1e-100),
         KernelSpec.matern(1.5, 1, 1e-100)],
    )
    def test_decayed_covariance_is_zero_and_warns_nothing(self, spec):
        # every distance but 0 is past the decay (for order 0.75 and l = 1e-9,
        # past kve's range), and u overflows at the far query time
        s = TimeSeries([0.0, 1.0, 2.0], [0.5, -0.5, 0.25])
        noise = NoiseModel.estimated(0.1)
        q, y_q = [0.5, 1e210], [0.3, -0.3]
        post = posterior_at(s, spec, noise, q)
        assert post.mean.tolist() == [0.0, 0.0] and post.variance_latent.tolist() == [1.0, 1.0]
        lml = log_marginal_likelihood(s, spec, noise)
        independent = -0.5 * sum(y * y / 1.1 + math.log(2.0 * math.pi * 1.1) for y in s.values)
        assert abs(lml - independent) <= 1e-12
        assert math.isfinite(predictive_log_likelihood(s, spec, noise, q, y_q))
        assert mse(s, spec, noise, q, y_q) == 0.09

    @pytest.mark.parametrize("query", [math.nan, -math.inf])
    def test_non_finite_cross_covariance_raises(self, query):
        # a query time that is not finite is refused before any covariance
        s = TimeSeries([0.0, 1.0, 2.0], [0.1, -0.2, 0.4])
        spec = KernelSpec.matern(1.5, 1.0, 1.0)
        with pytest.raises(ValueError, match="query_times must be finite"):
            posterior_at(s, spec, NoiseModel.estimated(0.1), [0.5, query])

    def test_overflowing_cross_covariance_raises(self):
        # A general-order covariance at a tiny distance rounds a little past
        # sf2, and so past the largest float at sf2 = 1.8e308, while the
        # series' own K (distances 0, 1 and 2) stays finite.
        s = TimeSeries([0.0, 1.0, 2.0], [0.1, -0.2, 0.4])
        spec = KernelSpec.matern(0.75, np.finfo(float).max, 1.0)
        noise = NoiseModel.estimated(0.1)
        assert math.isfinite(log_marginal_likelihood(s, spec, noise))
        with pytest.raises(ValueError, match="cross-covariance at query_times must be finite"):
            posterior_at(s, spec, noise, [0.5, 1e-296])


class TestMetrics:
    def test_loglik_at_posterior_mean(self):
        s = TimeSeries([0.0, 1.0, 2.0], [0.2, -0.1, 0.3])
        noise = NoiseModel.estimated(0.05)
        spec = _se()
        q = np.array([0.5, 1.5])
        post = posterior_at(s, spec, noise, q)
        value = predictive_log_likelihood(s, spec, noise, q, post.mean)
        expected = float(
            np.sum(-0.5 * np.log(2.0 * math.pi * np.maximum(post.variance_latent, PREDICTIVE_VARIANCE_FLOOR)))
        )
        assert abs(value - expected) <= 1e-12

    def test_loglik_decreases_away_from_mean(self):
        s = TimeSeries([0.0, 1.0, 2.0], [0.2, -0.1, 0.3])
        noise = NoiseModel.estimated(0.05)
        spec = _se()
        q = np.array([0.7])
        post = posterior_at(s, spec, noise, q)
        at_mean = predictive_log_likelihood(s, spec, noise, q, post.mean)
        off = predictive_log_likelihood(s, spec, noise, q, post.mean + 0.5)
        further = predictive_log_likelihood(s, spec, noise, q, post.mean + 1.0)
        assert off < at_mean
        assert further < off

    def test_loglik_per_point_oracle(self):
        # sum of independent univariate Gaussian log-densities on the
        # benchmark test grid
        t = np.linspace(-5.0, 6.0, 7)
        s = TimeSeries(t, sinc(t))
        noise = NoiseModel.estimated(0.09)
        spec = _se(0.8, 1.9)
        test_t = np.linspace(-6.0, 5.0, 10)
        truth = sinc(test_t)
        value = predictive_log_likelihood(s, spec, noise, test_t, truth)
        post = posterior_at(s, spec, noise, test_t)
        oracle = 0.0
        for m, v, y in zip(post.mean, post.variance_latent, truth):
            vv = max(v, PREDICTIVE_VARIANCE_FLOOR)
            oracle += -0.5 * math.log(2.0 * math.pi * vv) - (y - m) ** 2 / (2.0 * vv)
        assert abs(value - oracle) <= 1e-12

    def test_mse_perfect_fit(self):
        t = np.array([0.0, 1.0, 2.0])
        s = TimeSeries(t, np.zeros(3))
        # posterior mean of zero data is identically zero
        value = mse(s, _se(), NoiseModel.estimated(0.1), [0.3, 1.7], [0.0, 0.0])
        assert value <= 1e-24

    def test_mse_constant_zero_prediction_oracle(self):
        # far-away query points give a zero posterior mean; the MSE against
        # the sinc truth is then exactly the mean of sinc^2 on the grid
        s = TimeSeries([1000.0, 1001.0], [0.1, -0.1])
        test_t = np.linspace(-6.0, 5.0, 10)
        truth = sinc(test_t)
        value = mse(s, _se(), NoiseModel.estimated(0.1), test_t, truth)
        assert abs(value - float(np.mean(truth**2))) <= 1e-12

    def test_mse_single_point(self):
        s = TimeSeries([0.0, 1.0], [0.0, 0.0])
        value = mse(s, _se(), NoiseModel.estimated(0.1), [0.5], [0.4])
        post = posterior_at(s, _se(), NoiseModel.estimated(0.1), [0.5])
        assert abs(value - (post.mean[0] - 0.4) ** 2) <= 1e-15

    def test_length_mismatch_errors(self):
        s = TimeSeries([0.0, 1.0], [0.0, 0.0])
        with pytest.raises(ValueError):
            predictive_log_likelihood(s, _se(), NoiseModel.estimated(0.1), [0.5], [0.1, 0.2])
        with pytest.raises(ValueError):
            mse(s, _se(), NoiseModel.estimated(0.1), [0.5, 0.7], [0.1])


# Reference route through the scipy.linalg wrappers (cholesky, cho_solve,
# solve_triangular).  They run the LAPACK routines the package calls
# directly, with the same arguments and in the same order, so the package
# must reproduce this route bit for bit.
def _oracle_factor(matrix, sf2):
    try:
        return cholesky(matrix, lower=True), 0.0
    except LinAlgError:
        pass
    jitter = 1e-10
    eye = np.eye(matrix.shape[0])
    while jitter <= 1e-4 * 1.0000001:
        try:
            return cholesky(matrix + jitter * sf2 * eye, lower=True), jitter * sf2
        except LinAlgError:
            jitter *= 10.0
    raise AssertionError("oracle jitter ladder exhausted")


def _oracle_factorize(series, kernel, noise):
    t = series.times
    r = np.abs(t[:, None] - t[None, :])
    gram = _cov_array(kernel, r)
    k = gram + np.diag(noise.diagonal(len(series)))
    chol, jitter = _oracle_factor(k, kernel.signal_variance)
    return r, gram, chol, jitter


def _oracle_lml_and_gradient(series, kernel, noise):
    r, gram, chol, jitter = _oracle_factorize(series, kernel, noise)
    y = series.values
    n = len(series)
    alpha = cho_solve((chol, True), y)
    logdet = 2.0 * float(np.sum(np.log(np.diag(chol))))
    value = float(-0.5 * y @ alpha - 0.5 * logdet - 0.5 * n * math.log(2.0 * math.pi))
    inner = np.outer(alpha, alpha) - cho_solve((chol, True), np.eye(n))
    d_sf2 = gram + jitter * np.eye(n)
    d_l = kernel.length_scale * _cov_and_dcov_dl(kernel, r)[1]
    grad = [0.5 * float(np.sum(inner * d_sf2)), 0.5 * float(np.sum(inner * d_l))]
    if noise.is_estimated:
        grad.append(0.5 * noise.variance * float(np.trace(inner)))
    return value, np.array(grad), jitter


def _oracle_posterior(series, kernel, noise, q):
    _, _, chol, _ = _oracle_factorize(series, kernel, noise)
    alpha = cho_solve((chol, True), series.values)
    k_cross = _cov_array(kernel, np.abs(q[:, None] - series.times[None, :]))
    v = solve_triangular(chol, k_cross.T, lower=True)
    var_latent = np.maximum(kernel.signal_variance - np.sum(v * v, axis=0), 0.0)
    return k_cross @ alpha, var_latent


_FAMILIES = {
    "se": lambda sf2, l: KernelSpec.se(sf2, l),
    "m12": lambda sf2, l: KernelSpec.matern(0.5, sf2, l),
    "m32": lambda sf2, l: KernelSpec.matern(1.5, sf2, l),
    "m52": lambda sf2, l: KernelSpec.matern(2.5, sf2, l),
}


class TestBitwiseAgainstScipyRoute:
    def _check(self, series, kernel, noise, expect_jitter):
        value, grad = log_marginal_likelihood_and_gradient(series, kernel, noise)
        o_value, o_grad, o_jitter = _oracle_lml_and_gradient(series, kernel, noise)
        assert (o_jitter > 0.0) == expect_jitter
        assert value == o_value
        assert grad.shape == o_grad.shape and np.all(grad == o_grad)
        assert log_marginal_likelihood(series, kernel, noise) == o_value

        q = np.linspace(series.times[0] - 1.0, series.times[-1] + 1.0, 10)
        post = posterior_at(series, kernel, noise, q)
        o_mean, o_var = _oracle_posterior(series, kernel, noise, q)
        assert np.array_equal(post.mean, o_mean)
        assert np.array_equal(post.variance_latent, o_var)

        k = covariance_matrix(kernel, series.times, noise)
        chol, jitter = factor_covariance(k, kernel.signal_variance)
        o_chol, o_jitter = _oracle_factor(k, kernel.signal_variance)
        assert jitter == o_jitter
        assert np.array_equal(chol, o_chol)

    @pytest.mark.parametrize("n", [2, 5, 15])
    @pytest.mark.parametrize("estimated", [True, False])
    @pytest.mark.parametrize("family", list(_FAMILIES))
    def test_value_gradient_posterior_and_factor(self, family, estimated, n):
        rng = np.random.default_rng(100 * n + 7)
        for _ in range(5):
            t = np.sort(rng.uniform(-5.0, 6.0, n))
            y = np.sin(t) + 0.3 * rng.normal(size=n)
            sf2, l = np.exp(rng.uniform(-1.5, 1.5, 2))
            kernel = _FAMILIES[family](sf2, l)
            if estimated:
                series = TimeSeries(t, y)
                noise = NoiseModel.estimated(math.exp(rng.uniform(-6.0, 0.0)))
            else:
                series = TimeSeries(t, y, noise_variances=rng.uniform(0.01, 0.2, n))
                noise = NoiseModel.fixed(series.noise_variances)
            self._check(series, kernel, noise, expect_jitter=False)

    @pytest.mark.parametrize("family", list(_FAMILIES))
    def test_jittered_factor(self, family):
        # The first two times differ by less than any distance resolves, so
        # without noise their rows of K are identical, K is singular and the
        # jitter ladder runs on both routes.
        t = np.array([0.0, 1e-300, 1.0, 2.5, 4.0])
        series = TimeSeries(t, [0.3, 0.3, -0.2, 0.1, 0.5], noise_variances=np.zeros(5))
        kernel = _FAMILIES[family](1.3, 2.0)
        self._check(series, kernel, NoiseModel.fixed(series.noise_variances), True)

    def test_coincident_times_through_covariance_matrix(self):
        kernel = KernelSpec.se(1.0, 1.0)
        k = covariance_matrix(kernel, [1.0, 1.0, 2.5, 4.0])
        chol, jitter = factor_covariance(k, 1.0)
        o_chol, o_jitter = _oracle_factor(k, 1.0)
        assert jitter > 0.0 and jitter == o_jitter
        assert np.array_equal(chol, o_chol)


_FITTING_FAMILIES = [("se", None), ("matern", 0.5), ("matern", 1.5), ("matern", 2.5)]


def _kernel(family, nu, sf2, l):
    return KernelSpec.se(sf2, l) if family == "se" else KernelSpec.matern(nu, sf2, l)


def _noise(series, sn2):
    if sn2 is None:
        return NoiseModel.fixed(series.noise_variances)
    return NoiseModel.estimated(sn2)


def _per_call(series, family, nu, sf2, l, sn2):
    # Members with extreme hyperparameters overflow as a fit's do; fit
    # silences the same warnings.
    with np.errstate(over="ignore", invalid="ignore"):
        return log_marginal_likelihood_and_gradient(
            series, _kernel(family, nu, sf2, l), _noise(series, sn2)
        )


def _jitter(series, family, nu, sf2, l, sn2):
    """The jitter the per-call path adds to this member's K."""
    return gp._factorize(series, _kernel(family, nu, sf2, l), _noise(series, sn2))[3]


@st.composite
def _batches(draw):
    """1 to 4 series of one length, 2 to 15 points, all with or all without
    per-point variances; a fitting family; and 1 to 20 members, each with
    one of those series and its own hyperparameters."""
    n = draw(st.integers(2, 15))
    b = draw(st.integers(1, 20))
    family, nu = draw(st.sampled_from(_FITTING_FAMILIES))
    fixed = draw(st.booleans())
    pool = []
    for _ in range(draw(st.integers(1, 4))):
        gaps = draw(st.lists(st.floats(0.05, 3.0), min_size=n - 1, max_size=n - 1))
        times = np.concatenate([[0.0], np.cumsum(gaps)])
        values = draw(st.lists(st.floats(-3.0, 3.0), min_size=n, max_size=n))
        variances = None
        if fixed:
            variances = draw(st.lists(st.floats(1e-3, 0.5), min_size=n, max_size=n))
        pool.append(TimeSeries(times, values, variances))
    series = [pool[draw(st.integers(0, len(pool) - 1))] for _ in range(b)]

    def members(lo, hi):
        logs = draw(st.lists(st.floats(lo, hi), min_size=b, max_size=b))
        return [math.exp(v) for v in logs]

    sf2, l = members(-5.0, 5.0), members(-4.0, 4.0)
    sn2 = None if fixed else members(-12.0, 1.0)
    return series, family, nu, sf2, l, sn2


class TestBatchedLikelihood:
    """``gp._lml_and_grad_batch`` gives every member it evaluates the bits
    of log_marginal_likelihood_and_gradient on the member's own series, and
    leaves to it exactly the members that need jitter or whose K is not
    finite."""

    @staticmethod
    def _check_members(series, family, nu, sf2, l, sn2):
        # ``series`` holds each member's series.
        params = np.array([sf2, l] if sn2 is None else [sf2, l, sn2]).T
        variances = None
        if sn2 is None:
            variances = np.array([s.noise_variances for s in series])
        with np.errstate(over="ignore", invalid="ignore"):
            values, grads, ok = gp._lml_and_grad_batch(
                family,
                nu,
                params,
                np.array([s.distances for s in series]),
                np.array([s.values for s in series]),
                variances,
            )
        assert values.shape == (len(sf2),) and len(ok) == len(sf2)
        assert grads.shape == (len(sf2), 2 if sn2 is None else 3)
        for i, done in enumerate(ok):
            member = (sf2[i], l[i], None if sn2 is None else sn2[i])
            if not done:
                continue
            value, grad = _per_call(series[i], family, nu, *member)
            assert values[i] == value
            assert grads[i].shape == grad.shape
            assert all(a == b for a, b in zip(grads[i].tolist(), grad.tolist()))
        return ok

    @settings(max_examples=150, deadline=None)
    @given(batch=_batches())
    def test_every_member_is_bitwise_the_per_call_result(self, batch):
        series, family, nu, sf2, l, sn2 = batch
        ok = self._check_members(series, family, nu, sf2, l, sn2)
        for i, done in enumerate(ok):
            if not done:
                # left to the per-call path only when that path jitters
                member = (sf2[i], l[i], None if sn2 is None else sn2[i])
                assert _jitter(series[i], family, nu, *member) > 0.0

    @pytest.mark.parametrize("family, nu", _FITTING_FAMILIES)
    def test_jittered_and_non_finite_members_take_the_per_call_path(self, family, nu):
        # The first two times differ by less than any distance resolves, so
        # a member with negligible noise has a singular K; a member whose
        # signal and noise variances sum past the largest float has an
        # infinite diagonal.
        t = np.array([0.0, 1e-300, 1.0, 2.5, 4.0])
        series = TimeSeries(t, [0.3, 0.1, -0.2, 0.1, 0.5])
        sf2 = [1.3, 1.3, 1e308, 0.7]
        l = [2.0, 2.0, 2.0, 0.9]
        sn2 = [0.1, 1e-300, 1e308, 0.02]
        ok = self._check_members([series] * 4, family, nu, sf2, l, sn2)
        assert ok == [True, False, False, True]
        assert _jitter(series, family, nu, sf2[1], l[1], sn2[1]) > 0.0
        with pytest.raises(ValueError, match="infs or NaNs"):
            _per_call(series, family, nu, sf2[2], l[2], sn2[2])


@st.composite
def _systems(draw):
    """The lower Cholesky factor of an SE covariance over 1 to 15 random
    times, with noise down to 1e-12 of sf2, and a random y."""
    n = draw(st.integers(1, 15))
    times = np.sort(draw(st.lists(st.floats(0.0, 10.0), min_size=n, max_size=n)))
    sf2 = math.exp(draw(st.floats(-5.0, 5.0)))
    l = math.exp(draw(st.floats(-3.0, 3.0)))
    sn2 = sf2 * 10.0 ** draw(st.floats(-12.0, 0.0))
    k = sf2 * np.exp(-0.5 * (np.subtract.outer(times, times) / l) ** 2)
    k.ravel()[:: n + 1] += sn2
    chol, info = dpotrf(k, lower=1, clean=1)
    y = np.array(draw(st.lists(st.floats(-3.0, 3.0), min_size=n, max_size=n)))
    return chol, info, y


class TestOneSolvePerMember:
    """The likelihood solves [y | I] in one ``dpotrs`` call, in place; each
    column must have the bits of the solve of y alone and of I alone."""

    @settings(max_examples=300, deadline=None)
    @given(system=_systems())
    def test_columns_match_their_own_solves(self, system):
        chol, info, y = system
        if info:
            return  # not positive definite: the likelihood jitters such a K
        n = len(y)
        # The buffer of gp._value_and_gradient for one member.
        solved = np.empty((1, n + 1, n))
        solved[:, 0] = y
        solved[:, 1:] = np.eye(n)
        block = solved.transpose(0, 2, 1)[0]
        out, status = dpotrs(chol, block, lower=1, overwrite_b=1)
        assert status == 0 and np.shares_memory(out, solved)
        alpha = dpotrs(chol, y, lower=1)[0]
        k_inv = dpotrs(chol, np.eye(n), lower=1)[0]
        assert solved[0, 0].tolist() == alpha.tolist()
        assert block[:, 1:].tolist() == k_inv.tolist()
