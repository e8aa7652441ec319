import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import kv, kve

from shortgp.kernels import (
    FactorizationError,
    _cov_and_dcov_dl,
    KernelSpec,
    covariance,
    covariance_matrix,
    factor_covariance,
    spectral_density,
)
from shortgp.series import NoiseModel


class TestKernelSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            KernelSpec("se", 0.0, 1.0)
        with pytest.raises(ValueError):
            KernelSpec("se", 1.0, -1.0)
        with pytest.raises(ValueError):
            KernelSpec("matern", 1.0, 1.0)  # nu missing
        with pytest.raises(ValueError):
            KernelSpec("se", 1.0, 1.0, nu=1.5)  # nu on SE
        with pytest.raises(ValueError):
            KernelSpec("cubic", 1.0, 1.0)

    def test_constructors(self):
        spec = KernelSpec.matern(1.5, 2.0, 3.0)
        assert spec.nu == 1.5 and spec.signal_variance == 2.0


class TestCovariance:
    def test_se_at_zero(self):
        assert covariance(KernelSpec.se(1.0, 1.0), 0.0) == 1.0

    def test_se_value(self):
        assert abs(covariance(KernelSpec.se(2.0, 1.0), math.sqrt(2.0)) - 2.0 * math.exp(-1.0)) <= 1e-15

    def test_matern_half_matches_bessel_form(self):
        # evaluate the general Bessel-function form directly as the oracle
        nu, sf2, l, r = 0.5, 1.0, 1.0, 1.0
        u = math.sqrt(2.0 * nu) * r / l
        oracle = (
            sf2
            * 2.0 ** (1.0 - nu)
            / math.exp(math.lgamma(nu))
            * u**nu
            * kv(nu, u)
        )
        value = covariance(KernelSpec.matern(nu, sf2, l), r)
        assert abs(value - math.exp(-1.0)) <= 1e-12
        assert abs(value - oracle) <= 1e-10

    @pytest.mark.parametrize("nu", [1.5, 2.5])
    def test_closed_forms_match_bessel_route(self, nu):
        spec = KernelSpec.matern(nu, 1.3, 0.8)
        general = KernelSpec.matern(nu + 1e-13, 1.3, 0.8)  # forces Bessel path
        for r in [0.05, 0.4, 1.7]:
            assert abs(covariance(spec, r) - covariance(general, r)) <= 1e-8

    def test_monotone_in_r(self):
        for spec in [KernelSpec.se(1.0, 0.7), KernelSpec.matern(1.5, 1.0, 0.7)]:
            vals = covariance(spec, np.linspace(0.0, 5.0, 40))
            assert vals[0] == spec.signal_variance
            assert np.all(np.diff(vals) <= 0.0)
            assert np.all(vals > 0.0)

    @given(
        st.floats(0.01, 10.0),
        st.floats(0.1, 10.0),
        st.floats(0.1, 10.0),
    )
    def test_rescaling_property(self, r, l, c):
        # k(r; l) == k(r/c; l/c)
        a = covariance(KernelSpec.se(1.0, l), r)
        b = covariance(KernelSpec.se(1.0, l / c), r / c)
        assert abs(a - b) <= 1e-12
        a = covariance(KernelSpec.matern(1.5, 1.0, l), r)
        b = covariance(KernelSpec.matern(1.5, 1.0, l / c), r / c)
        assert abs(a - b) <= 1e-12

    @pytest.mark.parametrize("nu, r", [(1.5, 1e210), (2.5, 1e60)])
    def test_matern_is_zero_where_its_decay_underflows(self, nu, r):
        # there u (nu = 3/2) or u^2 (nu = 5/2) overflows to inf, and the
        # polynomial times the decay would be inf * 0 = NaN
        spec = KernelSpec.matern(nu, 1.0, 1e-100)
        with np.errstate(over="ignore", invalid="ignore"):
            k, d_l = _cov_and_dcov_dl(spec, np.array([r]))
            assert covariance(spec, r) == 0.0
        assert k[0] == 0.0 and d_l[0] == 0.0

    @pytest.mark.parametrize(
        "spec",
        [KernelSpec.se(1.0, 1.0)]
        + [KernelSpec.matern(nu, 1.0, 1.0) for nu in (0.5, 1.5, 2.5, 0.75, 3.3)],
    )
    def test_nan_distance_gives_nan(self, spec):
        assert math.isnan(covariance(spec, np.nan))
        k, d_l = _cov_and_dcov_dl(spec, np.array([np.nan, 0.0]))
        assert math.isnan(k[0]) and math.isnan(d_l[0])
        assert k[1] == 1.0 and d_l[1] == 0.0

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("nu, l, r", [(1.5, 1e-100, 1e210), (2.5, 1e-100, 1e60),
                                          (0.75, 1e-300, 1e10), (0.75, 1.0, 1e300)])
    def test_exact_zeros_warn_nothing(self, nu, l, r):
        spec = KernelSpec.matern(nu, 1, l)
        assert covariance(spec, r) == 0.0
        k = covariance_matrix(spec, [0.0, r])
        assert np.array_equal(k, np.eye(2))

    # K and dK/dl (sf2 = l = 1) of orders where scipy's kve overflows at
    # these distances, from mpmath.besselk at 50 digits; dK/dl at
    # r = 1e-200 is about 1.5e-400, below the smallest float.
    @pytest.mark.parametrize(
        "nu, r, k, d_l",
        [
            (50.0, 1e-10, 1.0, 1.0204081632653061e-20),
            (100.0, 1e-3, 0.99999949494962379, 1.0101004947434847e-6),
            (170.0, 0.1, 0.99498311629630091, 0.010008406280875114),
            (3.0, 1e-200, 1.0, 0.0),
        ],
    )
    def test_large_orders_at_small_distances(self, nu, r, k, d_l):
        # kve(nu, u) overflows before u^nu cancels it; the small-argument
        # series of log K_nu takes over there
        spec = KernelSpec.matern(nu, 1.0, 1.0)
        got_k, got_d_l = _cov_and_dcov_dl(spec, np.array([r]))
        assert abs(got_k[0] - k) <= 1e-12 * k
        assert abs(got_d_l[0] - d_l) <= 1e-12 * d_l
        assert abs(covariance(spec, r) - k) <= 1e-12 * k
        assert np.isfinite(covariance_matrix(spec, [0.0, r, 2.0 * r])).all()

    def test_large_nu_approaches_se(self):
        se = KernelSpec.se(1.0, 1.0)
        mat = KernelSpec.matern(50.0, 1.0, 1.0)
        rs = np.linspace(0.0, 5.0, 26)
        diff = max(abs(covariance(mat, float(r)) - covariance(se, float(r))) for r in rs)
        assert diff < 0.01


def _d_length_scale(spec, r):
    """dk/dl at one distance, from the formula the likelihood gradient uses."""
    return float(_cov_and_dcov_dl(spec, np.array([float(r)]))[1][0])


class TestCovarianceGradient:
    """dk/dl, and dk/dsf2 = k / sf2: the likelihood gradient takes the Gram
    matrix itself as dK/dlog sf2."""

    def test_se_flat_at_zero(self):
        assert _d_length_scale(KernelSpec.se(1.0, 1.0), 0.0) == 0.0

    def test_se_analytic(self):
        spec = KernelSpec.se(1.0, 1.0)
        assert abs(_d_length_scale(spec, 1.0) - math.exp(-0.5)) <= 1e-14
        assert abs(covariance(spec, 1.0) / spec.signal_variance - math.exp(-0.5)) <= 1e-14

    def test_matern32_finite_difference(self):
        spec = KernelSpec.matern(1.5, 1.0, 1.3)
        r = 0.7
        h = 1e-6
        fd = (
            covariance(replace(spec, length_scale=1.3 + h), r)
            - covariance(replace(spec, length_scale=1.3 - h), r)
        ) / (2.0 * h)
        assert abs(_d_length_scale(spec, r) - fd) <= 1e-6 * abs(fd)

    def test_random_draws_match_finite_differences(self):
        rng = np.random.default_rng(7)
        families = ["se", 0.5, 1.5, 2.5]
        for _ in range(100):
            fam = families[rng.integers(0, len(families))]
            sf2 = float(np.exp(rng.uniform(-1.5, 1.5)))
            l = float(np.exp(rng.uniform(-1.5, 1.5)))
            r = float(rng.uniform(0.0, 4.0 * l))
            spec = (
                KernelSpec.se(sf2, l)
                if fam == "se"
                else KernelSpec.matern(fam, sf2, l)
            )
            h = 1e-5 * l
            fd_l = (
                covariance(replace(spec, length_scale=l + h), r)
                - covariance(replace(spec, length_scale=l - h), r)
            ) / (2.0 * h)
            h2 = 1e-5 * sf2
            fd_s = (
                covariance(replace(spec, signal_variance=sf2 + h2), r)
                - covariance(replace(spec, signal_variance=sf2 - h2), r)
            ) / (2.0 * h2)
            scale = max(abs(fd_l), 1e-8)
            assert abs(_d_length_scale(spec, r) - fd_l) <= 1e-5 * scale
            d_sf2 = covariance(spec, r) / sf2
            assert abs(d_sf2 - fd_s) <= 1e-5 * max(abs(fd_s), 1e-8)

    def test_general_nu_gradient(self):
        spec = KernelSpec.matern(3.3, 1.0, 1.1)
        r, h = 0.9, 1e-6
        fd = (
            covariance(replace(spec, length_scale=1.1 + h), r)
            - covariance(replace(spec, length_scale=1.1 - h), r)
        ) / (2.0 * h)
        assert abs(_d_length_scale(spec, r) - fd) <= 1e-6 * abs(fd)


class TestGeneralOrderMatern:
    """The vectorised Bessel path for nu outside {1/2, 3/2, 5/2}."""

    @staticmethod
    def _oracle(nu, sf2, l, r):
        # elementwise Bessel form of k and of dk/dl (order nu - 1)
        if r == 0.0:
            return sf2, 0.0
        u = math.sqrt(2.0 * nu) * r / l
        norm = sf2 * 2.0 ** (1.0 - nu) / math.gamma(nu)
        return norm * u**nu * kv(nu, u), norm * u ** (nu + 1.0) * kv(nu - 1.0, u) / l

    @pytest.mark.parametrize("nu", [0.75, 3.3, 7.3])
    def test_gram_matrix_matches_bessel_oracle(self, nu):
        rng = np.random.default_rng(11)
        times = np.sort(rng.uniform(0.0, 6.0, 15))
        sf2, l = 1.7, 0.9
        spec = KernelSpec.matern(nu, sf2, l)
        k = covariance_matrix(spec, times)
        r = np.abs(times[:, None] - times[None, :])
        dk = _cov_and_dcov_dl(spec, r)[1]  # the Gram-matrix gradient of gp.py
        for i in range(15):
            for j in range(15):
                ok, odk = self._oracle(nu, sf2, l, float(r[i, j]))
                assert abs(k[i, j] - ok) <= 1e-10 * abs(ok)
                assert abs(dk[i, j] - odk) <= 1e-10 * abs(odk)
        assert np.all(np.diag(dk) == 0.0)
        assert np.all(np.diag(k) == sf2)

    @pytest.mark.parametrize("nu", [0.3, 1.1, 4.7, 10.0])
    def test_documented_range(self, nu):
        # nu <= 10 and u = sqrt(2 nu) r / l down to 1e-6
        l = 1.0
        us = np.logspace(-6, 1.5, 25)
        rs = us * l / math.sqrt(2.0 * nu)
        spec = KernelSpec.matern(nu, 1.0, l)
        values = covariance(spec, rs)
        d_ls = _cov_and_dcov_dl(spec, rs)[1]
        for r, value, dl in zip(rs, values, d_ls):
            ok, odk = self._oracle(nu, 1.0, l, float(r))
            assert abs(value - ok) <= 1e-10 * ok
            assert abs(dl - odk) <= 1e-10 * odk

    def test_int_signal_variance_gives_floats(self):
        r = np.array([0.0, 0.5, 2.0])
        k = covariance(KernelSpec.matern(0.75, 1, 1), r)
        assert k.dtype == np.float64 and abs(k[1] - 0.6845) <= 1e-4
        assert np.array_equal(k, covariance(KernelSpec.matern(0.75, 1.0, 1.0), r))

    @pytest.mark.parametrize("nu", [0.3, 0.75, 3.3, 10.0])
    @pytest.mark.parametrize("l, r", [(1.0, 1.5e9), (1.0, 1e300), (1e-9, 1.5),
                                      (1e-300, 1e10), (1.0, np.inf)])
    def test_zero_beyond_the_bessel_range(self, nu, l, r):
        # u = sqrt(2 nu) r / l exceeds kve's argument range, 2^30 - 1/2,
        # where kve is NaN and the true value is below the smallest float
        spec = KernelSpec.matern(nu, 1.0, l)
        with np.errstate(over="ignore"):
            k, d_l = _cov_and_dcov_dl(spec, np.array([0.0, r]))
        assert k.tolist() == [1.0, 0.0] and d_l.tolist() == [0.0, 0.0]


class TestCovarianceMatrix:
    def test_single_point_diagonal(self):
        k = covariance_matrix(
            KernelSpec.se(1.0, 1.0), [0.0], NoiseModel.fixed([0.09])
        )
        assert k.shape == (1, 1)
        assert abs(k[0, 0] - 1.09) <= 1e-15

    def test_coincident_times_rank_one(self):
        sf2 = 2.0
        k = covariance_matrix(KernelSpec.se(sf2, 1.0), [1.0, 1.0])
        assert np.allclose(k, sf2 * np.ones((2, 2)), atol=1e-15)

    def test_elementwise_oracle(self):
        rng = np.random.default_rng(3)
        times = np.sort(rng.uniform(0.0, 5.0, 5))
        spec = KernelSpec.matern(1.5, 1.2, 0.9)
        noise = NoiseModel.estimated(0.04)
        k = covariance_matrix(spec, times, noise)
        for i in range(5):
            for j in range(5):
                expected = covariance(spec, abs(times[i] - times[j]))
                if i == j:
                    expected += 0.04
                assert abs(k[i, j] - expected) <= 1e-14
        assert np.allclose(k, k.T)

    def test_fixed_noise_length_mismatch(self):
        with pytest.raises(ValueError):
            covariance_matrix(
                KernelSpec.se(1.0, 1.0), [0.0, 1.0], NoiseModel.fixed([0.1])
            )


class TestFactorization:
    def test_clean_matrix_no_jitter(self):
        k = covariance_matrix(
            KernelSpec.se(1.0, 1.0), [0.0, 1.0, 2.0], NoiseModel.estimated(0.1)
        )
        chol, jitter = factor_covariance(k, 1.0)
        assert jitter == 0.0
        assert np.allclose(chol @ chol.T, k)

    def test_rank_deficient_needs_jitter(self):
        sf2 = 1.0
        k = covariance_matrix(KernelSpec.se(sf2, 1.0), [1.0, 1.0])
        chol, jitter = factor_covariance(k, sf2)
        assert 0.0 < jitter <= 1e-4 * sf2
        assert np.all(np.isfinite(chol))

    def test_indefinite_matrix_fails(self):
        bad = np.array([[1.0, 2.0], [2.0, 1.0]])  # eigenvalues 3, -1
        with pytest.raises(FactorizationError):
            factor_covariance(bad, 1.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_matrix_raises_value_error(self, bad):
        k = covariance_matrix(KernelSpec.se(1.0, 1.0), [0.0, 1.0, 2.0])
        k[2, 0] = bad  # below the diagonal, where the factorization reads
        with pytest.raises(ValueError):
            factor_covariance(k, 1.0)

    @pytest.mark.parametrize("shape", [(2, 3), (3,), (1, 2, 2)])
    def test_non_square_matrix_raises_value_error(self, shape):
        with pytest.raises(ValueError):
            factor_covariance(np.ones(shape), 1.0)


class TestSpectralDensity:
    def test_se_at_zero(self):
        assert abs(spectral_density(KernelSpec.se(1.0, 1.0), 0.0) - math.sqrt(2.0 * math.pi)) <= 1e-14

    def test_even_in_frequency(self):
        spec = KernelSpec.matern(1.5, 1.0, 0.8)
        for s in [0.1, 0.7, 3.0]:
            assert spectral_density(spec, s) == spectral_density(spec, -s)

    def test_se_normalization(self):
        spec = KernelSpec.se(1.0, 1.0)
        total, _ = quad(
            lambda s: spectral_density(spec, s), -8.0, 8.0, epsabs=1e-13, epsrel=1e-12
        )
        assert abs(total - 1.0) <= 1e-10

    def test_matern_half_lorentzian(self):
        # closed form for nu = 1/2: S(s) = 2 l / (1 + (2 pi l s)^2)
        l = 1.0
        spec = KernelSpec.matern(0.5, 1.0, l)
        for s in [0.0, 0.3, 2.0]:
            expected = 2.0 * l / (1.0 + (2.0 * math.pi * l * s) ** 2)
            assert abs(spectral_density(spec, s) - expected) <= 1e-12

    @pytest.mark.parametrize("nu", [0.5, 1.5, 2.5])
    def test_matern_normalization(self, nu):
        # Band part by direct quadrature; the |s| > W tail via the u = 1/s
        # substitution, which is polynomial-smooth for these orders.
        l = 0.7
        spec = KernelSpec.matern(nu, 1.0, l)
        w = 5.0 / l
        band, _ = quad(
            lambda s: spectral_density(spec, s), -w, w, epsabs=1e-12, epsrel=1e-11,
            points=[-1.0 / l, -0.1 / l, 0.1 / l, 1.0 / l], limit=200,
        )
        tail, _ = quad(
            lambda u: spectral_density(spec, 1.0 / u) / (u * u),
            1e-9,
            1.0 / w,
            epsabs=1e-12,
            epsrel=1e-11,
            limit=200,
        )
        total = band + 2.0 * tail
        assert abs(total - 1.0) <= 1e-8

    def test_unit_signal_variance_convention(self):
        # densities are per unit signal variance: sf2 does not change them
        a = spectral_density(KernelSpec.se(1.0, 1.0), 0.2)
        b = spectral_density(KernelSpec.se(7.0, 1.0), 0.2)
        assert a == b


def _standalone(spec, r):
    """K and dK/dl over ``r``, each formula written out on its own, with its
    own exp (the general order: its own log-space Bessel form); dK/dl is 0
    where the Matern 3/2 and 5/2 decay underflows."""
    sf2, l, nu = spec.signal_variance, spec.length_scale, spec.nu
    if spec.family == "se":
        return (
            sf2 * np.exp(-0.5 * (r / l) ** 2),
            sf2 * np.exp(-0.5 * (r / l) ** 2) * r * r / l**3,
        )
    if nu == 0.5:
        return sf2 * np.exp(-r / l), sf2 * np.exp(-r / l) * r / l**2
    if nu in (1.5, 2.5):
        u = (math.sqrt(2.0 * nu) / l) * r
        if nu == 1.5:
            k = sf2 * (1.0 + u) * np.exp(-u)
            d_l = sf2 * 3.0 * r * r / l**3 * np.exp(-u)
        else:
            k = sf2 * (1.0 + u + u * u / 3.0) * np.exp(-u)
            d_l = sf2 * (5.0 * r * r / (3.0 * l**3)) * (1.0 + u) * np.exp(-u)
        d_l[np.exp(-u) == 0.0] = 0.0
        return k, d_l
    pos = r > 0.0
    u = (math.sqrt(2.0 * nu) / l) * r[pos]
    log_c = math.log(sf2) + (1.0 - nu) * math.log(2.0) - math.lgamma(nu)
    k, d_l = np.full(r.shape, float(sf2)), np.zeros(r.shape)
    k[pos] = np.exp(log_c + nu * np.log(u) + (np.log(kve(nu, u)) - u))
    d_l[pos] = np.exp(log_c + (nu + 1.0) * np.log(u) + (np.log(kve(nu - 1.0, u)) - u)) / l
    return k, d_l


def _gram_distances():
    # the 15-point grid of TestGeneralOrderMatern
    times = np.sort(np.random.default_rng(11).uniform(0.0, 6.0, 15))
    return np.abs(times[:, None] - times[None, :])


_SHARED_EXP_CASES = [
    # (family, nu, sf2, l, distances)
    ("se", None, 1.0, 1.0, np.array([0.0, 1.0])),  # TestCovarianceGradient
    ("se", None, 1.7, 0.9, _gram_distances()),
    ("matern", 0.5, 1.7, 0.9, _gram_distances()),
    ("matern", 1.5, 1.0, 1.3, np.array([0.0, 0.7])),  # TestCovarianceGradient
    ("matern", 1.5, 1.7, 0.9, _gram_distances()),
    ("matern", 2.5, 1.7, 0.9, _gram_distances()),
    ("matern", 3.3, 1.0, 1.1, np.array([0.0, 0.9])),  # TestCovarianceGradient
    *(("matern", nu, 1.7, 0.9, _gram_distances()) for nu in (0.75, 3.3, 7.3)),
    # tiny l: the decay underflows to 0 and r^2 / l^3 overflows to inf
    ("se", None, 2.0, 1e-105, _gram_distances()),
    *(("matern", nu, 2.0, 1e-105, _gram_distances()) for nu in (0.5, 1.5, 2.5)),
]


class TestSharedExponential:
    @pytest.mark.parametrize("family, nu, sf2, l, r", _SHARED_EXP_CASES)
    def test_equals_the_standalone_formulas(self, family, nu, sf2, l, r):
        spec = KernelSpec(family, sf2, l, nu)
        with np.errstate(over="ignore", invalid="ignore"):
            k, d_l = _cov_and_dcov_dl(spec, r)
            k_only, none = _cov_and_dcov_dl(spec, r, d_length_scale=False)
            o_k, o_d_l = _standalone(spec, r)
        assert none is None
        assert np.array_equal(k, o_k) and np.array_equal(k_only, o_k)
        assert np.array_equal(d_l, o_d_l)
        assert np.isfinite(d_l).all()
        if l == 1e-105:
            off_diagonal = r > 0.0
            assert np.all(k[off_diagonal] == 0.0) and np.all(d_l[off_diagonal] == 0.0)
