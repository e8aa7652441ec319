"""Special functions behind the length-scale bound and the Matern kernels.

shortgp takes its special functions from the standard library and
scipy.special: ``se_energy_fraction`` uses ``math.erf``, the SE bound
inverts it with ``scipy.special.erfinv``, the general-order Matern kernel
evaluates log K_nu through ``kernels._log_bessel_k`` and log Gamma through
``math.lgamma``.  These tests pin the properties the package relies on,
through the package functions wherever they expose the quantity, and
otherwise on the exact pairing of library calls the package makes.
"""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import erfinv, kv

from shortgp.bound import length_scale_bound, matern_energy_fraction, se_energy_fraction
from shortgp.kernels import KernelSpec, _log_bessel_k, spectral_density

# se_energy_fraction(l, dt) = erf(x) with x = pi l / (sqrt(2) dt)
_L_PER_X = math.sqrt(2.0) / math.pi


def bessel_k(nu, x):
    return float(np.exp(_log_bessel_k(nu, x)))


class TestErf:
    def test_against_quadrature_oracle(self):
        # oracle: erf(x) = (2/sqrt(pi)) * integral of exp(-t^2) over [0, x]
        x = 2.2214
        value, _ = quad(lambda t: np.exp(-t * t), 0.0, x, epsabs=1e-14, epsrel=1e-13)
        oracle = 2.0 / math.sqrt(math.pi) * value
        frac = se_energy_fraction(x * _L_PER_X, 1.0)
        assert abs(frac - oracle) <= 1e-10
        assert abs(frac - 0.9983193471037868) <= 1e-12  # frozen from the oracle

    def test_monotone(self):
        xs = np.linspace(0.1, 4.0, 40)
        ys = [se_energy_fraction(float(x) * _L_PER_X, 1.0) for x in xs]
        assert all(b > a for a, b in zip(ys, ys[1:]))


class TestErfinv:
    def test_zero(self):
        assert float(erfinv(0.0)) == 0.0

    def test_bound_constant(self):
        # sqrt(2) * erfinv(0.99) / pi is the 0.99-energy bound coefficient
        assert abs(length_scale_bound("se", 0.99, 1.0) - 0.8199) <= 5e-5

    def test_round_trip_through_erf(self):
        a_l = length_scale_bound("se", se_energy_fraction(1.3 * _L_PER_X, 1.0), 1.0)
        assert abs(a_l / _L_PER_X - 1.3) <= 1e-9

    @given(st.floats(-4.0, 4.0, allow_nan=False))
    def test_identity_on_erf_range(self, x):
        assert abs(float(erfinv(math.erf(x))) - x) <= 1e-9 * max(1.0, abs(x))

    @given(st.floats(4.0, 5.0, allow_nan=False))
    def test_identity_near_saturation(self, x):
        # Beyond |x| ~ 4 the identity is conditioning-limited in doubles:
        # erf is flat to machine resolution (erf'(x) ~ e^(-x^2)), so a
        # half-ulp rounding of erf(x) moves the preimage by
        # ~ eps * sqrt(pi)/2 * e^(x^2).  Assert up to that limit.
        limit = 4.0 * 2.3e-16 * math.sqrt(math.pi) / 2.0 * math.exp(x * x)
        assert abs(float(erfinv(math.erf(x))) - x) <= max(1e-9, limit)

    def test_forward_round_trip(self):
        for p in np.linspace(0.00001, 0.99999, 101):
            a_l = length_scale_bound("se", float(p), 1.0)
            assert abs(se_energy_fraction(a_l, 1.0) - p) <= 1e-10

    @pytest.mark.parametrize("p", [1.0, -1.0, 1.5, -2.0, math.nan])
    def test_domain_error(self, p):
        with pytest.raises(ValueError):
            length_scale_bound("se", p, 1.0)


class TestLogGamma:
    @pytest.mark.parametrize("x", [0.0, -1.0, -0.5, math.nan])
    def test_domain_error(self, x):
        # every caller that takes Gamma(nu) rejects nu outside (0, inf)
        with pytest.raises(ValueError):
            KernelSpec.matern(x, 1.0, 1.0)
        with pytest.raises(ValueError):
            matern_energy_fraction(x, 1.0, 1.0)
        with pytest.raises(ValueError):
            length_scale_bound("matern", 0.99, 1.0, nu=x)


class TestBesselK:
    def test_half_integer_closed_forms(self):
        assert abs(bessel_k(0.5, 2.0) - math.sqrt(math.pi / 4.0) * math.exp(-2.0)) <= 1e-15
        expected_32 = math.sqrt(math.pi / 2.0) * math.exp(-1.0) * (1.0 + 1.0)
        assert abs(bessel_k(1.5, 1.0) - expected_32) <= 1e-15

    def test_general_order_quadrature_oracle(self):
        # oracle: K_nu(x) = integral over [0, inf) of exp(-x cosh t) cosh(nu t)
        nu, x = 2.2, 0.7
        value, _ = quad(
            lambda t: np.exp(-x * np.cosh(t)) * np.cosh(nu * t),
            0.0,
            30.0,
            epsabs=1e-12,
            epsrel=1e-12,
        )
        assert abs(bessel_k(nu, x) - value) <= 1e-9 * value
        assert abs(bessel_k(nu, x) - 5.05021657137350) <= 1e-8  # frozen

    def test_against_scipy(self):
        for nu in [0.0, 0.3, 1.0, 2.2, 5.5, 10.0]:
            for x in [1e-6, 1e-2, 0.7, 5.0, 50.0]:
                ref = float(kv(nu, x))
                assert abs(bessel_k(nu, x) - ref) <= 1e-8 * ref

    def test_positive_and_decreasing_in_x(self):
        for nu in [0.0, 0.5, 2.2, 7.0]:
            vals = [bessel_k(nu, x) for x in np.logspace(-3, 1.5, 25)]
            assert all(v > 0.0 for v in vals)
            assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_order_sign_symmetry(self):
        # the length-scale gradient evaluates K_(nu-1), a negative order for nu < 1
        for nu in [0.5, 1.1, 3.0]:
            assert _log_bessel_k(-nu, 1.7) == _log_bessel_k(nu, 1.7)

    def test_log_variant_handles_extreme_magnitudes(self):
        # K_50(1) overflows nothing in log space
        assert abs(_log_bessel_k(50.0, 1.0) - math.log(kv(50.0, 1.0))) <= 1e-9

    @pytest.mark.parametrize("x", [0.0, -1.0, math.nan])
    def test_domain_error(self, x):
        assert not np.isfinite(_log_bessel_k(1.0, x))


class TestIntegrateAdaptive:
    def test_se_spectral_band_matches_erf(self):
        # unit-variance SE spectral density integrated over one Nyquist band
        spec = KernelSpec.se(1.0, 1.0)
        value, _ = quad(
            lambda s: spectral_density(spec, s), -0.5, 0.5, epsabs=1e-13, epsrel=1e-12
        )
        assert abs(value - se_energy_fraction(1.0, 1.0)) <= 1e-10
