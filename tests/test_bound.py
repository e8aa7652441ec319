import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import betainc, gamma, hyp2f1

from shortgp.bound import (
    BoundError,
    SamplingInfo,
    delta_t_from_times,
    length_scale_bound,
    matern_energy_fraction,
    se_energy_fraction,
)
from shortgp.kernels import KernelSpec, spectral_density


class TestDeltaT:
    def test_uniform_grid(self):
        info = delta_t_from_times([0.0, 1.0, 2.0, 3.0])
        assert info.delta_t == 1.0
        assert info.uniform
        assert info.nyquist_frequency * 2.0 * info.delta_t == 1.0

    def test_non_uniform_uses_min_gap(self):
        info = delta_t_from_times([0.0, 0.5, 2.0, 3.0])
        assert info.delta_t == 0.5
        assert not info.uniform

    def test_seven_point_benchmark_grid(self):
        times = np.linspace(-5.0, 6.0, 7)
        info = delta_t_from_times(times)
        assert abs(info.delta_t - 11.0 / 6.0) <= 1e-12
        assert info.uniform

    def test_uniform_tolerance(self):
        base = [0.0, 1.0, 2.0 + 1e-12, 3.0]
        assert delta_t_from_times(base).uniform
        assert not delta_t_from_times([0.0, 1.0, 2.001, 3.0]).uniform

    def test_median_rule_flagged(self):
        info = delta_t_from_times([0.0, 0.5, 2.0, 3.5], rule="median_gap")
        assert info.rule == "median_gap"
        assert info.delta_t == 1.5
        assert delta_t_from_times([0.0, 0.5, 2.0, 3.5]).rule == "min_gap"

    def test_errors(self):
        with pytest.raises(ValueError):
            delta_t_from_times([1.0])
        with pytest.raises(ValueError):
            delta_t_from_times([0.0, 0.0, 1.0])
        with pytest.raises(ValueError):
            delta_t_from_times([1.0, 0.5])
        with pytest.raises(ValueError):
            delta_t_from_times([0.0, 1.0], rule="mean_gap")

    def test_overflowing_span_rejected(self):
        # every gap is finite, but t[-1] - t[0] is not
        with pytest.raises(ValueError, match="span"):
            delta_t_from_times([-1e308, 0.0, 1e308])

    @given(st.floats(min_value=0.0, max_value=8e307, exclude_min=True))
    def test_nyquist_frequency_keeps_the_old_bits(self, delta_t):
        # 0.5 / dt equals 1 / (2 dt) bitwise wherever 2 dt is finite
        nyquist = SamplingInfo(delta_t, uniform=True).nyquist_frequency
        assert nyquist.hex() == (1.0 / (2.0 * delta_t)).hex()


class TestSeEnergyFraction:
    def test_saturation(self):
        frac = se_energy_fraction(100.0, 1.0)
        assert frac >= 1.0 - 1e-12
        assert frac < 1.0

    def test_bound_constant(self):
        assert abs(se_energy_fraction(0.8199, 1.0) - 0.99) <= 1e-4

    def test_quadrature_oracle(self):
        # oracle: band integral of the unit-variance spectral density
        spec = KernelSpec.se(1.0, 1.0)
        band, _ = quad(
            lambda s: spectral_density(spec, s), -0.5, 0.5, epsabs=1e-13, epsrel=1e-12
        )
        assert abs(se_energy_fraction(1.0, 1.0) - band) <= 1e-9

    def test_monotone_in_length_scale(self):
        # strict growth over 50 log-spaced samples in the double-resolvable
        # regime, plus the (0, 1) range limits at the extremes
        vals = [se_energy_fraction(float(l), 1.0) for l in np.logspace(-3, 0.3, 50)]
        assert all(0.0 < v < 1.0 for v in vals)
        assert all(b > a for a, b in zip(vals, vals[1:]))
        assert se_energy_fraction(1e-6, 1.0) < 1e-5
        assert se_energy_fraction(1e6, 1.0) >= 1.0 - 1e-12


class TestMaternEnergyFraction:
    def test_saturation(self):
        assert matern_energy_fraction(1.5, 1000.0, 1.0) >= 0.999

    def test_half_nu_arctan_closed_form(self):
        # nu = 1/2 band energy reduces to (2/pi) arctan(pi l / dt)
        frac = matern_energy_fraction(0.5, 1.0, 1.0)
        assert abs(frac - 2.0 / math.pi * math.atan(math.pi)) <= 1e-6
        assert abs(frac - 0.8038134760954128) <= 1e-9

    def test_monotone_and_onto(self):
        # strictness sampled where the fraction stays resolvable below one;
        # the heavy nu = 1/2 tail keeps it resolvable across twelve decades
        for nu, hi in [(0.5, 6.0), (1.5, 2.0), (4.0, 1.0)]:
            vals = [
                matern_energy_fraction(nu, float(l), 1.0)
                for l in np.logspace(-6, hi, 50)
            ]
            assert all(0.0 < v < 1.0 for v in vals)
            assert all(b > a for a, b in zip(vals, vals[1:]))
            assert vals[0] < 1e-3
            assert matern_energy_fraction(nu, 1e6, 1.0) > 0.9999

    @pytest.mark.parametrize("nu", [0.5, 0.75, 1.5, 2.5, 4.0, 7.3])
    def test_quadrature_oracle(self, nu):
        # oracle: band integral of the unit-variance spectral density, with
        # breakpoints across the roll-off scale s0 = sqrt(2 nu) / (2 pi l)
        for l in np.logspace(-2, 2, 9):
            spec = KernelSpec.matern(nu, 1.0, float(l))
            s0 = math.sqrt(2.0 * nu) / (2.0 * math.pi * float(l))
            breaks = [s0 * 10.0**k for k in range(-2, 6) if s0 * 10.0**k < 0.5]
            band, _ = quad(
                lambda s: spectral_density(spec, s),
                0.0,
                0.5,
                epsabs=1e-14,
                epsrel=1e-13,
                points=breaks or None,
                limit=200,
            )
            assert abs(matern_energy_fraction(nu, float(l), 1.0) - 2.0 * band) <= 1e-12

    def test_nu_three_halves_quadrature_vs_closed_form(self):
        # nu = 3/2 is a Student-t with 3 degrees of freedom, whose two-sided
        # probability is elementary: (2/pi) (y / (1 + y^2) + arctan y) with
        # y = pi l / (sqrt(3) dt)
        spec = KernelSpec.matern(1.5, 1.0, 2.0)
        band, _ = quad(
            lambda s: spectral_density(spec, s), 0.0, 0.5, epsabs=1e-14, epsrel=1e-13
        )
        y = 2.0 * math.pi / math.sqrt(3.0)
        closed = 2.0 / math.pi * (y / (1.0 + y * y) + math.atan(y))
        frac = matern_energy_fraction(1.5, 2.0, 1.0)
        assert abs(frac - closed) <= 1e-9
        assert abs(frac - 2.0 * band) <= 1e-9

    def test_hypergeometric_cross_check_ratio(self):
        # The paper's closed form for the band energy,
        #   4 l sqrt(2 pi) Gamma(nu + 1/2) / (dt sqrt(nu) Gamma(nu))
        #     * 2F1(1/2, nu + 1/2; 3/2; -pi^2 l^2 / (2 nu dt^2)),
        # is four times the normalized energy fraction.
        for nu in [0.75, 1.5, 4.0]:
            for l in [0.3, 1.0, 2.0, 5.0]:
                paper = (
                    4.0
                    * l
                    * math.sqrt(2.0 * math.pi)
                    * gamma(nu + 0.5)
                    / (math.sqrt(nu) * gamma(nu))
                    * hyp2f1(0.5, nu + 0.5, 1.5, -((math.pi * l) ** 2) / (2.0 * nu))
                )
                assert abs(paper / 4.0 - matern_energy_fraction(nu, l, 1.0)) <= 1e-12


class TestLengthScaleBound:
    def test_se_constant(self):
        assert abs(length_scale_bound("se", 0.99, 1.0) - 0.8199) <= 1e-4

    def test_se_benchmark_sampling(self):
        assert abs(length_scale_bound("se", 0.99, 11.0 / 6.0) - 1.5032) <= 1e-3

    def test_matern_half_tan_inversion(self):
        expected = math.tan(0.99 * math.pi / 2.0) / math.pi
        got = length_scale_bound("matern", 0.99, 1.0, nu=0.5)
        assert abs(got - expected) <= 1e-4

    @pytest.mark.parametrize("family,nu", [("se", None), ("matern", 0.5), ("matern", 1.5), ("matern", 2.5), ("matern", 4.0)])
    @pytest.mark.parametrize("alpha", [0.5, 0.9, 0.99, 0.999])
    def test_round_trip(self, family, nu, alpha):
        a_l = length_scale_bound(family, alpha, 1.0, nu)
        if family == "se":
            frac = se_energy_fraction(a_l, 1.0)
        else:
            frac = matern_energy_fraction(nu, a_l, 1.0)
        assert abs(frac - alpha) <= 1e-7

    @pytest.mark.parametrize("c", [0.1, 3.0, 17.0])
    def test_linearity_in_delta_t(self, c):
        base = length_scale_bound("matern", 0.99, 1.0, nu=1.5)
        scaled = length_scale_bound("matern", 0.99, c, nu=1.5)
        assert abs(scaled - c * base) <= 1e-9 * c * base
        base_se = length_scale_bound("se", 0.99, 1.0)
        assert abs(length_scale_bound("se", 0.99, c) - c * base_se) <= 1e-12 * c * base_se

    def test_bound_grows_as_nu_shrinks(self):
        bounds = [length_scale_bound("matern", 0.99, 1.0, nu) for nu in [0.5, 1.5, 2.5, 10.0]]
        assert all(a > b for a, b in zip(bounds, bounds[1:]))

    def test_large_nu_approaches_se_bound(self):
        matern = length_scale_bound("matern", 0.99, 1.0, nu=100.0)
        se = length_scale_bound("se", 0.99, 1.0)
        assert abs(matern - se) / se < 0.02

    @given(st.floats(0.05, 0.995), st.floats(0.01, 100.0))
    def test_se_round_trip_property(self, alpha, dt):
        a_l = length_scale_bound("se", alpha, dt)
        assert abs(se_energy_fraction(a_l, dt) - alpha) <= 1e-9

    def test_errors(self):
        with pytest.raises(ValueError):
            length_scale_bound("se", 0.0, 1.0)
        with pytest.raises(ValueError):
            length_scale_bound("se", 0.99, 0.0)
        for family, nu in (("se", None), ("matern", 1.5)):
            with pytest.raises(ValueError, match="delta_t"):
                length_scale_bound(family, 0.99, math.inf, nu)
        with pytest.raises(ValueError, match="delta_t"):
            se_energy_fraction(1.0, math.inf)
        with pytest.raises(ValueError, match="delta_t"):
            matern_energy_fraction(1.5, 1.0, math.inf)
        with pytest.raises(ValueError):
            length_scale_bound("matern", 0.99, 1.0)  # nu missing
        with pytest.raises(ValueError):
            length_scale_bound("cubic", 0.99, 1.0)
        with pytest.raises(BoundError):
            # a bound near 1e1000 dt overflows the double range
            length_scale_bound("matern", 0.99, 1.0, nu=0.001)

    def test_matern_half_extreme_alpha_exact(self):
        # nu = 1/2 inverts to 1 / (pi tan((1 - alpha) pi / 2)); the naive
        # tan(alpha pi / 2) / pi loses digits as alpha approaches one
        alpha = 1.0 - 1e-9
        expected = 1.0 / (math.pi * math.tan((1.0 - alpha) * math.pi / 2.0))
        got = length_scale_bound("matern", alpha, 1.0, nu=0.5)
        assert abs(got / expected - 1.0) <= 1e-12

    @pytest.mark.parametrize("nu", [0.5, 1.5, 2.5, 4.0, 10.0, 100.0])
    def test_matern_tail_forward_check(self, nu):
        # the closed-form bound reproduces its upper-tail energy 1 - alpha
        for alpha in [0.5, 0.9, 0.99, 0.999]:
            a_l = length_scale_bound("matern", alpha, 1.0, nu)
            x2 = (math.pi * a_l) ** 2
            tail = betainc(nu, 0.5, 2.0 * nu / (2.0 * nu + x2))
            assert abs(tail - (1.0 - alpha)) <= 1e-9 * (1.0 - alpha)
