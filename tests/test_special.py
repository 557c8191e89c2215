import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from gibbslines import special as sp

import series_oracle


class TestLogGamma:
    def test_integer_values(self):
        assert sp.log_gamma(1.0) == pytest.approx(0.0, abs=1e-14)
        assert sp.log_gamma(2.0) == pytest.approx(0.0, abs=1e-14)

    def test_half_against_quadrature(self):
        # independent oracle: Gamma(1/2) by quadrature of the defining integral
        val, err = quad(lambda t: t**-0.5 * math.exp(-t), 0, np.inf)
        assert err < 1e-9
        assert sp.log_gamma(0.5) == pytest.approx(math.log(val), rel=1e-9)
        assert sp.log_gamma(0.5) == pytest.approx(0.5 * math.log(math.pi), rel=1e-12)

    def test_recurrence_over_contract_range(self):
        for x in (1e-3, 0.02, 0.5, 3.7, 41.0, 999.0):
            lhs = sp.log_gamma(x + 1.0)
            rhs = sp.log_gamma(x) + math.log(x)
            assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            sp.log_gamma(0.0)
        with pytest.raises(ValueError):
            sp.log_gamma(-1.5)


class TestDigamma:
    def test_at_one(self):
        assert sp.digamma(1.0) == pytest.approx(-np.euler_gamma, abs=1e-10)

    def test_at_two(self):
        assert sp.digamma(2.0) == pytest.approx(1.0 - np.euler_gamma, abs=1e-10)

    def test_at_half(self):
        # closed form -gamma_E - 2 log 2
        assert sp.digamma(0.5) == pytest.approx(-np.euler_gamma - 2 * math.log(2), abs=1e-10)

    def test_brute_force_partial_sum(self):
        # oracle: raw partial sum with integral tail bracket
        z = 3.25
        n = np.arange(0, 200000, dtype=float)
        partial = float(np.sum(1.0 / (n + 1.0) - 1.0 / (n + z))) - np.euler_gamma
        lo = partial + math.log((200000.0 + z) / (200001.0))
        assert sp.digamma(z) == pytest.approx(lo, abs=1e-8)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            sp.digamma(-0.5)

    def test_recurrence_property(self):
        z = np.linspace(0.1, 10.0, 100)
        lhs = sp.digamma(z + 1.0) - sp.digamma(z)
        assert np.max(np.abs(lhs - 1.0 / z)) < 1e-10


class TestTrigamma:
    def test_basel(self):
        # oracle: partial sums with integral tail bounds bracket pi^2/6
        n = np.arange(0, 10**6, dtype=float)
        partial = float(np.sum(1.0 / (n + 1.0) ** 2))
        assert partial < math.pi**2 / 6 < partial + 1.0 / 10**6 + 1e-9
        assert sp.trigamma(1.0) == pytest.approx(math.pi**2 / 6, abs=1e-10)

    def test_drop_first_term(self):
        assert sp.trigamma(2.0) == pytest.approx(math.pi**2 / 6 - 1.0, abs=1e-10)

    def test_symmetry_at_half_theta(self):
        for theta in (0.5, 1.0, 3.0):
            a = sp.trigamma(theta / 2)
            b = sp.trigamma(theta - theta / 2)
            assert a == b

    def test_positive(self):
        z = np.linspace(0.05, 20, 50)
        assert np.all(sp.trigamma(z) > 0)


class TestSeriesOracle:
    """scipy's digamma/polygamma against the tail-corrected defining series."""

    @pytest.mark.parametrize("name", ["digamma", "trigamma", "inverse_cube_sum"])
    def test_scipy_matches_series(self, name):
        z = np.linspace(0.05, 20.0, 100)
        got = getattr(sp, name)(z)
        expect = getattr(series_oracle, name)(z)
        assert np.max(np.abs(got - expect)) < 1e-10

    @pytest.mark.parametrize("theta", [0.25, 0.5, 1.0, 2.0, 5.0])
    def test_closed_form_lambda_matches_finite_difference(self, theta):
        # second difference (step 1e-4) of the series-built shape function
        fd = series_oracle.lam_finite_difference(theta)
        assert sp.scaling_constants(theta).lam == pytest.approx(fd, rel=1e-6)


class TestGTheta:
    def test_symmetry_point(self):
        for theta in (0.25, 1.0, 2.0, 5.0):
            assert sp.g_theta(theta, theta / 2) == pytest.approx(1.0, abs=1e-12)

    def test_frozen_fixture(self):
        # mpmath oracle: zeta(2, 0.75)/zeta(2, 0.25)
        assert sp.g_theta(1.0, 0.25) == pytest.approx(0.147806652116408759, rel=1e-11)

    def test_domain(self):
        with pytest.raises(ValueError):
            sp.g_theta(1.0, 0.0)
        with pytest.raises(ValueError):
            sp.g_theta(1.0, 1.0)

    @settings(max_examples=40, deadline=None)
    @given(
        z1=st.floats(min_value=0.02, max_value=0.98),
        z2=st.floats(min_value=0.02, max_value=0.98),
    )
    def test_strictly_increasing(self, z1, z2):
        if abs(z1 - z2) < 1e-6:
            return
        lo, hi = sorted((z1, z2))
        assert sp.g_theta(1.0, lo) < sp.g_theta(1.0, hi)

    def test_inverse_round_trips(self):
        theta = 1.0
        for x in (0.1, 1.0, 10.0):
            z = sp.g_theta_inv(theta, x)
            assert sp.g_theta(theta, z) == pytest.approx(x, rel=1e-10)

    def test_inv_symmetry(self):
        assert sp.g_theta_inv(3.0, 1.0) == pytest.approx(1.5, abs=1e-10)

    def test_inv_frozen_fixture(self):
        # mpmath root of zeta(2, 2 - z) = 3 zeta(2, z)
        assert sp.g_theta_inv(2.0, 3.0) == pytest.approx(1.3535685803215326, abs=1e-9)

    def test_inv_domain(self):
        with pytest.raises(ValueError):
            sp.g_theta_inv(1.0, -2.0)

    def test_round_trip_grid(self):
        x = np.linspace(0.05, 20.0, 100)
        z = sp.g_theta_inv(1.0, x)
        back = sp.g_theta(1.0, z)
        assert np.max(np.abs(back - x)) < 1e-9


class TestHTheta:
    def test_at_one(self):
        for theta in (0.5, 1.0, 2.0):
            expect = 2.0 * sp.digamma(theta / 2)
            assert sp.h_theta(theta, 1.0) == pytest.approx(expect, abs=1e-9)

    def test_derivative_identity(self):
        # h'(x) = psi(g^{-1}(x)), checked by central difference
        theta, x, d = 1.0, 1.0, 1e-5
        fd = (
            sp.h_theta(theta, x + d)
            - sp.h_theta(theta, x - d)
        ) / (2 * d)
        expect = sp.digamma(sp.g_theta_inv(theta, x))
        assert fd == pytest.approx(expect, abs=1e-6)

    def test_frozen_fixture(self):
        # composition of independently validated sub-operations (mpmath)
        assert sp.h_theta(1.0, 2.0) == pytest.approx(
            -5.642622889673296, abs=1e-8
        )

    def test_second_difference_richardson(self):
        # smoothness: second difference stable under step halving (ratio ~ 4)
        theta = 1.0

        def second_diff(d):
            return (
                sp.h_theta(theta, 1 + d)
                - 2 * sp.h_theta(theta, 1.0)
                + sp.h_theta(theta, 1 - d)
            )

        d = 1e-3
        ratio = second_diff(d) / second_diff(d / 2)
        assert ratio == pytest.approx(4.0, rel=0.2)


class TestScalingConstants:
    def test_theta_one_frozen_set(self):
        c = sp.scaling_constants(1.0)
        # mpmath-generated fixtures
        assert c.alpha == pytest.approx(2.0 / 3.0, abs=0)
        assert c.p == pytest.approx(1.9635100260214235, abs=1e-9)
        assert c.sigma_p == pytest.approx(2.2214414690791831, abs=1e-9)
        assert c.d_theta_1 == pytest.approx(2.5626208431855407, abs=1e-9)
        assert c.h_theta_1 == pytest.approx(-3.927020052042847, abs=1e-9)
        assert c.lam == pytest.approx(0.18088245756154446, rel=1e-12)
        assert c.psi_coeff == 0.5

    def test_p_is_slope_identity(self):
        for theta in (0.5, 2.0):
            c = sp.scaling_constants(theta)
            assert c.p == pytest.approx(-sp.digamma(theta / 2), abs=1e-10)

    def test_d_theta_twin_sums(self):
        # both series in the fluctuation-scale formula coincide at x = 1
        theta = 2.0
        w = sp.g_theta_inv(theta, 1.0)
        s1 = sp.inverse_cube_sum(w)
        s2 = sp.inverse_cube_sum(theta - w)
        assert s1 == pytest.approx(s2, rel=1e-10)
        c = sp.scaling_constants(theta)
        assert c.d_theta_1 == pytest.approx((s1 + s2) ** (1.0 / 3.0), rel=1e-9)

    @pytest.mark.parametrize("theta", [0.25, 0.5, 1.0, 2.0, 5.0])
    def test_lambda_positive(self, theta):
        assert sp.scaling_constants(theta).lam > 0.0

    def test_lambda_fixture_theta_two(self):
        assert sp.scaling_constants(2.0).lam == pytest.approx(0.14068635588120124, rel=1e-12)
