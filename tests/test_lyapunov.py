import functools
import math

import numpy as np
import pytest
from scipy.optimize import brentq

from hot_tuner.lyapunov import (
    clipped_V,
    constants,
    gamma_max,
    lyapunov_value,
    lyapunov_value_arrays,
    theorem4_radius,
    threshold_K,
    threshold_T,
)
from hot_tuner.model import ConfigError
from hot_tuner.tuner import Gains, TunerState


def bisect_greatest_root_K(c1, c2, c_hat):
    """Greatest root of -c1 x + c2 sqrt(x) + c_hat = 0 via root finding in u = sqrt(x).

    Independent of the closed form: brackets beyond the parabola vertex.
    """
    f = lambda u: -c1 * u * u + c2 * u + c_hat
    lo = c2 / (2.0 * c1)  # vertex, f >= c_hat there
    hi = max(2.0 * lo, 1.0)
    while f(hi) > 0:
        hi *= 2.0
    return brentq(f, lo, hi, xtol=1e-300, rtol=1e-15, maxiter=200) ** 2


def bisect_greatest_root_T(c1, c2, c_hat, K):
    f = lambda u: c1 * u * u - c2 * u - (c_hat + K)
    lo = c2 / (2.0 * c1)
    hi = max(2.0 * lo, 1.0)
    while f(hi) < 0:
        hi *= 2.0
    return brentq(f, lo, hi, xtol=1e-300, rtol=1e-15, maxiter=200) ** 2


def ref_gains(gamma=0.04, beta=0.5, mu=0.1, theta0=(0.0, 0.0)):
    return Gains(gamma=gamma, beta=beta, mu=mu, theta0=list(theta0))


class TestLyapunovValue:
    def test_zero_at_truth(self):
        s = TunerState(theta=[0.3, 0.4], vartheta=[0.3, 0.4])
        assert lyapunov_value(s, [0.3, 0.4], 0.1) == 0.0

    def test_scalar(self):
        s = TunerState(theta=[1.0], vartheta=[1.0])
        assert lyapunov_value(s, [0.0], 0.1) == pytest.approx(10.0)

    def test_two_terms(self):
        s = TunerState(theta=[1.0, 1.0], vartheta=[1.0, 0.0])
        assert lyapunov_value(s, [0.0, 0.0], 0.5) == pytest.approx(4.0)

    def test_gamma_must_be_positive(self):
        with pytest.raises(ValueError):
            lyapunov_value(TunerState(theta=[0.0], vartheta=[0.0]), [0.0], 0.0)

    @pytest.mark.parametrize("n", [1, 3, 12])
    def test_state_form_is_the_array_form(self, n):
        rng = np.random.default_rng(n)
        theta, vartheta = rng.normal(size=(2, 50, n))
        ts = rng.normal(size=n)
        v = lyapunov_value(TunerState(theta=theta, vartheta=vartheta), list(ts), 0.04)
        assert v.shape == (50,)
        assert np.array_equal(v, lyapunov_value_arrays(theta, vartheta, ts, 0.04))
        # each norm folds left over the components at every N (np.sum adds
        # pairwise from 8 terms on, which rounds differently at N = 12)
        def fold(d):
            return functools.reduce(lambda acc, i: acc + d[:, i] * d[:, i], range(1, n),
                                    d[:, 0] * d[:, 0])

        assert np.array_equal(v, (fold(vartheta - ts) + fold(theta - vartheta)) / 0.04)


class TestGammaMax:
    def test_reference_value(self):
        assert gamma_max(0.5, 0.1) == pytest.approx(0.75 / 16.61875, rel=1e-12)

    def test_small_mu_limit(self):
        assert gamma_max(0.5, 1e-12) == pytest.approx(0.75 / 16.25, rel=1e-6)

    def test_shrinks_for_small_beta(self):
        assert gamma_max(0.1, 0.1) < gamma_max(0.5, 0.1)

    def test_domain(self):
        with pytest.raises(ValueError):
            gamma_max(0.0, 0.1)
        with pytest.raises(ValueError):
            gamma_max(0.5, 1.0)


class TestConstants:
    def test_noise_free_perfect_init(self):
        c = constants(ref_gains(theta0=(1.0, -0.5)), 0.0, 0.0, [1.0, -0.5])
        assert c.c2 == 0.0 and c.c3 == 0.0 and c.c4 == 0.0 and c.c5 == 0.0
        assert c.c_hat == 0.0
        assert c.K == 0.0 and c.T == 0.0
        assert not c.degenerate

    def test_c1_value(self):
        c = constants(ref_gains(), 0.1, 0.5, [1.0, -0.5])
        assert c.c1 == pytest.approx(0.625 * 0.1 * 0.04 * 0.5, rel=1e-12)

    def test_c2_theorem_value(self):
        c = constants(ref_gains(), 0.1, 0.5, [1.0, -0.5])
        assert c.c2 == pytest.approx(19609.0 / 6144.0 * 0.1, rel=1e-12)

    def test_c2_appendix_variant(self):
        c = constants(ref_gains(), 0.1, 0.5, [1.0, -0.5], c2_variant="appendix")
        assert c.c2 == pytest.approx(19609.0 / 1536.0 * 0.1 * math.sqrt(0.04), rel=1e-12)
        assert c.c2_variant == "appendix"

    def test_large_gamma_warns_under_theorem_variant(self):
        g = Gains(gamma=0.08, beta=0.9, mu=0.01, theta0=[0.0], mode="unrestricted")
        with pytest.warns(UserWarning):
            constants(g, 0.1, 0.5, [1.0])

    def test_degenerate_marker(self):
        g = Gains(gamma=0.04, beta=0.5, mu=0.0, theta0=[0.0], mode="unrestricted")
        c = constants(g, 0.1, 0.5, [1.0])
        assert c.degenerate
        assert math.isnan(c.K) and math.isnan(c.T)


class TestThresholds:
    def test_trivial_roots(self):
        assert threshold_K(1.0, 0.0, 0.0) == 0.0
        assert threshold_K(1.0, 1.0, 0.0) == pytest.approx(1.0)
        assert threshold_K(2.0, 1.0, 3.0) == pytest.approx(2.25)

    def test_T_linear_case(self):
        assert threshold_T(2.0, 0.0, 3.0, 1.0) == pytest.approx(2.0)

    def test_T_golden_ratio_case(self):
        expected = ((1.0 + math.sqrt(5.0)) / 2.0) ** 2
        assert threshold_T(1.0, 1.0, 0.0, 1.0) == pytest.approx(expected, rel=1e-12)

    def test_T_against_oracle(self):
        t = threshold_T(2.0, 1.0, 3.0, 2.25)
        assert t == pytest.approx(bisect_greatest_root_T(2.0, 1.0, 3.0, 2.25),
                                  rel=1e-12)

    def test_degenerate(self):
        with pytest.raises(ValueError, match="c1 must be positive for the roots K and T"):
            threshold_K(0.0, 1.0, 1.0)
        with pytest.raises(ValueError, match="c1 must be positive for the roots K and T"):
            threshold_T(-1.0, 1.0, 1.0, 0.0)

    def test_random_triples_match_oracle(self):
        rng = np.random.default_rng(12345)
        for _ in range(200):
            c1, c2, c_hat = 10.0 ** rng.uniform(-4, 1, size=3)
            K = threshold_K(c1, c2, c_hat)
            T = threshold_T(c1, c2, c_hat, K)
            assert K == pytest.approx(bisect_greatest_root_K(c1, c2, c_hat), rel=1e-9)
            assert T == pytest.approx(bisect_greatest_root_T(c1, c2, c_hat, K), rel=1e-9)
            assert T >= K

    def test_residuals(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            c1, c2, c_hat = rng.uniform(1e-4, 10.0, size=3)
            K = threshold_K(c1, c2, c_hat)
            T = threshold_T(c1, c2, c_hat, K)
            scale_K = max(1.0, c1 * K)
            assert abs(-c1 * K + c2 * math.sqrt(K) + c_hat) <= 1e-9 * scale_K
            scale_T = max(1.0, c1 * T)
            assert abs(c1 * T - c2 * math.sqrt(T) - (c_hat + K)) <= 1e-9 * scale_T

    def test_monotonicity(self):
        rng = np.random.default_rng(99)
        for _ in range(100):
            c1, c2, c_hat = rng.uniform(1e-3, 5.0, size=3)
            K = threshold_K(c1, c2, c_hat)
            T = threshold_T(c1, c2, c_hat, K)
            # nondecreasing in c_hat and c2
            assert threshold_K(c1, c2, c_hat * 1.1) >= K
            assert threshold_K(c1, c2 * 1.1, c_hat) >= K
            K2 = threshold_K(c1, c2, c_hat * 1.1)
            assert threshold_T(c1, c2, c_hat * 1.1, K2) >= T
            # nonincreasing in c1
            K3 = threshold_K(c1 * 1.1, c2, c_hat)
            assert K3 <= K
            assert threshold_T(c1 * 1.1, c2, c_hat, K3) <= T


class TestClippedAndPsi:
    def test_clipped(self):
        assert clipped_V(5.0, 7.0) == 0.0
        assert clipped_V(7.0, 7.0) == 0.0
        assert clipped_V(9.5, 7.0) == 2.5

    def _consts(self, c1, c2, c_hat):
        K = threshold_K(c1, c2, c_hat)
        T = threshold_T(c1, c2, c_hat, K)
        from hot_tuner.lyapunov import LyapunovConstants
        return LyapunovConstants(c1=c1, c2=c2, c3=c_hat, c4=0.0, c5=0.0,
                                 c_hat=c_hat, K=K, T=T, degenerate=False,
                                 c2_variant="theorem")

    def test_T_is_a_root_of_the_decrease_certificate(self):
        # psi(v) = c1 v - c2 sqrt(v) - c_hat - K vanishes at v = T
        c = self._consts(0.3, 0.7, 1.3)
        val = c.c1 * c.T - c.c2 * math.sqrt(c.T) - c.c_hat - c.K
        assert abs(val) <= 1e-9 * max(1.0, c.c1 * c.T)


class TestTheorem4Radius:
    def _consts(self):
        return constants(ref_gains(), 0.1, 0.5, [1.0, -0.5])

    def test_formula(self):
        c = self._consts()
        alpha = c.c1 / 2.0
        expected = max(c.c2 ** 2 / (alpha - c.c1) ** 2, c.c_hat / alpha)
        assert theorem4_radius(alpha, c) == expected

    def test_chat_over_alpha_branch(self):
        c = self._consts()
        from dataclasses import replace
        c0 = replace(c, c2=0.0)
        alpha = c.c1 / 2.0
        assert theorem4_radius(alpha, c0) == pytest.approx(c.c_hat / alpha)
        czero = replace(c, c2=0.0, c_hat=0.0)
        assert theorem4_radius(alpha, czero) == 0.0

    def test_direct_evaluation(self):
        from dataclasses import replace
        c = replace(self._consts(), c1=0.002, c2=0.3, c_hat=1.0)
        assert theorem4_radius(0.001, c) == pytest.approx(90000.0)

    def test_invalid_alpha(self):
        c = self._consts()
        for alpha in (0.0, c.c1, c.c1 * 2, -1.0):
            with pytest.raises(ConfigError, match=r"alpha must lie in \(0, c1="):
                theorem4_radius(alpha, c)

    def test_degenerate_constants_name_alpha(self):
        # mu = 0 gives c1 = 0, so no alpha lies in (0, c1)
        g = Gains(gamma=0.04, beta=0.5, mu=0.0, theta0=[0.0], mode="unrestricted")
        c = constants(g, 0.1, 0.5, [1.0])
        for alpha in (1e-3, 0.5):
            with pytest.raises(ConfigError, match=r"alpha must lie in \(0, c1=0.0\)") as exc:
                theorem4_radius(alpha, c)
            assert exc.value.field == "alpha"
