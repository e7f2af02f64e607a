import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hot_tuner.lyapunov import gamma_max
from hot_tuner.tuner import (
    Gains,
    NonFiniteError,
    TunerState,
    hot_step,
    loss_gradient,
    normalization,
    regularized_gradient,
)

finite = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)


def unrestricted(theta0, gamma=0.04, beta=0.5, mu=0.0):
    return Gains(gamma=gamma, beta=beta, mu=mu, theta0=theta0, mode="unrestricted")


class TestGains:
    def test_certified_rejects_large_gamma(self):
        gmax = gamma_max(0.5, 0.1)
        with pytest.raises(ValueError, match="gamma"):
            Gains(gamma=gmax * 1.01, beta=0.5, mu=0.1, theta0=[0.0])
        Gains(gamma=gmax * 0.99, beta=0.5, mu=0.1, theta0=[0.0])

    def test_certified_rejects_mu_zero(self):
        with pytest.raises(ValueError):
            Gains(gamma=0.01, beta=0.5, mu=0.0, theta0=[0.0])
        unrestricted([0.0], mu=0.0)

    def test_beta_range(self):
        for beta in (0.0, 1.0, -0.5):
            with pytest.raises(ValueError):
                unrestricted([0.0], beta=beta)


class TestBasicOps:
    def test_normalization(self):
        assert normalization([0.0, 0.0]) == 1.0
        assert normalization([1.0, 2.0]) == 6.0
        assert normalization([3.0]) == 10.0

    def test_loss_gradient(self):
        assert loss_gradient([0.0], [1.0], 1.0) == pytest.approx([-1.0])
        assert loss_gradient([1.0, 1.0], [2.0, 0.0], 1.0) == pytest.approx([2.0, 0.0])
        # zero prediction error at the truth
        theta_star = np.array([0.3, -0.7])
        phi = np.array([1.0, 2.0])
        assert loss_gradient(theta_star, phi, float(phi @ theta_star)) == pytest.approx(
            [0.0, 0.0])

    def test_regularized_gradient(self):
        g = unrestricted([0.0], mu=0.1)
        assert regularized_gradient([0.0], [1.0], 1.0, g) == pytest.approx([-0.5])
        assert regularized_gradient([1.0], [0.0], 0.0, g) == pytest.approx([0.1])
        g2 = unrestricted([2.0, -1.0], mu=0.3)
        assert regularized_gradient([2.0, -1.0], [0.0, 0.0], 5.0, g2) == pytest.approx(
            [0.0, 0.0])


class TestHotStep:
    def test_hand_computed_scalar_mu0(self):
        g = unrestricted([0.0], gamma=0.04, beta=0.5, mu=0.0)
        s1 = hot_step(TunerState(theta=[0.0], vartheta=[0.0]),
                      np.array([1.0]), 1.0, g)
        assert s1.theta[0] == pytest.approx(0.005, abs=1e-12)
        assert s1.vartheta[0] == pytest.approx(0.0199, abs=1e-12)
        assert s1.step == 1

    def test_hand_computed_scalar_mu01(self):
        g = Gains(gamma=0.04, beta=0.5, mu=0.1, theta0=[0.0])
        s1 = hot_step(TunerState(theta=[0.0], vartheta=[0.0]),
                      np.array([1.0]), 1.0, g)
        assert s1.theta[0] == pytest.approx(0.005, abs=1e-12)
        assert s1.vartheta[0] == pytest.approx(0.01988, abs=1e-12)

    def test_fixed_point(self):
        g = Gains(gamma=0.04, beta=0.5, mu=0.1, theta0=[1.0, -2.0])
        s = TunerState(theta=[1.0, -2.0], vartheta=[1.0, -2.0])
        s1 = hot_step(s, np.zeros(2), 0.3, g)
        assert np.array_equal(s1.theta, s.theta)
        assert np.array_equal(s1.vartheta, s.vartheta)

    @given(theta=st.lists(finite, min_size=2, max_size=2),
           vartheta=st.lists(finite, min_size=2, max_size=2),
           phi=st.lists(finite, min_size=2, max_size=2),
           y=finite)
    @settings(max_examples=50)
    def test_second_gradient_at_theta_next_matters(self, theta, vartheta, phi, y):
        """A wrong variant evaluating g2 at the intermediate point must differ."""
        g = Gains(gamma=0.04, beta=0.5, mu=0.1, theta0=[0.0, 0.0])
        s = TunerState(theta=theta, vartheta=vartheta)
        correct = hot_step(s, np.asarray(phi), y, g)

        g1 = regularized_gradient(s.theta, phi, y, g)
        theta_bar = s.theta - g.gamma * g.beta * g1
        theta_next = theta_bar - g.beta * (theta_bar - s.vartheta)
        wrong_g2 = regularized_gradient(theta_bar, phi, y, g)
        wrong_vartheta = s.vartheta - g.gamma * wrong_g2

        assert np.array_equal(correct.theta, theta_next)
        # equality of the two variants happens only when theta_bar == theta_next
        if not np.allclose(theta_bar, theta_next, atol=0, rtol=0):
            assert not np.array_equal(correct.vartheta, wrong_vartheta)

    @given(y=finite, phi=st.lists(finite, min_size=3, max_size=3))
    @settings(max_examples=30)
    def test_permutation_equivariance(self, y, phi):
        perm = np.array([2, 0, 1])
        g = Gains(gamma=0.04, beta=0.5, mu=0.1, theta0=[0.5, -0.5, 1.0])
        s = TunerState(theta=[0.1, 0.2, 0.3], vartheta=[-0.1, 0.0, 0.1])
        out = hot_step(s, np.asarray(phi), y, g)

        gp = Gains(gamma=0.04, beta=0.5, mu=0.1, theta0=g.theta0[perm])
        sp = TunerState(theta=s.theta[perm], vartheta=s.vartheta[perm])
        outp = hot_step(sp, np.asarray(phi)[perm], y, gp)
        # summation order changes under the permutation, so allow 1-ulp slack
        assert np.allclose(outp.theta, out.theta[perm], rtol=1e-12, atol=1e-14)
        assert np.allclose(outp.vartheta, out.vartheta[perm], rtol=1e-12, atol=1e-14)

    def test_noise_free_consistency(self):
        # constant regressor, tiny leakage: prediction error settles near the
        # mu-induced floor within 10^4 steps
        mu = 1e-3
        g = Gains(gamma=0.04, beta=0.5, mu=mu, theta0=[0.0])
        phi = np.array([1.0])
        theta_star = np.array([1.0])
        s = TunerState(theta=[0.0], vartheta=[0.0])
        for _ in range(10_000):
            y = float(phi @ theta_star)
            s = hot_step(s, phi, y, g)
        err = abs(float(s.theta @ phi) - float(phi @ theta_star))
        floor = 10 * mu * (1 + float(phi @ phi)) / float(phi @ phi)
        assert err < floor

    def test_nonfinite_raises(self):
        g = unrestricted([0.0], gamma=1e300, beta=0.5, mu=0.9)
        s = TunerState(theta=[1e8], vartheta=[0.0], step=5)
        with pytest.raises(NonFiniteError) as exc:
            hot_step(hot_step(s, np.array([1.0]), 0.0, g), np.array([1.0]), 0.0, g)
        assert exc.value.step is not None
