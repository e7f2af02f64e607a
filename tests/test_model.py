import functools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hot_tuner.model import (
    BiasedGaussianTruncated,
    ConfigError,
    Constant,
    IidBounded,
    PiecewiseConstant,
    Sinusoid,
    StateDependentBias,
    UniformBiased,
    Zero,
    _sum_rows,
)
from hot_tuner import verify
from hot_tuner.config import RunConfig
from hot_tuner.tuner import TunerState

from conftest import reference_dict, rows
from test_verify import kernel_observations


def row(src, k, seed):
    """phi_k of a regressor source, as a one-row batch."""
    return rows(src, k, k + 1, seed)[0]


def draw(noise, rng, size=None, theta=None, vartheta=None):
    """Noise draws given the state: conditional mean plus innovation."""
    return noise.conditional_mean(theta, vartheta) + noise.innovation(rng.uniform(size=size))


class TestSumRows:
    def test_one_row_comes_back_as_itself(self):
        rows = (np.arange(6.0).reshape(2, 3),)
        out = np.empty((2, 3))
        assert _sum_rows(rows, out) is rows[0]

    @pytest.mark.parametrize("n", [2, 3, 8, 12])
    def test_left_fold_into_out(self, n):
        # magnitudes spread over 1e-3..1e3, so the order of the sum shows in the rounding
        rng = np.random.default_rng(n)
        rows = rng.normal(size=(n, 4, 5)) * 10.0 ** rng.integers(-3, 4, size=(n, 4, 5))
        expect = functools.reduce(np.add, rows)
        for given in (rows, tuple(rows)):
            out = np.empty((4, 5))
            assert _sum_rows(given, out) is out
            assert np.array_equal(out, expect)


class TestRegressors:
    def test_constant_is_step_independent(self):
        src = Constant(value=[1.0, 0.0])
        assert np.array_equal(row(src, 7, seed=3), [1.0, 0.0])
        assert np.array_equal(row(src, 0, seed=99), [1.0, 0.0])

    def test_sinusoid_unit_sine(self):
        src = Sinusoid(amplitude=[1.0], omega=np.pi / 2, phase=[0.0])
        assert row(src, 1, seed=0) == pytest.approx([1.0])

    def test_iid_deterministic_and_bounded(self):
        src = IidBounded(bound=2.0, dimension=3)
        a = row(src, 5, seed=42)
        b = row(src, 5, seed=42)
        assert np.array_equal(a, b)
        # brute-force bound check over many draws
        batch = rows(src, 0, 100_000, seed=42)
        assert np.max(np.linalg.norm(batch, axis=1)) <= 2.0 + 1e-12

    def test_iid_different_seeds_differ(self):
        src = IidBounded(bound=1.0, dimension=2)
        assert not np.array_equal(row(src, 3, 1), row(src, 3, 2))

    def test_batch_matches_single(self):
        for src in (IidBounded(bound=1.5, dimension=2),
                    PiecewiseConstant(bound=1.0, dimension=2, dwell=7),
                    Sinusoid(amplitude=[1.0, 0.5], omega=0.3)):
            batch = rows(src, 10, 20, seed=11)
            for j, k in enumerate(range(10, 20)):
                assert np.array_equal(batch[j], row(src, k, seed=11))

    def test_seed_array_matches_per_seed_batches(self):
        # the lockstep kernel's component-major (steps, N, seeds) layout; rows
        # that do not depend on the seed come once, (steps, N, 1)
        seeds = [0, 7, 2**63 + 5, 20240613 ^ 3]
        for src, width in ((IidBounded(bound=1.5, dimension=3), 4),
                           (IidBounded(bound=0.5, dimension=12), 4),
                           (PiecewiseConstant(bound=1.0, dimension=2, dwell=7), 4),
                           (PiecewiseConstant(bound=0.5, dimension=9, dwell=4), 4),
                           (PiecewiseConstant(bound=1.0, dimension=2, dwell=3,
                                              levels=([0.5, 0.0], [0.0, -0.5])), 1),
                           (Constant(value=[1.0, -2.0, 0.5]), 1),
                           (Sinusoid(amplitude=[1.0, 0.5], omega=0.3), 1)):
            batch = src.generate_batch(10, 40, seeds)
            assert batch.shape == (30, src.dimension, width)
            assert batch.flags.c_contiguous
            for i, seed in enumerate(seeds):
                assert np.array_equal(batch[:, :, i % width], rows(src, 10, 40, seed))

    def test_piecewise_holds_levels(self):
        src = PiecewiseConstant(bound=1.0, dimension=2, dwell=5)
        batch = rows(src, 0, 10, seed=0)
        assert np.array_equal(batch[0], batch[4])
        assert not np.array_equal(batch[4], batch[5])
        assert np.max(np.linalg.norm(batch, axis=1)) <= 1.0 + 1e-12

    def test_piecewise_explicit_levels(self):
        src = PiecewiseConstant(bound=2.0, dimension=2, dwell=2,
                                levels=([1.0, 0.0], [0.0, 1.0]))
        batch = rows(src, 0, 4, seed=0)
        assert np.array_equal(batch[1], [1.0, 0.0])
        assert np.array_equal(batch[2], [0.0, 1.0])

    def test_bound_enforced_over_long_run(self):
        for src in (Sinusoid(amplitude=[1.0, 1.0], omega=0.37),
                    IidBounded(bound=0.7, dimension=3)):
            batch = rows(src, 0, 10_000, seed=5)
            assert np.max(np.linalg.norm(batch, axis=1)) <= src.phi_bound + 1e-12

    def test_invalid_params_rejected_at_construction(self):
        with pytest.raises(ConfigError, match="amplitude must be finite and nonnegative"):
            Sinusoid(amplitude=[-1.0], omega=1.0)
        with pytest.raises(ConfigError, match="bound must be nonnegative") as exc:
            IidBounded(bound=-1.0, dimension=2)
        assert (exc.value.field, exc.value.message, str(exc.value)) == (
            "bound", "bound must be nonnegative", "config field 'bound': bound must be nonnegative")
        with pytest.raises(ConfigError, match=re.escape("dwell must lie in [1, 2**63)")):
            PiecewiseConstant(bound=1.0, dimension=2, dwell=0)
        with pytest.raises(ConfigError, match="phi_bound smaller than the constant value norm"):
            Constant(value=[3.0, 4.0], phi_bound=1.0)
        # an empty dimension, which would otherwise build and fail in generate_batch
        for field, build in (("dimension", lambda: PiecewiseConstant(bound=1.0, dimension=0,
                                                                     dwell=2)),
                             ("value", lambda: Constant(value=[])),
                             ("amplitude", lambda: Sinusoid(amplitude=[], omega=0.5))):
            with pytest.raises(ConfigError) as exc:
                build()
            assert exc.value.field == field


class TestNoise:
    def test_zero_kind(self):
        rng = np.random.default_rng(0)
        noise = Zero()
        assert draw(noise, rng) == 0.0
        assert np.all(draw(noise, rng, size=100) == 0.0)
        assert noise.d_max == 0.0 and noise.sigma_max == 0.0

    def test_truncated_gaussian_moments(self):
        noise = BiasedGaussianTruncated(bias=0.1, sd=0.5)
        rng = np.random.default_rng(7)
        x = draw(noise, rng, size=1_000_000)
        stderr = x.std(ddof=1) / np.sqrt(x.size)
        assert abs(x.mean() - 0.1) <= 5 * stderr
        assert np.mean(x ** 2) <= (0.1 ** 2 + 0.5 ** 2) * 1.01
        # amplitude is truly truncated
        assert np.max(np.abs(x - 0.1)) <= 3 * 0.5 + 1e-9

    def test_truncated_gaussian_analytic_bounds(self):
        noise = BiasedGaussianTruncated(bias=0.1, sd=0.48)
        assert noise.d_max == pytest.approx(0.1)
        assert noise.sigma_max < 0.5

    def test_uniform_biased_support_and_mean(self):
        noise = UniformBiased(center=-0.2, halfwidth=0.3)
        rng = np.random.default_rng(11)
        x = draw(noise, rng, size=500_000)
        assert np.all(x >= -0.5) and np.all(x <= 0.1)
        stderr = x.std(ddof=1) / np.sqrt(x.size)
        assert abs(x.mean() + 0.2) <= 5 * stderr

    def test_truncated_variance_is_scipys(self):
        from scipy import stats  # the reference; the package itself does not import it
        unit = BiasedGaussianTruncated(bias=0.0, sd=1.0)
        assert unit._trunc_var == stats.truncnorm.var(-3.0, 3.0)
        # the series below t = 0.15 and the closed form above meet at scipy's value
        for t in [*np.linspace(0.1, 40.0, 400), np.nextafter(0.15, 0.0), 0.15]:
            got = BiasedGaussianTruncated(bias=0.0, sd=1.0, truncation=float(t))._trunc_var
            assert got == pytest.approx(stats.truncnorm.var(-t, t), rel=1e-12, abs=0)
        # far below it scipy's closed form cancels, and the series' first term is exact
        assert BiasedGaussianTruncated(bias=0.0, sd=1.0, truncation=1e-8)._trunc_var == (
            pytest.approx(1e-16 / 3.0, rel=1e-15))

    @pytest.mark.parametrize("t", [0.5, 3.0, 8.0])
    def test_truncated_cdf_and_innovation_are_scipy_specials(self, t):
        from scipy import special
        noise = BiasedGaussianTruncated(bias=0.1, sd=0.48, truncation=t)
        lo = special.ndtr(-t)
        span = special.ndtr(t) - lo
        assert noise._cdf_lo == lo and noise._cdf_span == span
        u = np.concatenate(([0.0, 0.5, np.nextafter(1.0, 0.0)],
                            np.random.default_rng(5).random(1000)))
        assert np.array_equal(noise.innovation(u), 0.48 * special.ndtri(lo + u * span))

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(-300.0, 308.0), min_size=2, max_size=2))
    def test_truncated_variance_holds_at_every_truncation(self, exponents):
        # over log-uniform t in [1e-300, 1e308] the variance is finite, within
        # [0, sd**2], and non-decreasing in t to within the closed form's rounding
        t1, t2 = sorted(10.0 ** e for e in exponents)
        v1, v2 = (BiasedGaussianTruncated(bias=0.0, sd=1.0, truncation=t)._trunc_var
                  for t in (t1, t2))
        assert 0.0 <= v1 <= 1.0 and 0.0 <= v2 <= 1.0
        assert v1 <= v2 * (1.0 + 1e-12)

    def test_truncated_gaussian_at_extreme_truncations(self):
        narrow = BiasedGaussianTruncated(bias=0.1, sd=0.48, truncation=1e-20)
        assert narrow._cdf_span == 0.0 and narrow.sigma_max == 0.1
        assert np.all(narrow.innovation(np.array([0.0, 0.5, 0.99])) == 0.0)
        # pdf(t) underflows to 0: the whole Gaussian, not 2 t * pdf(t) = inf * 0
        wide = BiasedGaussianTruncated(bias=0.1, sd=0.48, truncation=1e308)
        assert wide._trunc_var == 0.48 ** 2 and wide.sigma_max == math.sqrt(0.1 ** 2 + 0.48 ** 2)

    @pytest.mark.parametrize("n", [1, 2, 3, 8, 12])
    def test_state_dependent_mean_folds_left(self, n):
        noise = StateDependentBias(d_amplitude=0.3, sd=0.1)
        rng = np.random.default_rng(n)
        theta = 10.0 * rng.standard_normal((200, n))
        vartheta = rng.standard_normal((200, n))
        d = theta - vartheta
        expect = 0.3 * np.tanh(np.sqrt(functools.reduce(np.add, (d * d).T)))
        assert np.array_equal(noise.conditional_mean(theta, vartheta), expect)
        assert noise.conditional_mean(theta[7], vartheta[7]) == expect[7]

    def test_state_dependent_bias_tracks_state(self):
        noise = StateDependentBias(d_amplitude=0.1, sd=0.45)
        near = TunerState(theta=[1.0], vartheta=[1.0])
        far = TunerState(theta=[10.0], vartheta=[0.0])
        assert noise.conditional_mean(near.theta, near.vartheta) == 0.0
        assert noise.conditional_mean(far.theta, far.vartheta) == pytest.approx(
            0.1 * np.tanh(10.0))
        rng = np.random.default_rng(3)
        x = draw(noise, rng, size=200_000, theta=far.theta, vartheta=far.vartheta)
        stderr = x.std(ddof=1) / np.sqrt(x.size)
        assert abs(x.mean() - 0.1 * np.tanh(10.0)) <= 5 * stderr
        assert noise.sigma_max == pytest.approx(np.hypot(0.1, 0.45))

    def test_state_dependent_gap_is_linalg_norm(self):
        noise = StateDependentBias(d_amplitude=0.3, sd=0.1)
        rng = np.random.default_rng(11)
        for shape in ((3,), (50, 2), (40, 5), (7, 4, 3)):
            theta = 10.0 * rng.standard_normal(shape)
            vartheta = rng.standard_normal(shape)
            expected = 0.3 * np.tanh(np.linalg.norm(theta - vartheta, axis=-1))
            assert np.array_equal(noise.conditional_mean(theta, vartheta), expected)

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 8, 12])
    def test_state_dependent_component_axis(self, n):
        # the lockstep kernel's (N, trials) states give the row-major values
        noise = StateDependentBias(d_amplitude=0.3, sd=0.1)
        rng = np.random.default_rng(n)
        for trials in (1, 5, 200):
            theta = 10.0 * rng.standard_normal((n, trials))
            vartheta = rng.standard_normal((n, trials))
            rows = noise.conditional_mean(np.ascontiguousarray(theta.T),
                                          np.ascontiguousarray(vartheta.T))
            assert np.array_equal(noise.state_mean(n, trials)(theta, vartheta), rows)


def observation_config(**overrides):
    """A noise-free one-chunk config; overrides replace reference fields."""
    d = dict(horizon=20, ensemble=1, resamples=500, noise={"kind": "zero"},
             d_max=0.0, sigma_max=0.0, vartheta0=None)
    d.update(overrides)
    return RunConfig.from_dict(reference_dict(**d))


class TestObservation:
    """The observations y_k = phi_k . theta* + eta_k that the kernel's steps read."""

    def test_noise_free_dot_product(self):
        cfg = observation_config(dimension=1, theta_star=[1.0], theta0=[0.0],
                                 regressor={"kind": "constant", "value": [2.0]})
        trace = verify.run_trajectory(cfg, cfg.trial_seed(0))
        _, (y,) = kernel_observations(cfg, [cfg.trial_seed(0)], cfg.horizon)
        assert np.all(y == 2.0) and np.all(trace.eta[:-1] == 0.0)

    def test_cancellation_plus_noise(self):
        # theta* = [1, -1], phi = [3, 3], eta = 0.5 -> y = 0.5
        cfg = observation_config(theta_star=[1.0, -1.0],
                                 regressor={"kind": "constant", "value": [3.0, 3.0]},
                                 noise={"kind": "uniform_biased", "center": 0.5,
                                        "halfwidth": 0.0}, d_max=0.5, sigma_max=0.5)
        trace = verify.run_trajectory(cfg, cfg.trial_seed(0))
        (phi,), (y,) = kernel_observations(cfg, [cfg.trial_seed(0)], cfg.horizon)
        assert y == pytest.approx(0.5)
        assert np.array_equal(y, phi @ cfg.theta_star + trace.eta[:-1])

    def test_constant_stream(self):
        cfg = observation_config(dimension=1, theta_star=[0.7], theta0=[0.0],
                                 regressor={"kind": "constant", "value": [1.0]})
        trace = verify.run_trajectory(cfg, cfg.trial_seed(0))
        _, (y,) = kernel_observations(cfg, [cfg.trial_seed(0)], cfg.horizon)
        for k in (0, 3, 17):
            assert y[k] == pytest.approx(0.7)
            assert trace.k[k] == k

    def test_dimension_mismatch(self):
        # the dimension check behind y = phi . theta* happens at config load
        for regressor, name in (({"kind": "constant", "value": [1.0]}, "regressor.value"),
                                ({"kind": "sinusoid", "amplitude": [1.0, 1.0, 1.0],
                                  "omega": 0.5}, "regressor.amplitude")):
            with pytest.raises(ConfigError) as exc:
                observation_config(regressor=regressor)
            assert exc.value.field == name
