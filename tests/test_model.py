import numpy as np
import pytest

from hot_tuner.model import (
    BiasedGaussianTruncated,
    ConfigurationError,
    Constant,
    IidBounded,
    PiecewiseConstant,
    Sinusoid,
    StateDependentBias,
    TrueModel,
    UniformBiased,
    Zero,
    emit_observation,
    generate_regressor,
    sample_noise,
)
from hot_tuner.tuner import TunerState


class TestRegressors:
    def test_constant_is_step_independent(self):
        src = Constant(value=[1.0, 0.0])
        assert np.array_equal(generate_regressor(src, 7, seed=3), [1.0, 0.0])
        assert np.array_equal(generate_regressor(src, 0, seed=99), [1.0, 0.0])

    def test_sinusoid_unit_sine(self):
        src = Sinusoid(amplitude=[1.0], omega=np.pi / 2, phase=[0.0])
        assert generate_regressor(src, 1, seed=0) == pytest.approx([1.0])

    def test_iid_deterministic_and_bounded(self):
        src = IidBounded(bound=2.0, dimension=3)
        a = generate_regressor(src, 5, seed=42)
        b = generate_regressor(src, 5, seed=42)
        assert np.array_equal(a, b)
        # brute-force bound check over many draws
        batch = src.generate_batch(0, 100_000, seed=42)
        assert np.max(np.linalg.norm(batch, axis=1)) <= 2.0 + 1e-12

    def test_iid_different_seeds_differ(self):
        src = IidBounded(bound=1.0, dimension=2)
        assert not np.array_equal(src.generate(3, 1), src.generate(3, 2))

    def test_batch_matches_single(self):
        for src in (IidBounded(bound=1.5, dimension=2),
                    PiecewiseConstant(bound=1.0, dimension=2, dwell=7),
                    Sinusoid(amplitude=[1.0, 0.5], omega=0.3)):
            batch = src.generate_batch(10, 20, seed=11)
            for j, k in enumerate(range(10, 20)):
                assert np.array_equal(batch[j], src.generate(k, seed=11))

    def test_seed_array_matches_per_seed_batches(self):
        seeds = [0, 7, 2**63 + 5, 20240613 ^ 3]
        for src in (IidBounded(bound=1.5, dimension=3),
                    PiecewiseConstant(bound=1.0, dimension=2, dwell=7),
                    PiecewiseConstant(bound=1.0, dimension=2, dwell=3,
                                      levels=([0.5, 0.0], [0.0, -0.5]))):
            batch = src.generate_batch(10, 40, seeds)
            assert batch.shape == (30, len(seeds), src.dimension)
            for i, seed in enumerate(seeds):
                assert np.array_equal(batch[:, i], src.generate_batch(10, 40, seed))

    def test_piecewise_holds_levels(self):
        src = PiecewiseConstant(bound=1.0, dimension=2, dwell=5)
        batch = src.generate_batch(0, 10, seed=0)
        assert np.array_equal(batch[0], batch[4])
        assert not np.array_equal(batch[4], batch[5])
        assert np.max(np.linalg.norm(batch, axis=1)) <= 1.0 + 1e-12

    def test_piecewise_explicit_levels(self):
        src = PiecewiseConstant(bound=2.0, dimension=2, dwell=2,
                                levels=([1.0, 0.0], [0.0, 1.0]))
        batch = src.generate_batch(0, 4, seed=0)
        assert np.array_equal(batch[1], [1.0, 0.0])
        assert np.array_equal(batch[2], [0.0, 1.0])

    def test_bound_enforced_over_long_run(self):
        for src in (Sinusoid(amplitude=[1.0, 1.0], omega=0.37),
                    IidBounded(bound=0.7, dimension=3)):
            batch = src.generate_batch(0, 10_000, seed=5)
            assert np.max(np.linalg.norm(batch, axis=1)) <= src.phi_bound + 1e-12

    def test_invalid_params_rejected_at_construction(self):
        with pytest.raises(ConfigurationError):
            Sinusoid(amplitude=[-1.0], omega=1.0)
        with pytest.raises(ConfigurationError):
            IidBounded(bound=-1.0, dimension=2)
        with pytest.raises(ConfigurationError):
            PiecewiseConstant(bound=1.0, dimension=2, dwell=0)
        with pytest.raises(ConfigurationError):
            Constant(value=[3.0, 4.0], phi_bound=1.0)


class TestNoise:
    def test_zero_kind(self):
        rng = np.random.default_rng(0)
        noise = Zero()
        assert sample_noise(noise, None, rng) == 0.0
        assert np.all(noise.sample(None, rng, size=100) == 0.0)
        assert noise.d_max == 0.0 and noise.sigma_max == 0.0

    def test_truncated_gaussian_moments(self):
        noise = BiasedGaussianTruncated(bias=0.1, sd=0.5)
        rng = np.random.default_rng(7)
        x = noise.sample(None, rng, size=1_000_000)
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
        x = noise.sample(None, rng, size=500_000)
        assert np.all(x >= -0.5) and np.all(x <= 0.1)
        stderr = x.std(ddof=1) / np.sqrt(x.size)
        assert abs(x.mean() + 0.2) <= 5 * stderr

    def test_state_dependent_bias_tracks_state(self):
        noise = StateDependentBias(d_amplitude=0.1, sd=0.45)
        near = TunerState(theta=[1.0], vartheta=[1.0])
        far = TunerState(theta=[10.0], vartheta=[0.0])
        assert noise.conditional_mean(near.theta, near.vartheta) == 0.0
        assert noise.conditional_mean(far.theta, far.vartheta) == pytest.approx(
            0.1 * np.tanh(10.0))
        rng = np.random.default_rng(3)
        x = noise.sample(far, rng, size=200_000)
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


class TestObservation:
    def test_noise_free_dot_product(self):
        model = TrueModel(theta_star=[1.0])
        src = Constant(value=[2.0])
        obs = emit_observation(model, src, Zero(), 0, None,
                               np.random.default_rng(0))
        assert obs.y == 2.0 and obs.eta == 0.0

    def test_cancellation_plus_noise(self):
        # theta* = [1, -1], phi = [3, 3], eta = 0.5 -> y = 0.5
        model = TrueModel(theta_star=[1.0, -1.0])
        src = Constant(value=[3.0, 3.0])
        noise = UniformBiased(center=0.5, halfwidth=0.0)
        obs = emit_observation(model, src, noise, 0, None,
                               np.random.default_rng(0))
        assert obs.y == pytest.approx(0.5)
        assert obs.y == pytest.approx(float(obs.phi @ model.theta_star) + obs.eta)

    def test_constant_stream(self):
        model = TrueModel(theta_star=[0.7])
        src = Constant(value=[1.0])
        for k in (0, 3, 17):
            obs = emit_observation(model, src, Zero(), k, None,
                                   np.random.default_rng(0))
            assert obs.y == pytest.approx(0.7)
            assert obs.step == k

    def test_dimension_mismatch(self):
        with pytest.raises(ConfigurationError):
            emit_observation(TrueModel(theta_star=[1.0, 2.0]),
                             Constant(value=[1.0]), Zero(), 0, None,
                             np.random.default_rng(0))

    def test_invalid_true_model(self):
        with pytest.raises(ConfigurationError):
            TrueModel(theta_star=[])
        with pytest.raises(ConfigurationError):
            TrueModel(theta_star=[np.inf])
