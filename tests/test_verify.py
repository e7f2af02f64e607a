import dataclasses
import functools

import numpy as np
import pytest

from hot_tuner.config import ConfigError, RunConfig
from hot_tuner.lyapunov import clipped_V, lyapunov_value_arrays, theorem4_radius
from hot_tuner.model import StateDependentBias, UniformBiased, Zero
from hot_tuner.tuner import NonFiniteError, TunerState, hot_step
from hot_tuner import verify

from conftest import reference_dict, rows

NOISES = {
    "zero": dict(noise={"kind": "zero"}, d_max=0.0, sigma_max=0.0),
    "biased_gaussian": {},
    "uniform_biased": dict(noise={"kind": "uniform_biased", "center": 0.05,
                                  "halfwidth": 0.5}),
    "state_dependent_bias": dict(noise={"kind": "state_dependent_bias",
                                        "d_amplitude": 0.1, "sd": 0.45}),
}
REGRESSORS = {
    "sinusoid": {},
    "iid_bounded": dict(regressor={"kind": "iid_bounded", "bound": 2.0}),
    "piecewise_constant": dict(regressor={"kind": "piecewise_constant",
                                          "bound": 2.0, "dwell": 5}),
}


def hot_step_run(cfg, seed, horizon):
    """theta, vartheta of one trial from a plain hot_step loop, and the phi
    and y fed to each step."""
    rng = np.random.default_rng(seed)
    innov = cfg.noise.innovation(rng.uniform(size=horizon))
    phi_all = rows(cfg.regressor, 0, horizon, seed)
    ts = cfg.theta_star
    state = cfg.initial_state()
    theta, vartheta, ys = [state.theta], [state.vartheta], []
    for k in range(horizon):
        phi = phi_all[k]
        eta = cfg.noise.conditional_mean(state.theta, state.vartheta) + innov[k]
        ys.append(float(phi @ ts) + eta)
        state = hot_step(state, phi, ys[-1], cfg.gains)
        theta.append(state.theta)
        vartheta.append(state.vartheta)
    return np.array(theta), np.array(vartheta), phi_all, np.array(ys)


def hot_step_loop(cfg, seed, horizon):
    """theta, vartheta and V of one trial from a plain hot_step loop."""
    theta, vartheta, _, _ = hot_step_run(cfg, seed, horizon)
    ts = cfg.theta_star
    return theta, vartheta, lyapunov_value_arrays(theta, vartheta, ts, cfg.gains.gamma)


def column_blocks(buf, cols):
    """(trials, cols) blocks of a (steps, trials) V buffer, as the kernel yields them:
    transposed views of its C-ordered rows."""
    return [buf[k:k + cols].T for k in range(0, len(buf), cols)]


def kernel_states(cfg, seeds, horizon):
    """theta, vartheta (trials, steps, N) and V (trials, steps) from the kernel."""
    # copy each block before the kernel reuses its buffers for the next chunk
    blocks = [(b.theta.transpose(2, 0, 1).copy(), b.vartheta.transpose(2, 0, 1).copy(),
               b.V.copy()) for b in verify._lockstep(cfg, seeds, horizon, cfg.initial_state())]
    return [np.concatenate(parts, axis=1) for parts in zip(*blocks)]


def kernel_observations(cfg, seeds, horizon):
    """phi (trials, steps, N) and y (trials, steps) that the kernel's steps read."""
    # copy each block before the kernel reuses its buffers for the next chunk
    blocks = [(b.phi.transpose(2, 0, 1).copy(), b.y.T.copy())
              for b in verify._lockstep(cfg, seeds, horizon, cfg.initial_state())]
    return [np.concatenate(parts, axis=1) for parts in zip(*blocks)]


class TestRunTrajectory:
    def test_record_count(self, small_config):
        cfg = dataclasses.replace(small_config, horizon=100)
        trace = verify.run_trajectory(cfg, cfg.trial_seed(0))
        assert trace.k.size == 101
        assert trace.theta.shape == (101, 2)

    def test_deterministic(self, small_config):
        a = verify.run_trajectory(small_config, small_config.trial_seed(1))
        b = verify.run_trajectory(small_config, small_config.trial_seed(1))
        assert np.array_equal(a.theta, b.theta)
        assert np.array_equal(a.V, b.V)
        assert np.array_equal(a.eta, b.eta, equal_nan=True)

    def test_stored_V_recomputes_bitwise(self, small_config):
        trace = verify.run_trajectory(small_config, small_config.trial_seed(2))
        v = lyapunov_value_arrays(trace.theta, trace.vartheta,
                                  small_config.theta_star,
                                  small_config.gains.gamma)
        assert np.array_equal(v, trace.V)

    def test_fixed_point_with_zero_regressor(self):
        d = reference_dict(horizon=50, ensemble=1, resamples=500,
                           noise={"kind": "zero"}, d_max=0.0, sigma_max=0.0,
                           regressor={"kind": "constant", "value": [0.0, 0.0]},
                           theta0=[0.3, -0.3], vartheta0=[0.3, -0.3])
        cfg = RunConfig.from_dict(d)
        trace = verify.run_trajectory(cfg, cfg.trial_seed(0))
        assert np.all(trace.V == trace.V[0])

    def test_zero_noise_perfect_init_nonincreasing(self):
        d = reference_dict(horizon=500, ensemble=1, resamples=500,
                           noise={"kind": "zero"}, d_max=0.0, sigma_max=0.0,
                           theta0=[1.0, -0.5], vartheta0=[1.0, -0.5])
        cfg = RunConfig.from_dict(d)
        trace = verify.run_trajectory(cfg, cfg.trial_seed(0))
        assert np.all(trace.V <= trace.V[0] + 1e-12)

    def test_ensemble_rows_match_single_trials(self, small_config):
        cfg = dataclasses.replace(small_config, ensemble=3, horizon=150)
        ens = verify.run_ensemble(cfg)
        assert ens.V.shape == (3, 151)
        for t in range(3):
            trace = verify.run_trajectory(cfg, cfg.trial_seed(t))
            assert np.array_equal(trace.V, ens.V[t])

    @pytest.mark.parametrize("n", [8, 12])
    def test_many_components_independent_of_width(self, n):
        # from 8 terms on, np.sum adds a contiguous axis pairwise, so a sum
        # over the components of a one-wide (N, 1) state would round
        # differently from the same trial's column of a wider state
        rng = np.random.default_rng(n)
        cfg = RunConfig.from_dict(reference_dict(
            dimension=n, theta_star=list(rng.uniform(-1.0, 1.0, n)),
            theta0=list(rng.uniform(-0.3, 0.3, n)), horizon=300, ensemble=3,
            resamples=500, regressor={"kind": "iid_bounded", "bound": 2.0},
            **NOISES["state_dependent_bias"]))
        seeds = [cfg.trial_seed(t) for t in range(3)]
        ens = verify.run_ensemble(cfg)
        _, y_wide = kernel_observations(cfg, seeds, cfg.horizon)
        for t, wide in enumerate(verify.run_trajectories(cfg, seeds)):
            one = verify.run_trajectory(cfg, seeds[t])
            for name in ("theta", "vartheta", "V"):
                assert np.array_equal(getattr(one, name), getattr(wide, name))
            assert np.array_equal(one.e_y, wide.e_y, equal_nan=True)
            _, (y_one,) = kernel_observations(cfg, seeds[t:t + 1], cfg.horizon)
            assert np.array_equal(y_one, y_wide[t])
            assert np.array_equal(one.V, ens.V[t])

    @pytest.mark.parametrize("noise", ["biased_gaussian", "state_dependent_bias"])
    def test_observations_match_hot_step_loop(self, noise):
        cfg = RunConfig.from_dict(reference_dict(
            horizon=300, ensemble=2, resamples=500,
            **NOISES[noise], **REGRESSORS["iid_bounded"]))
        seeds = [cfg.trial_seed(t) for t in range(2)]
        kernel_phi, kernel_y = kernel_observations(cfg, seeds, cfg.horizon)
        for t, (trace, seed) in enumerate(zip(verify.run_trajectories(cfg, seeds), seeds)):
            theta, _, phi, y = hot_step_run(cfg, seed, cfg.horizon)
            assert np.array_equal(trace.theta, theta)
            assert np.array_equal(kernel_phi[t], phi)
            assert np.array_equal(kernel_y[t], y)
            assert np.array_equal(trace.e_y[:-1],
                                  [float(th @ p) - y_k for th, p, y_k in zip(theta, phi, y)])
            assert np.isnan(trace.e_y[-1])

    def test_zero_noise_converges(self):
        d = reference_dict(horizon=3000, ensemble=1, resamples=500,
                           noise={"kind": "zero"}, d_max=0.0, sigma_max=0.0,
                           gains={"gamma": 0.04, "beta": 0.5, "mu": 0.001})
        cfg = RunConfig.from_dict(d)
        trace = verify.run_trajectory(cfg, cfg.trial_seed(0))
        assert np.linalg.norm(trace.theta[-1] - cfg.theta_star) < 0.1

    def test_stays_finite_where_plain_gradient_diverges(self):
        # gamma * ||phi||^2 > 2 destabilizes the plain gradient recursion
        d = reference_dict(
            horizon=200, ensemble=1, resamples=500,
            noise={"kind": "zero"}, d_max=0.0, sigma_max=0.0,
            dimension=1, theta_star=[1.0], theta0=[0.0], vartheta0=None,
            regressor={"kind": "constant", "value": [12.0]},
            gains={"gamma": 0.04, "beta": 0.5, "mu": 0.1})
        cfg = RunConfig.from_dict(d)
        trace = verify.run_trajectory(cfg, cfg.trial_seed(0))
        assert np.isfinite(np.linalg.norm(trace.theta[-1] - cfg.theta_star))

    @pytest.mark.filterwarnings("ignore:gamma > 1/16")
    @pytest.mark.parametrize("noise", ["uniform_biased", "state_dependent_bias"])
    def test_divergence_names_its_step(self, noise):
        # the leakage mu * gamma = 50 blows the state up
        cfg = RunConfig.from_dict(reference_dict(
            horizon=2000, ensemble=1, resamples=500, mode="unrestricted",
            gains={"gamma": 100.0, "beta": 0.5, "mu": 0.5},
            regressor={"kind": "constant", "value": [0.01, 0.01]}, **NOISES[noise]))
        with pytest.raises(NonFiniteError) as exc:
            verify.run_trajectory(cfg, cfg.trial_seed(0))
        assert exc.value.step == 198


def observe(phi, theta_star, trials):
    """p, norm and y that verify._observe writes for a (steps, N, S) chunk."""
    steps, n, _ = phi.shape
    p, norm = np.empty((2, steps, n, trials))
    y = np.empty((steps, trials))
    verify._observe(phi, theta_star, p, norm, y)
    return p, norm, y


class TestObserve:
    @pytest.mark.parametrize("n", [1, 2, 5, 8])
    def test_shared_rows_match_the_same_rows_tiled(self, n):
        rng = np.random.default_rng(n)
        phi, ts = rng.uniform(-2.0, 2.0, (40, n, 1)), rng.uniform(-1.0, 1.0, n)
        shared = observe(phi, ts, 6)
        tiled = observe(np.tile(phi, (1, 1, 6)), ts, 6)
        for a, b in zip(shared, tiled):
            assert np.array_equal(a, b)
        assert np.array_equal(shared[0], np.broadcast_to(phi, shared[0].shape))

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 12])
    def test_y_rounds_as_np_dot_of_one_row(self, n):
        # vecdot over the strided component axis differs from N = 5 on
        rng = np.random.default_rng(n)
        phi, ts = rng.uniform(-2.0, 2.0, (64, n, 50)), rng.uniform(-1.0, 1.0, n)
        _, norm, y = observe(phi, ts, 50)
        for k in range(64):
            for t in range(50):
                row = np.ascontiguousarray(phi[k, :, t])
                assert y[k, t] == np.dot(row, ts)
                assert np.all(norm[k, :, t] == 1.0 + functools.reduce(
                    lambda acc, x: acc + x * x, row[1:], row[0] * row[0]))


class TestLockstepKernel:
    @pytest.mark.parametrize("noise", sorted(NOISES))
    @pytest.mark.parametrize("regressor", sorted(REGRESSORS))
    def test_matches_hot_step_loop_bitwise(self, noise, regressor, monkeypatch):
        monkeypatch.setattr(verify, "CHUNK_STEPS", 7)
        cfg = RunConfig.from_dict(reference_dict(
            horizon=60, ensemble=3, resamples=500,
            **NOISES[noise], **REGRESSORS[regressor]))
        seeds = [cfg.trial_seed(t) for t in range(3)]
        theta, vartheta, V = kernel_states(cfg, seeds, cfg.horizon)
        ens = verify.run_ensemble(cfg)
        for t, seed in enumerate(seeds):
            ref_theta, ref_vartheta, ref_V = hot_step_loop(cfg, seed, cfg.horizon)
            assert np.array_equal(theta[t], ref_theta)
            assert np.array_equal(vartheta[t], ref_vartheta)
            assert np.array_equal(V[t], ref_V)
            assert np.array_equal(ens.V[t], ref_V)

    @pytest.mark.parametrize("noise", sorted(NOISES))
    @pytest.mark.parametrize("regressor", ["sinusoid", "iid_bounded"])
    def test_one_component_matches_hot_step_loop_bitwise(self, noise, regressor, monkeypatch):
        # N = 1 takes the kernel's one-row fold, and the one-row gap of the
        # state-dependent mean
        monkeypatch.setattr(verify, "CHUNK_STEPS", 7)
        regressors = {"sinusoid": {"kind": "sinusoid", "amplitude": [1.3], "omega": 0.5,
                                   "phase": [0.4], "phi_bound": 2.0},
                      "iid_bounded": {"kind": "iid_bounded", "bound": 2.0}}
        cfg = RunConfig.from_dict(reference_dict(
            dimension=1, theta_star=[0.7], theta0=[-0.2], horizon=60, ensemble=3,
            resamples=500, **{**NOISES[noise], "regressor": regressors[regressor]}))
        seeds = [cfg.trial_seed(t) for t in range(3)]
        theta, vartheta, V = kernel_states(cfg, seeds, cfg.horizon)
        for t, seed in enumerate(seeds):
            for got, want in zip((theta[t], vartheta[t], V[t]),
                                 hot_step_loop(cfg, seed, cfg.horizon)):
                assert np.array_equal(got, want)

    def test_three_dimensional_non_dyadic_theta_star(self, monkeypatch):
        monkeypatch.setattr(verify, "CHUNK_STEPS", 16)
        cfg = RunConfig.from_dict(reference_dict(
            dimension=3, theta_star=[0.3, -1.1, 0.7], theta0=[0.1, 0.2, -0.3],
            horizon=200, ensemble=4, resamples=500,
            regressor={"kind": "iid_bounded", "bound": 2.0},
            **NOISES["state_dependent_bias"]))
        seeds = [cfg.trial_seed(t) for t in range(4)]
        theta, vartheta, V = kernel_states(cfg, seeds, cfg.horizon)
        for t, seed in enumerate(seeds):
            ref_theta, ref_vartheta, ref_V = hot_step_loop(cfg, seed, cfg.horizon)
            np.testing.assert_allclose(theta[t], ref_theta, rtol=1e-12, atol=0)
            np.testing.assert_allclose(vartheta[t], ref_vartheta, rtol=1e-12, atol=0)
            np.testing.assert_allclose(V[t], ref_V, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("n", [7, 12])
    def test_many_components_match_hot_step_loop(self, n, monkeypatch):
        # 60 steps in chunks of 7 end on a 4-step tail chunk.  Below 8 terms
        # numpy sums in the order of the kernel's slab folds, so the kernel is
        # bitwise the loop; from 8 terms on np.sum adds pairwise.
        monkeypatch.setattr(verify, "CHUNK_STEPS", 7)
        rng = np.random.default_rng(n)
        cfg = RunConfig.from_dict(reference_dict(
            dimension=n, theta_star=list(rng.uniform(-1.0, 1.0, n)),
            theta0=list(rng.uniform(-0.3, 0.3, n)), horizon=60, ensemble=3,
            resamples=500, regressor={"kind": "iid_bounded", "bound": 2.0},
            **NOISES["state_dependent_bias"]))
        seeds = [cfg.trial_seed(t) for t in range(3)]
        theta, vartheta, V = kernel_states(cfg, seeds, cfg.horizon)
        for t, seed in enumerate(seeds):
            ref = hot_step_loop(cfg, seed, cfg.horizon)
            for got, want in zip((theta[t], vartheta[t], V[t]), ref):
                if n < 8:
                    assert np.array_equal(got, want)
                else:
                    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("chunk", [1, 7, 256, 1000])
    def test_streamed_checks_equal_whole_matrix(self, chunk, monkeypatch):
        cfg = RunConfig.from_dict(reference_dict(horizon=300, ensemble=6,
                                                 resamples=500))
        consts = cfg.constants()
        alpha = consts.c1 / 2.0
        # start above T so that trials leave and re-enter {V <= T}
        init = verify.state_on_sphere(1.02 * consts.T, cfg.theta_star,
                                      cfg.gains.gamma, np.random.default_rng(4))
        ens = verify.run_ensemble(cfg, initial=init)
        whole_bound = verify.boundedness_check(ens.V, consts)
        whole_rate = verify.rate_check(ens.V, alpha, consts)
        assert 0.0 < whole_bound.frac_steps_above_T < 1.0
        assert np.any(whole_rate.mean_Vhat > 0.0)

        monkeypatch.setattr(verify, "CHUNK_STEPS", chunk)
        bound = verify.BoundednessStream(consts)
        rate = verify.RateStream(alpha, consts)
        for V in verify.ensemble_blocks(cfg, initial=init):
            bound.add(V)
            rate.add(V)
        streamed_bound, streamed_rate = bound.result(), rate.result()
        assert np.array_equal(streamed_bound.sup_per_trial, whole_bound.sup_per_trial)
        for name in ("max_sup", "threshold", "frac_steps_above_T", "all_finite",
                     "all_within_threshold", "all_reenter", "margin"):
            assert getattr(streamed_bound, name) == getattr(whole_bound, name)
        for name in ("mean_Vhat", "stderr_Vhat", "envelope", "pass_per_step"):
            assert np.array_equal(getattr(streamed_rate, name), getattr(whole_rate, name))
        assert streamed_rate.clip_radius == whole_rate.clip_radius

    @pytest.mark.parametrize("chunk", [40, 37, 38, 18])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.filterwarnings("error::UserWarning")
    def test_nonfinite_step_is_first_divergent_step(self, chunk, monkeypatch):
        # step 37 lands mid-chunk, first in a chunk, last in a chunk, mid-chunk
        cfg = RunConfig.from_dict(reference_dict(
            horizon=100, ensemble=3, resamples=500, mode="unrestricted",
            gains={"gamma": 1e8, "beta": 0.5, "mu": 0.9}))
        with pytest.raises(NonFiniteError) as ref:
            hot_step_loop(cfg, cfg.trial_seed(0), cfg.horizon)
        assert ref.value.step == 37
        monkeypatch.setattr(verify, "CHUNK_STEPS", chunk)
        with pytest.raises(NonFiniteError) as ens:
            verify.run_ensemble(cfg)
        # no runner takes the constants, whose c2 warns for gamma > 1/16
        with pytest.raises(NonFiniteError) as one:
            verify.run_trajectory(cfg, cfg.trial_seed(0))
        assert ens.value.step == one.value.step == 37


    @pytest.mark.parametrize("chunk", [40, 37, 38, 18])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_nan_observation_is_first_divergent_step(self, chunk, monkeypatch):
        # a NaN regressor row at step 37 turns a moderate state non-finite in
        # one step, with no overflow of V before it
        class NanRow:
            def __init__(self, inner):
                self.inner = inner

            def generate_batch(self, k0, k1, seeds):
                phi = self.inner.generate_batch(k0, k1, seeds).copy()
                if k0 <= 37 < k1:
                    phi[37 - k0] = np.nan
                return phi

        cfg = RunConfig.from_dict(reference_dict(horizon=100, ensemble=3, resamples=500))
        cfg.regressor = NanRow(cfg.regressor)
        monkeypatch.setattr(verify, "CHUNK_STEPS", chunk)
        with pytest.raises(NonFiniteError) as ens:
            verify.run_ensemble(cfg)
        with pytest.raises(NonFiniteError) as one:
            verify.run_trajectory(cfg, cfg.trial_seed(0))
        assert ens.value.step == one.value.step == 37


class TestProbeStates:
    def test_sphere_placement_exact(self, small_config):
        consts = small_config.constants()
        rng = np.random.default_rng(0)
        for v in (0.5, consts.K, 10 * consts.T):
            s = verify.state_on_sphere(v, small_config.theta_star,
                                       small_config.gains.gamma, rng)
            got = float(lyapunov_value_arrays(
                s.theta, s.vartheta, small_config.theta_star,
                small_config.gains.gamma))
            assert got == pytest.approx(v, rel=1e-12)

    def test_labels_cover_spheres_and_harvest(self, small_config):
        consts = small_config.constants()
        probes = verify.probe_states(small_config, consts)
        labels = [l for l, _ in probes]
        assert {"0.1K", "K", "T", "10T"}.issubset(labels)
        assert sum(l.startswith("traj") for l in labels) == verify.N_HARVEST


class TestHarvest:
    @pytest.mark.parametrize("overrides", [
        {}, dict(**REGRESSORS["iid_bounded"], **NOISES["state_dependent_bias"])])
    def test_ensemble_trial_zero_is_the_one_wide_run(self, overrides):
        # the ensemble runs past the 2000-row harvest horizon, over several chunks
        cfg = RunConfig.from_dict(reference_dict(horizon=2300, ensemble=6, **overrides))
        harvest = verify.Harvest(cfg)
        for _ in verify.ensemble_blocks(cfg, harvest=harvest):
            pass
        alone = verify.Harvest(cfg).run()
        assert harvest.horizon == 2000 and len(alone.states) == 50
        assert [label for label, _ in harvest.states] == [label for label, _ in alone.states]
        for (_, got), (_, want) in zip(harvest.states, alone.states):
            assert got.step == want.step
            assert np.array_equal(got.theta, want.theta)
            assert np.array_equal(got.vartheta, want.vartheta)


class TestDecrement:
    def test_zero_noise_degenerate_resampling(self, zero_noise_config):
        cfg = zero_noise_config
        consts = cfg.constants()
        rng = np.random.default_rng(1)
        state = cfg.initial_state()
        phi = rows(cfg.regressor, 0, 1, cfg.trial_seed(0))[0]
        probe = verify._prober(cfg, consts, phi)(state, rng, "")
        assert probe.stderr == 0.0
        assert probe.passed

    def test_minimum_state_bounded_by_chat(self, small_config):
        cfg = dataclasses.replace(small_config, resamples=10_000)
        consts = cfg.constants()
        state = TunerState(theta=cfg.theta_star.copy(),
                           vartheta=cfg.theta_star.copy())
        phi = rows(cfg.regressor, 0, 1, cfg.trial_seed(0))[0]
        probe = verify._prober(cfg, consts, phi)(state, np.random.default_rng(2), "")
        assert probe.V_k == 0.0
        assert probe.mean_V_next <= consts.c_hat + 4 * probe.stderr

    @pytest.mark.parametrize("n", [1, 2, 3, 8, 12])
    def test_probe_resamples_take_the_kernel_step(self, n, monkeypatch):
        # noise-free, every resample of every probe in a report (which share
        # their buffers) is the kernel's first step from the frozen state,
        # bit for bit at any N (np.sum's pairwise order from 8 terms on
        # would round differently)
        rng = np.random.default_rng(n)
        cfg = RunConfig.from_dict(reference_dict(
            dimension=n, theta_star=list(rng.uniform(-1.0, 1.0, n)),
            theta0=list(rng.uniform(-0.3, 0.3, n)), horizon=60, ensemble=3,
            resamples=100, **REGRESSORS["iid_bounded"], **NOISES["zero"]))
        consts = cfg.constants()
        captured = []

        def capture(theta, vartheta, theta_star, gamma):
            if theta.shape == (100, n):  # the resamples' V_{k+1}, not the kernel's V
                captured.append((theta.copy(), vartheta.copy()))
            return lyapunov_value_arrays(theta, vartheta, theta_star, gamma)

        monkeypatch.setattr(verify, "lyapunov_value_arrays", capture)
        report = verify.decrement_report(cfg, consts)
        states = verify.probe_states(cfg, consts)
        assert len(captured) == len(states)
        one_step = dataclasses.replace(cfg, horizon=1)
        for (label, state), (th, vt) in zip(states, captured):
            trace = verify.run_trajectory(one_step, cfg.trial_seed(0), initial=state)
            assert np.array_equal(th, np.tile(trace.theta[1], (100, 1))), label
            assert np.array_equal(vt, np.tile(trace.vartheta[1], (100, 1))), label
        # a harvested probe's V_k is the V the kernel recorded for its state
        harvest = verify.Harvest(cfg)
        V = verify.run_trajectory(dataclasses.replace(cfg, horizon=harvest.horizon),
                                  cfg.trial_seed(0)).V
        harvested = [p for p in report.probes if p.label.startswith("traj[")]
        assert len(harvested) == len(harvest.rows)
        for probe, row in zip(harvested, harvest.rows):
            assert probe.label == f"traj[{row}]"
            assert probe.V_k == V[row], probe.label

    def test_report_all_kinds(self, small_config):
        # each kind against the same (d_max, sigma_max) constants and states
        cfg = small_config
        consts = cfg.constants()
        harvest = verify.Harvest(cfg).run()
        kinds = set()
        for noise in (Zero(), cfg.noise, UniformBiased(center=-0.08, halfwidth=0.3),
                      StateDependentBias(d_amplitude=0.1, sd=0.45)):
            report = verify.decrement_report(dataclasses.replace(cfg, noise=noise), consts,
                                             harvest=harvest)
            kinds |= {p.noise_kind for p in report.probes}
            assert report.all_pass
        assert len(kinds) == 4


class TestBoundedness:
    def test_empty_ensemble_rejected(self, small_config):
        with pytest.raises(ValueError):
            verify.boundedness_check(np.empty((0, 0)), small_config.constants())

    def test_zero_noise_perfect_init_sup_is_v0(self):
        d = reference_dict(horizon=300, ensemble=2, resamples=500,
                           noise={"kind": "zero"}, d_max=0.0, sigma_max=0.0,
                           theta0=[1.0, -0.5], vartheta0=[1.0, -0.5])
        cfg = RunConfig.from_dict(d)
        ens = verify.run_ensemble(cfg)
        summary = verify.boundedness_check(ens.V, cfg.constants())
        assert summary.max_sup == pytest.approx(float(ens.V[:, 0].max()))
        assert summary.passed

    def test_noisy_reference_bounded(self, small_config):
        ens = verify.run_ensemble(small_config)
        summary = verify.boundedness_check(ens.V, small_config.constants())
        assert summary.passed
        assert summary.frac_steps_above_T == 0.0

    @pytest.mark.parametrize("end_above, reenter", [(False, True), (True, False)])
    def test_reentry_is_read_off_the_last_step(self, small_config, end_above, reenter):
        consts = small_config.constants()
        T = consts.T
        # (steps, trials), as the kernel lays V out: trial 0 stays below T,
        # trial 1 leaves {V <= T} and comes back, and trial 2 leaves it at the end
        buf = np.full((600, 3), 0.5 * T)
        buf[100:150, 1] = 2.0 * T
        buf[300:, 2] = 2.0 * T
        buf[-1, 2] = 2.0 * T if end_above else T
        whole = verify.boundedness_check(np.ascontiguousarray(buf.T), consts)
        assert whole.all_reenter is reenter
        assert whole.passed is reenter
        for cols in (1, 7, 256):
            stream = verify.BoundednessStream(consts)
            for V in column_blocks(buf, cols):
                stream.add(V)
            summary = stream.result()
            assert summary.all_reenter is reenter
            assert np.array_equal(summary.sup_per_trial, whole.sup_per_trial)
            for name in ("max_sup", "threshold", "frac_steps_above_T", "all_finite",
                         "all_within_threshold", "margin"):
                assert getattr(summary, name) == getattr(whole, name)


class TestRate:
    @pytest.mark.parametrize("trials", [8, 200])
    def test_any_split_sums_trials_as_numpy_does(self, small_config, trials):
        consts = small_config.constants()
        alpha = consts.c1 / 2.0
        radius = theorem4_radius(alpha, consts)
        # spread magnitudes so that any other summation order rounds differently
        buf = radius + np.random.default_rng(1).lognormal(sigma=4.0, size=(600, trials))
        vhat = clipped_V(buf, radius)
        assert np.all(vhat > 0.0)
        want_mean = np.mean(vhat, axis=1)
        want_stderr = np.std(vhat, axis=1, ddof=1) / np.sqrt(trials)
        # the whole matrix as run_ensemble lays it out, and kernel-like blocks
        reports = [verify.rate_check(np.ascontiguousarray(buf.T), alpha, consts)]
        for cols in (1, 7, 256):
            stream = verify.RateStream(alpha, consts)
            for V in column_blocks(buf, cols):
                stream.add(V)
            reports.append(stream.result())
        for report in reports:
            assert np.array_equal(report.mean_Vhat, want_mean)
            assert np.array_equal(report.stderr_Vhat, want_stderr)
            assert np.array_equal(report.pass_per_step, reports[0].pass_per_step)

    def test_invalid_alpha(self, small_config):
        consts = small_config.constants()
        ens = verify.run_ensemble(dataclasses.replace(small_config, ensemble=2, horizon=50))
        with pytest.raises(ConfigError, match=r"alpha must lie in \(0, c1="):
            verify.rate_check(ens.V, consts.c1, consts)

    def test_start_inside_target_set(self, small_config):
        cfg = small_config
        consts = cfg.constants()
        alpha = consts.c1 / 2.0
        ens = verify.run_ensemble(dataclasses.replace(cfg, ensemble=4))
        report = verify.rate_check(ens.V, alpha, consts)
        # V0 is far below the clip radius, so Vhat stays identically zero
        assert np.all(report.envelope == 0.0)
        assert report.passed

    def test_conformance_from_outside(self, small_config):
        cfg = small_config
        consts = cfg.constants()
        alpha = consts.c1 / 2.0
        K4 = theorem4_radius(alpha, consts)
        init = verify.state_on_sphere(10 * K4, cfg.theta_star,
                                      cfg.gains.gamma, np.random.default_rng(5))
        ens = verify.run_ensemble(dataclasses.replace(cfg, ensemble=16, horizon=500),
                                  initial=init)
        report = verify.rate_check(ens.V, alpha, consts)
        assert report.passed
