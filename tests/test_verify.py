import dataclasses
import functools
import tracemalloc

import numpy as np
import pytest

from hot_tuner.config import ConfigError, RunConfig, load_config
from hot_tuner.lyapunov import clipped_V, lyapunov_value_arrays, theorem4_radius
from hot_tuner.model import StateDependentBias, UniformBiased, Zero
from hot_tuner.tuner import NonFiniteError, TunerState, hot_step
from hot_tuner import verify

from conftest import REFERENCE_PATH, harvest_alone, reference_dict, rows

NOISES = {
    "zero": dict(noise={"kind": "zero"}, d_max=0.0, sigma_max=0.0),
    "biased_gaussian": {},
    "uniform_biased": dict(noise={"kind": "uniform_biased", "center": 0.05,
                                  "halfwidth": 0.5}),
    "state_dependent_bias": dict(noise={"kind": "state_dependent_bias",
                                        "d_amplitude": 0.1, "sd": 0.45}),
}
REGRESSORS = {
    "sinusoid": {},  # the reference config's; grid_config draws one per N
    "iid_bounded": dict(regressor={"kind": "iid_bounded", "bound": 2.0}),
    "piecewise_constant": dict(regressor={"kind": "piecewise_constant",
                                          "bound": 2.0, "dwell": 5}),
}


def grid_config(n, regressor, noise, horizon):
    """A 3-trial config of N = n from REGRESSORS and NOISES.  theta*, theta0
    and the sinusoid's amplitude and phase come from default_rng(n), the
    amplitudes inside the 2.0 ball."""
    rng = np.random.default_rng(n)
    theta_star, theta0 = rng.uniform(-1.0, 1.0, n), rng.uniform(-0.3, 0.3, n)
    sinusoid = {"kind": "sinusoid", "amplitude": list(rng.uniform(0.0, 2.0 / np.sqrt(n), n)),
                "omega": 0.5, "phase": list(rng.uniform(0.0, np.pi, n)), "phi_bound": 2.0}
    spec = dict(regressor=sinusoid) if regressor == "sinusoid" else REGRESSORS[regressor]
    return RunConfig.from_dict(reference_dict(
        dimension=n, theta_star=list(theta_star), theta0=list(theta0), horizon=horizon,
        ensemble=3, resamples=500, **NOISES[noise], **spec))


# The kernel oracle's cases: (n, regressor, noise, horizon, chunk).  60 steps
# in chunks of 7 end on a 4-step tail chunk; 300 steps at the default chunk
# run 128, 128 and 44; 7 and 14 steps in chunks of 7 end on a full chunk,
# whose block also carries the final state.
KERNEL_GRID = [
    *(pytest.param(n, regressor, noise, 60, 7, id=f"{n}-{regressor}-{noise}")
      for n in (1, 2, 3, 7) for regressor in sorted(REGRESSORS) for noise in sorted(NOISES)),
    pytest.param(12, "iid_bounded", "state_dependent_bias", 60, 7,
                 id="12-iid_bounded-state_dependent_bias"),
    *(pytest.param(2, "iid_bounded", noise, 300, verify.CHUNK_STEPS,
                   id=f"2-iid_bounded-{noise}-300")
      for noise in ("biased_gaussian", "state_dependent_bias")),
    *(pytest.param(2, regressor, noise, horizon, 7, id=f"2-{regressor}-{noise}-{horizon}")
      for regressor, noise in (("iid_bounded", "state_dependent_bias"),
                               ("sinusoid", "biased_gaussian"))
      for horizon in (7, 14)),
]


def hot_step_run(cfg, seed, horizon):
    """theta, vartheta of one trial from a plain hot_step loop, and the phi,
    eta and y fed to each step."""
    rng = np.random.default_rng(seed)
    innov = cfg.noise.innovation(rng.uniform(size=horizon))
    phi_all = rows(cfg.regressor, 0, horizon, seed)
    ts = cfg.theta_star
    state = cfg.initial_state()
    theta, vartheta, etas, ys = [state.theta], [state.vartheta], [], []
    for k in range(horizon):
        phi = phi_all[k]
        etas.append(cfg.noise.conditional_mean(state.theta, state.vartheta) + innov[k])
        ys.append(float(phi @ ts) + etas[-1])
        state = hot_step(state, phi, ys[-1], cfg.gains)
        theta.append(state.theta)
        vartheta.append(state.vartheta)
    return np.array(theta), np.array(vartheta), phi_all, np.array(etas), np.array(ys)


def column_blocks(buf, cols):
    """(trials, cols) blocks of a (steps, trials) V buffer, as the kernel yields them:
    transposed views of its C-ordered rows."""
    return [buf[k:k + cols].T for k in range(0, len(buf), cols)]


def kernel_observations(cfg, seeds, horizon):
    """phi (trials, steps, N) and y (trials, steps) that the kernel's steps read."""
    # copy each block before the kernel reuses its buffers for the next chunk
    blocks = [(b.phi.transpose(2, 0, 1).copy(), b.y.T.copy())
              for b in verify._lockstep(cfg, seeds, horizon, cfg.initial_state())]
    return [np.concatenate(parts, axis=1) for parts in zip(*blocks)]


def assert_every_run_is_the_hot_step_loop(cfg, same=np.testing.assert_array_equal):
    """Every trial of cfg's ensemble, as run_trajectories, the kernel's phi
    and y, and run_ensemble's rows give it, is the plain hot_step loop."""
    horizon = cfg.horizon
    seeds = [cfg.trial_seed(t) for t in range(cfg.ensemble)]
    kernel_phi, kernel_y = kernel_observations(cfg, seeds, horizon)
    ens = verify.run_ensemble(cfg)
    assert ens.V.shape == (len(seeds), horizon + 1)
    for t, (trace, seed) in enumerate(zip(verify.run_trajectories(cfg, seeds), seeds)):
        theta, vartheta, phi, eta, y = hot_step_run(cfg, seed, horizon)
        V = lyapunov_value_arrays(theta, vartheta, cfg.theta_star, cfg.gains.gamma)
        assert np.array_equal(trace.k, np.arange(horizon + 1))
        same(trace.theta, theta)
        same(trace.vartheta, vartheta)
        same(trace.V, V)
        same(trace.eta, np.append(eta, np.nan))
        same(trace.e_y, [float(th @ p) - y_k for th, p, y_k in zip(theta, phi, y)] + [np.nan])
        same(kernel_phi[t], phi)
        same(kernel_y[t], y)
        same(ens.V[t], V)


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
        cfg = grid_config(n, "iid_bounded", "state_dependent_bias", 300)
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
        # the reference config's theta*, in the default chunks
        assert_every_run_is_the_hot_step_loop(RunConfig.from_dict(reference_dict(
            horizon=300, ensemble=2, resamples=500,
            **NOISES[noise], **REGRESSORS["iid_bounded"])))

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
    @pytest.mark.parametrize("n, regressor, noise, horizon, chunk", KERNEL_GRID)
    def test_every_run_is_the_hot_step_loop(self, n, regressor, noise, horizon, chunk,
                                            monkeypatch):
        # Below 8 terms numpy sums in the order of the kernel's row folds, so
        # every run is bitwise the loop; from 8 terms on np.sum adds pairwise.
        monkeypatch.setattr(verify, "CHUNK_STEPS", chunk)
        assert_every_run_is_the_hot_step_loop(
            grid_config(n, regressor, noise, horizon),
            np.testing.assert_array_equal if n < 8 else
            functools.partial(np.testing.assert_allclose, rtol=1e-12, atol=0))

    @pytest.mark.parametrize("noise", sorted(NOISES))
    @pytest.mark.parametrize("regressor", sorted(REGRESSORS))
    def test_matches_hot_step_loop_bitwise(self, noise, regressor, monkeypatch):
        # the reference config's own theta* and sinusoid, which the grid's
        # default_rng(n) draws do not use
        monkeypatch.setattr(verify, "CHUNK_STEPS", 7)
        assert_every_run_is_the_hot_step_loop(RunConfig.from_dict(reference_dict(
            horizon=60, ensemble=3, resamples=500,
            **NOISES[noise], **REGRESSORS[regressor])))

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
        assert 0.0 < whole_bound["frac_steps_above_T"] < 1.0
        assert np.any(whole_rate[0] > 0.0)

        monkeypatch.setattr(verify, "CHUNK_STEPS", chunk)
        bound = verify.BoundednessStream(consts)
        rate = verify.RateStream(alpha, consts)
        rate_blocks = []
        seeds = [cfg.trial_seed(t) for t in range(cfg.ensemble)]
        for blk in verify._lockstep(cfg, seeds, cfg.horizon, init):
            bound.add(blk.V)
            rate_blocks.append(rate.add(blk.V))
        assert np.array_equal(bound.sup, np.max(ens.V, axis=1))
        assert bound.section() == whole_bound
        for name, blocks, whole in zip(("mean", "stderr", "envelope", "pass"),
                                       zip(*rate_blocks), whole_rate):
            assert np.array_equal(np.concatenate(blocks), whole), name
        assert rate.clip_radius == theorem4_radius(alpha, consts)
        assert rate.passed is bool(np.all(whole_rate[3]))

    def test_working_set_is_bounded(self):
        # a chunk's slabs set a verify run's peak memory, O(trials * chunk) at
        # any horizon: about 8.3 MB traced at 256 steps per chunk, 4.6 MB at 128
        cfg = RunConfig.from_dict(reference_dict(
            horizon=2000, ensemble=200, resamples=500,
            **NOISES["state_dependent_bias"], **REGRESSORS["iid_bounded"]))
        seeds = [cfg.trial_seed(t) for t in range(cfg.ensemble)]
        tracemalloc.start()
        try:
            for _ in verify._lockstep(cfg, seeds, cfg.horizon, cfg.initial_state()):
                pass
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5.5e6

    def test_check_memory_does_not_grow_with_horizon(self):
        def peak(horizon):
            cfg = RunConfig.from_dict(reference_dict(horizon=horizon, ensemble=20,
                                                     resamples=500))
            consts = cfg.constants()
            tracemalloc.start()
            try:
                sections = verify.run_checks(cfg, consts, ("bound", "rate"))
                assert sections["bound"]["passed"] and sections["rate"]["passed"]
                assert not sections["rate"]["failing_steps"]
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        # a verdict that kept 40 B a step would add about 720 KB
        assert peak(20_000) <= peak(2_000) + 16 * 1024

    def test_probes_start_after_the_pass_releases_its_buffers(self, monkeypatch):
        # a kernel block kept past the pass would hold the state buffers and
        # the input slot, about 1 MB at 200 trials, through the probes
        cfg = load_config(REFERENCE_PATH)
        consts = cfg.constants()
        report = verify.decrement_report
        held = []

        def spy(*args):
            held.append(tracemalloc.get_traced_memory()[0])
            return report(*args)

        monkeypatch.setattr(verify, "decrement_report", spy)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            verify.run_checks(cfg, consts, ("decrement", "bound", "rate"))
        finally:
            tracemalloc.stop()
        assert len(held) == 1 and held[0] - start < 256 * 1024

    @pytest.mark.parametrize("chunk", [40, 37, 38, 18])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.filterwarnings("error::UserWarning")
    def test_nonfinite_step_is_first_divergent_step(self, chunk, monkeypatch):
        # step 37 lands mid-chunk, first in a chunk, last in a chunk, mid-chunk
        cfg = RunConfig.from_dict(reference_dict(
            horizon=100, ensemble=3, resamples=500, mode="unrestricted",
            gains={"gamma": 1e8, "beta": 0.5, "mu": 0.9}))
        with pytest.raises(NonFiniteError) as ref:
            hot_step_run(cfg, cfg.trial_seed(0), cfg.horizon)
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
        probes = verify.probe_states(small_config, consts) + harvest_alone(small_config).states
        labels = [l for l, _ in probes]
        assert {"0.1K", "K", "T", "10T"}.issubset(labels)
        assert sum(l.startswith("traj") for l in labels) == verify.N_HARVEST


class TestHarvest:
    @pytest.mark.parametrize("overrides", [
        {}, dict(**REGRESSORS["iid_bounded"], **NOISES["state_dependent_bias"]),
        dict(horizon=30)])
    def test_ensemble_trial_zero_is_the_one_wide_run(self, overrides):
        # at horizon 2300 the ensemble runs past the 2000-row harvest horizon,
        # over several chunks; at 30 the harvest takes each of the run's rows
        cfg = RunConfig.from_dict(reference_dict(**{"horizon": 2300, "ensemble": 6, **overrides}))
        harvest = verify.Harvest(cfg)
        seeds = [cfg.trial_seed(t) for t in range(cfg.ensemble)]
        for blk in verify._lockstep(cfg, seeds, cfg.horizon, cfg.initial_state()):
            harvest.add(blk)
        alone = harvest_alone(cfg)
        assert harvest.horizon == min(cfg.horizon, 2000)
        assert len(alone.states) == min(cfg.horizon + 1, verify.N_HARVEST)
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
        cfg = dataclasses.replace(grid_config(n, "iid_bounded", "zero", 60), resamples=100)
        consts = cfg.constants()
        captured = []

        def capture(theta, vartheta, theta_star, gamma):
            if theta.shape == (100, n):  # the resamples' V_{k+1}, not the kernel's V
                captured.append((theta.copy(), vartheta.copy()))
            return lyapunov_value_arrays(theta, vartheta, theta_star, gamma)

        monkeypatch.setattr(verify, "lyapunov_value_arrays", capture)
        harvest = harvest_alone(cfg)
        report = verify.decrement_report(cfg, consts, harvest)
        states = verify.probe_states(cfg, consts) + harvest.states
        assert len(captured) == len(states)
        one_step = dataclasses.replace(cfg, horizon=1)
        for (label, state), (th, vt) in zip(states, captured):
            trace = verify.run_trajectory(one_step, cfg.trial_seed(0), initial=state)
            assert np.array_equal(th, np.tile(trace.theta[1], (100, 1))), label
            assert np.array_equal(vt, np.tile(trace.vartheta[1], (100, 1))), label
        # a harvested probe's V_k is the V the kernel recorded for its state
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
        harvest = harvest_alone(cfg)
        kinds = set()
        for noise in (Zero(), cfg.noise, UniformBiased(center=-0.08, halfwidth=0.3),
                      StateDependentBias(d_amplitude=0.1, sd=0.45)):
            report = verify.decrement_report(dataclasses.replace(cfg, noise=noise), consts,
                                             harvest)
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
        section = verify.boundedness_check(ens.V, cfg.constants())
        assert section["max_sup_V"] == pytest.approx(float(ens.V[:, 0].max()))
        assert section["passed"]

    def test_noisy_reference_bounded(self, small_config):
        ens = verify.run_ensemble(small_config)
        section = verify.boundedness_check(ens.V, small_config.constants())
        assert section["passed"]
        assert section["frac_steps_above_T"] == 0.0

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
        assert whole["all_reenter"] is reenter
        assert whole["passed"] is reenter
        for cols in (1, 7, 256):
            stream = verify.BoundednessStream(consts)
            for V in column_blocks(buf, cols):
                stream.add(V)
            assert np.array_equal(stream.sup, np.max(buf, axis=0))
            assert stream.section() == whole


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
        whole_mean, whole_stderr, _, whole_ok = verify.rate_check(
            np.ascontiguousarray(buf.T), alpha, consts)
        reports = [(whole_mean, whole_stderr, whole_ok)]
        for cols in (1, 7, 256):
            stream = verify.RateStream(alpha, consts)
            mean, stderr, _, ok = (np.concatenate(a) for a in
                                   zip(*(stream.add(V) for V in column_blocks(buf, cols))))
            reports.append((mean, stderr, ok))
        for mean, stderr, ok in reports:
            assert np.array_equal(mean, want_mean)
            assert np.array_equal(stderr, want_stderr)
            assert np.array_equal(ok, whole_ok)

    def test_streamed_verdict_lists_the_first_failing_steps(self, small_config):
        consts = small_config.constants()
        alpha = consts.c1 / 2.0
        radius = theorem4_radius(alpha, consts)
        # (steps, trials): V-hat 1 at step 0, so the envelope starts at 1; about
        # 2 at the failing steps, some in pairs across 7- and 256-column
        # boundaries; 0 elsewhere, which passes
        fail = sorted(set(range(5, 600, 23)) | {6, 7, 13, 14, 255, 256})
        buf = np.full((600, 8), 0.5 * radius)
        buf[0] = radius + 1.0
        buf[fail] = radius + 2.0 + np.random.default_rng(3).uniform(0.0, 0.1, (len(fail), 8))
        ok = verify.rate_check(np.ascontiguousarray(buf.T), alpha, consts)[3]
        failing = np.flatnonzero(~ok)
        assert np.array_equal(failing, fail)
        assert failing[19] > 256 and not np.all(ok)
        for cols in (1, 7, 256):
            stream = verify.RateStream(alpha, consts)
            for V in column_blocks(buf, cols):
                stream.add(V)
            assert stream.passed is False
            assert stream.failing_steps == failing[:20].tolist()
            assert stream.n_failing == failing.size

    def test_one_trial_has_no_spread(self, small_config):
        consts = small_config.constants()
        alpha = consts.c1 / 2.0
        radius = theorem4_radius(alpha, consts)
        buf = radius + np.random.default_rng(1).lognormal(sigma=4.0, size=(600, 1))
        mean, stderr, _, ok = verify.rate_check(np.ascontiguousarray(buf.T), alpha, consts)
        assert np.array_equal(mean, clipped_V(buf[:, 0], radius))
        assert np.array_equal(stderr, np.zeros(600))
        assert ok[0]

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
        _, _, envelope, ok = verify.rate_check(ens.V, alpha, consts)
        # V0 is far below the clip radius, so Vhat stays identically zero
        assert np.all(envelope == 0.0)
        assert np.all(ok)

    def test_conformance_from_outside(self, small_config):
        cfg = small_config
        consts = cfg.constants()
        alpha = consts.c1 / 2.0
        K4 = theorem4_radius(alpha, consts)
        init = verify.state_on_sphere(10 * K4, cfg.theta_star,
                                      cfg.gains.gamma, np.random.default_rng(5))
        ens = verify.run_ensemble(dataclasses.replace(cfg, ensemble=16, horizon=500),
                                  initial=init)
        assert np.all(verify.rate_check(ens.V, alpha, consts)[3])
