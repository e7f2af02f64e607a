"""Trajectory runners and the stochastic stability checks.

Conditional expectations are estimated by frozen-state resampling: freeze
(theta_k, vartheta_k, phi_k), draw many independent noise samples conditioned
on that history, advance one step per sample, and average.

Single trajectories and ensembles run on one lockstep kernel that advances
every trial CHUNK_STEPS steps at a time.  Per chunk it draws each trial's
innovations from that trial's own generator and builds every trial's
regressors in one call, so a trial's streams do not depend on the chunk size
or on the ensemble width.  The boundedness and rate checks are running
reductions fed chunk by chunk, so `verify` never holds the (trials, horizon)
V matrix: its memory is O(trials * CHUNK_STEPS + horizon).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .lyapunov import (
    InvalidAlphaError,
    clipped_V,
    lyapunov_value_arrays,
    theorem4_radius,
)
from .tuner import NonFiniteError, TunerState, _hot_update, gd_step, normalization

DEFAULT_Z = 4.0

# Steps per kernel chunk.  At 200 trials the chunk buffers take a few MB.
CHUNK_STEPS = 256


def _trial_rng(cfg, trial):
    return np.random.default_rng(cfg.trial_seed(trial))


def _draw_innovations(cfg, trial, horizon):
    """The canonical per-trial noise innovation stream."""
    rng = _trial_rng(cfg, trial)
    return np.asarray(cfg.noise.innovation(rng.uniform(size=horizon)), dtype=float)


# ---------------------------------------------------------------------------
# lockstep kernel
# ---------------------------------------------------------------------------

@dataclass
class _Block:
    """Trace rows k, k+1, ... of every trial, from one kernel chunk.

    Row j holds the state before observation k+j.  The last block holds the
    final state alone and no observation.  The state and observation arrays
    are component-major buffers that the next chunk overwrites.
    """

    k: int
    theta: np.ndarray     # (rows, N, trials)
    vartheta: np.ndarray  # (rows, N, trials)
    V: np.ndarray         # (trials, rows)
    eta: np.ndarray       # (observations, trials); observations == rows or 0
    y: np.ndarray         # (observations, trials)
    phi: np.ndarray       # (observations, N, trials), trials == 1 if shared


def _lockstep(cfg, seeds, horizon, initial):
    """Advance one trial per seed through `horizon` observations in lockstep.

    The trial with seed s draws its innovations from default_rng(s) and its
    regressors with seed s.  Each step repeats _hot_update's arithmetic on
    (N, trials) arrays, so a per-trial dot product is a sum of N rows.
    Yields _Blocks that cover trace rows 0..horizon in order; raises
    NonFiniteError naming the first step whose update is not finite.
    """
    ts = cfg.true_model.theta_star
    gains, noise, regressor = cfg.gains, cfg.noise, cfg.regressor
    gamma, beta, mu = gains.gamma, gains.beta, gains.mu
    gamma_beta = gamma * beta
    n, width, size = ts.size, len(seeds), CHUNK_STEPS
    theta0 = np.tile(gains.theta0[:, None], (1, width))  # full width: no broadcast per step
    rngs = [np.random.default_rng(s) for s in seeds]

    theta = np.empty((size + 1, n, width))
    vartheta = np.empty((size + 1, n, width))
    theta[0] = np.asarray(initial.theta, dtype=float)[:, None]
    vartheta[0] = np.asarray(initial.vartheta, dtype=float)[:, None]
    u = np.empty((width, size))
    eta = np.empty((size, width))
    y = np.empty((size, width))
    err = np.empty(width)
    a = np.empty((n, width))
    b = np.empty((n, width))

    def gradient(x, p, norm, y_j):
        """regularized_gradient(x, p, y_j), written into `a`."""
        np.multiply(x, p, out=a)
        np.add.reduce(a, axis=0, out=err)
        np.subtract(err, y_j, out=err)
        np.multiply(p, err, out=a)
        np.divide(a, norm, out=a)
        np.subtract(x, theta0, out=b)
        np.multiply(mu, b, out=b)
        return np.add(a, b, out=a)

    def v_rows(th, vt):
        v = lyapunov_value_arrays(th.transpose(0, 2, 1), vt.transpose(0, 2, 1),
                                  ts, gamma)
        return v.T

    for k0 in range(0, horizon, size):
        m = min(size, horizon - k0)
        for row, rng in zip(u, rngs):
            rng.random(out=row[:m])
        innov = np.ascontiguousarray(noise.innovation(u[:, :m]).T)
        if regressor.random:
            phi_rows = regressor.generate_batch(k0, k0 + m, seeds)
        else:
            phi_rows = regressor.generate_batch(k0, k0 + m, 0)[:, None, :]
        norms = normalization(phi_rows)
        phi_ts = _rowdot(phi_rows, ts)
        phi = np.ascontiguousarray(phi_rows.transpose(0, 2, 1))
        with np.errstate(over="ignore", invalid="ignore"):
            for j in range(m):
                th, vt, p, norm = theta[j], vartheta[j], phi[j], norms[j]
                np.add(noise.conditional_mean(th.T, vt.T), innov[j], out=eta[j])
                np.add(phi_ts[j], eta[j], out=y[j])
                g = gradient(th, p, norm, y[j])
                np.multiply(gamma_beta, g, out=a)
                np.subtract(th, a, out=a)                      # theta_bar
                np.subtract(a, vt, out=b)
                np.multiply(beta, b, out=b)
                th_next = np.subtract(a, b, out=theta[j + 1])
                g = gradient(th_next, p, norm, y[j])
                np.multiply(gamma, g, out=a)
                np.subtract(vt, a, out=vartheta[j + 1])
        finite = (np.isfinite(theta[1:m + 1]).all(axis=(1, 2))
                  & np.isfinite(vartheta[1:m + 1]).all(axis=(1, 2)))
        if not finite.all():
            raise NonFiniteError(k0 + int(np.argmin(finite)))
        yield _Block(k0, theta[:m], vartheta[:m], v_rows(theta[:m], vartheta[:m]),
                     eta[:m], y[:m], phi)
        theta[0], vartheta[0] = theta[m], vartheta[m]
    yield _Block(horizon, theta[:1], vartheta[:1], v_rows(theta[:1], vartheta[:1]),
                 eta[:0], y[:0], np.empty((0, n, width)))


def _rowdot(a, b):
    """Dot products over the last axis, rounded as np.dot rounds one pair of
    vectors (a stack of 1xN by Nx1 products shares its inner loop), so the
    kernel reproduces a per-step `phi @ theta_star`."""
    return np.matmul(a[..., None, :], b[..., :, None])[..., 0, 0]


# ---------------------------------------------------------------------------
# single-trial trace
# ---------------------------------------------------------------------------

@dataclass
class TrajectoryTrace:
    """Full per-step record of one trial.

    Row k holds the state before consuming observation k; the observation
    fields (e_y, eta, phi_norm) of the final row are NaN since no observation
    is consumed there.
    """

    k: np.ndarray
    theta: np.ndarray
    vartheta: np.ndarray
    V: np.ndarray
    Vhat: np.ndarray
    e_y: np.ndarray
    eta: np.ndarray
    phi_norm: np.ndarray
    seed: int
    config: object


def run_trajectory(cfg, seed, horizon=None, initial=None):
    """Run one trial for `horizon` steps; deterministic given (cfg, seed).

    This is the one-trial call of the lockstep kernel, so it reproduces row t
    of run_ensemble when seed == cfg.trial_seed(t).
    """
    horizon = cfg.horizon if horizon is None else horizon
    state = cfg.initial_state() if initial is None else initial
    consts = cfg.constants()
    n = cfg.dimension

    theta = np.empty((horizon + 1, n))
    vartheta = np.empty((horizon + 1, n))
    V = np.empty(horizon + 1)
    eta = np.full(horizon + 1, np.nan)
    y = np.empty(horizon)
    phi = np.empty((horizon, n))
    for blk in _lockstep(cfg, [seed], horizon, state):
        rows = slice(blk.k, blk.k + blk.V.shape[1])
        obs = slice(blk.k, blk.k + len(blk.eta))
        theta[rows] = blk.theta[:, :, 0]
        vartheta[rows] = blk.vartheta[:, :, 0]
        V[rows] = blk.V[0]
        eta[obs] = blk.eta[:, 0]
        y[obs] = blk.y[:, 0]
        phi[obs] = blk.phi[:, :, 0]

    e_y = np.full(horizon + 1, np.nan)
    phi_norm = np.full(horizon + 1, np.nan)
    e_y[:horizon] = _rowdot(theta[:horizon], phi) - y
    phi_norm[:horizon] = np.sqrt(_rowdot(phi, phi))
    Vhat = clipped_V(V, consts.K) if not consts.degenerate else np.full_like(V, np.nan)
    return TrajectoryTrace(k=np.arange(horizon + 1), theta=theta, vartheta=vartheta,
                           V=V, Vhat=Vhat, e_y=e_y, eta=eta, phi_norm=phi_norm,
                           seed=seed, config=cfg)


# ---------------------------------------------------------------------------
# lockstep ensemble
# ---------------------------------------------------------------------------

@dataclass
class EnsembleResult:
    """Per-trial Lyapunov paths from a lockstep ensemble run."""

    V: np.ndarray          # (trials, horizon+1)
    seeds: list
    horizon: int


def _ensemble_args(cfg, n_trials, horizon, initial):
    n_trials = cfg.ensemble if n_trials is None else n_trials
    if n_trials < 1:
        raise ValueError("ensemble must contain at least one trial")
    horizon = cfg.horizon if horizon is None else horizon
    init = cfg.initial_state() if initial is None else initial
    return [cfg.trial_seed(t) for t in range(n_trials)], horizon, init


def ensemble_blocks(cfg, n_trials=None, horizon=None, initial=None):
    """V of a lockstep ensemble as consecutive (trials, steps) column blocks.

    Trial t uses seed cfg.trial_seed(t).  Feed the blocks, in order, to a
    BoundednessStream or RateStream to check the ensemble without holding
    its full V matrix.
    """
    seeds, horizon, init = _ensemble_args(cfg, n_trials, horizon, initial)
    return (blk.V for blk in _lockstep(cfg, seeds, horizon, init))


def run_ensemble(cfg, n_trials=None, horizon=None, initial=None):
    """Evolve n_trials independent trajectories in lockstep, recording V only.

    Per-trial regressor and noise streams match run_trajectory(cfg,
    cfg.trial_seed(t)) exactly.
    """
    seeds, horizon, init = _ensemble_args(cfg, n_trials, horizon, initial)
    V = np.empty((len(seeds), horizon + 1))
    for blk in _lockstep(cfg, seeds, horizon, init):
        V[:, blk.k:blk.k + blk.V.shape[1]] = blk.V
    return EnsembleResult(V=V, seeds=seeds, horizon=horizon)


def _v_matrix(traces):
    """Accept an EnsembleResult, a list of traces, or a raw (trials, steps) array."""
    if isinstance(traces, EnsembleResult):
        return traces.V
    if isinstance(traces, np.ndarray):
        return np.atleast_2d(traces)
    paths = [t.V if hasattr(t, "V") else np.asarray(t, dtype=float) for t in traces]
    if not paths:
        raise ValueError("empty ensemble")
    return np.stack(paths)


# ---------------------------------------------------------------------------
# probe states
# ---------------------------------------------------------------------------

def state_on_sphere(v, theta_star, gamma, rng):
    """A tuner state with Lyapunov value exactly v, in a random direction."""
    ts = np.asarray(theta_star, dtype=float)
    n = ts.size
    u1 = rng.standard_normal(n)
    u1 /= np.linalg.norm(u1)
    u2 = rng.standard_normal(n)
    u2 /= np.linalg.norm(u2)
    r = math.sqrt(gamma * v / 2.0)
    vartheta = ts + r * u1
    theta = vartheta + r * u2
    return TunerState(theta=theta, vartheta=vartheta, step=0)


def probe_states(cfg, consts, n_harvest=50, seed=0):
    """Labelled probe states: V-spheres {0.1K, K, T, 10T} plus harvested ones."""
    rng = np.random.default_rng([cfg.base_seed, seed, 0x9E37])
    ts = cfg.true_model.theta_star
    gamma = cfg.gains.gamma
    probes = []
    if not consts.degenerate:
        for label, v in (("0.1K", 0.1 * consts.K), ("K", consts.K),
                         ("T", consts.T), ("10T", 10.0 * consts.T)):
            if v > 0:
                probes.append((label, state_on_sphere(v, ts, gamma, rng)))
    if n_harvest > 0:
        horizon = max(n_harvest, min(cfg.horizon, 2000))
        trace = run_trajectory(cfg, cfg.trial_seed(0), horizon=horizon)
        idx = np.linspace(0, horizon, n_harvest, dtype=int)
        for i in idx:
            probes.append((f"traj[{i}]",
                           TunerState(theta=trace.theta[i].copy(),
                                      vartheta=trace.vartheta[i].copy(), step=int(i))))
    return probes


# ---------------------------------------------------------------------------
# decrement check (conditional expectation by resampling)
# ---------------------------------------------------------------------------

@dataclass
class DecrementProbe:
    label: str
    noise_kind: str
    V_k: float
    mean_V_next: float
    stderr: float
    bound: float
    passed: bool
    strictly_decreasing: bool  # empirical mean delta < z * stderr


@dataclass
class DecrementReport:
    probes: list
    z: float
    resamples: int

    @property
    def all_pass(self):
        return all(p.passed for p in self.probes)


def conditional_decrement_probe(state, phi, cfg, consts, M, rng, noise=None,
                                z=DEFAULT_Z, label=""):
    """Empirical E[V_{k+1} | F_k] against V_k - c1 V_k + c2 sqrt(V_k) + c_hat."""
    if M < 100:
        raise ValueError("need at least 100 resamples")
    noise = cfg.noise if noise is None else noise
    ts = cfg.true_model.theta_star
    gains = cfg.gains
    mean_eta = noise.conditional_mean(state.theta, state.vartheta)
    eta = mean_eta + noise.innovation(rng.uniform(size=M))
    y = float(phi @ ts) + eta
    th, vt = _hot_update(state.theta, state.vartheta, phi, y, gains)
    v_next = lyapunov_value_arrays(th, vt, ts, gains.gamma)
    v_k = float(lyapunov_value_arrays(np.asarray(state.theta, dtype=float),
                                      np.asarray(state.vartheta, dtype=float),
                                      ts, gains.gamma))
    mean = float(np.mean(v_next))
    if M > 1 and np.ptp(v_next) > 0.0:
        stderr = float(np.std(v_next, ddof=1) / math.sqrt(M))
    else:
        stderr = 0.0  # degenerate resampling (e.g. zero noise)
    bound = v_k - consts.c1 * v_k + consts.c2 * math.sqrt(v_k) + consts.c_hat
    return DecrementProbe(
        label=label, noise_kind=type(noise).__name__, V_k=v_k,
        mean_V_next=mean, stderr=stderr, bound=bound,
        passed=mean <= bound + z * stderr,
        strictly_decreasing=(mean - v_k) < z * stderr)


def decrement_report(cfg, consts=None, M=None, z=DEFAULT_Z, noises=None,
                     n_harvest=50, seed=0):
    """Run the decrement probe over sphere and harvested states.

    `noises` defaults to the configured noise kind; pass several kinds to
    sweep them all against the same (d_max, sigma_max) constants.
    """
    consts = cfg.constants() if consts is None else consts
    M = cfg.resamples if M is None else M
    noises = [cfg.noise] if noises is None else noises
    states = probe_states(cfg, consts, n_harvest=n_harvest, seed=seed)
    rng = np.random.default_rng([cfg.base_seed, seed, 0xDEC])
    phi = cfg.regressor.generate(0, cfg.trial_seed(0))
    probes = []
    for noise in noises:
        for label, state in states:
            probes.append(conditional_decrement_probe(
                state, phi, cfg, consts, M, rng, noise=noise, z=z, label=label))
    return DecrementReport(probes=probes, z=z, resamples=M)


# ---------------------------------------------------------------------------
# boundedness check
# ---------------------------------------------------------------------------

@dataclass
class BoundednessSummary:
    sup_per_trial: np.ndarray
    max_sup: float
    threshold: float
    frac_steps_above_T: float
    last_entry_time: np.ndarray  # last k with V_k <= T, -1 if never
    all_finite: bool
    all_within_threshold: bool
    all_reenter: bool
    margin: float

    @property
    def passed(self):
        return self.all_finite and self.all_within_threshold and self.all_reenter


def _last_true(mask, offset):
    """Per row: offset + the column of the last True, or -1 if there is none."""
    last = offset + mask.shape[1] - 1 - np.argmax(mask[:, ::-1], axis=1)
    return np.where(mask.any(axis=1), last, -1)


class BoundednessStream:
    """The Theorem-3 proxy as a running reduction over V.

    Feed the ensemble's V to `add` as consecutive (trials, steps) column
    blocks, starting at step 0; `result` gives the same summary for any
    split.  Memory is O(trials).
    """

    def __init__(self, consts, margin=5.0):
        if consts.degenerate:
            raise ValueError("boundedness check needs non-degenerate constants")
        self.T = consts.T
        self.margin = margin
        self.steps = 0
        self.n_above = 0

    def add(self, V):
        above = V > self.T
        sup = np.max(V, axis=1)
        last_below = _last_true(~above, self.steps)
        last_above = _last_true(above, self.steps)
        if self.steps == 0:
            self.v0 = float(np.max(V[:, 0]))
        else:
            sup = np.maximum(self.sup, sup)
            last_below = np.maximum(self.last_below, last_below)
            last_above = np.maximum(self.last_above, last_above)
        self.sup, self.last_below, self.last_above = sup, last_below, last_above
        self.n_above += int(np.count_nonzero(above))
        self.steps += V.shape[1]

    def result(self):
        threshold = max(self.v0, self.T) * self.margin
        # the last excursion above T must be followed by a return to {V <= T}
        reenter = (self.last_above < 0) | (self.last_below > self.last_above)
        return BoundednessSummary(
            sup_per_trial=self.sup, max_sup=float(np.max(self.sup)),
            threshold=threshold,
            frac_steps_above_T=self.n_above / (self.sup.size * self.steps),
            last_entry_time=self.last_below,
            all_finite=bool(np.all(np.isfinite(self.sup))),
            all_within_threshold=bool(np.all(self.sup <= threshold)),
            all_reenter=bool(np.all(reenter)), margin=self.margin)


def boundedness_check(traces, consts, margin=5.0):
    """Theorem-3 proxy: finite sup V, sup below max(V0, T)*margin, re-entry."""
    V = _v_matrix(traces)
    if V.size == 0:
        raise ValueError("empty ensemble")
    stream = BoundednessStream(consts, margin)
    stream.add(V)
    return stream.result()


# ---------------------------------------------------------------------------
# exponential rate check
# ---------------------------------------------------------------------------

@dataclass
class RateReport:
    alpha: float
    clip_radius: float
    mean_Vhat: np.ndarray
    stderr_Vhat: np.ndarray
    envelope: np.ndarray
    pass_per_step: np.ndarray
    z: float

    @property
    def passed(self):
        return bool(np.all(self.pass_per_step))


def _column_sums(a):
    """Sums over axis 0 in row order.

    That is numpy's own order for a reduction over the rows of a C-ordered
    matrix with two or more columns; add.reduce sums a single column
    pairwise instead, which would make results depend on the block split.
    """
    return np.add.accumulate(a, axis=0)[-1]


class RateStream:
    """The supermartingale-envelope check as a running reduction over V.

    Feed V to `add` as in BoundednessStream.  The per-step mean and standard
    error of V-hat are computed block by block over the trials, as
    np.mean/np.std(ddof=1) compute them; memory is O(trials * block + horizon).
    """

    def __init__(self, alpha, consts, z=DEFAULT_Z):
        self.clip_radius = theorem4_radius(alpha, consts)  # raises InvalidAlphaError
        self.alpha = alpha
        self.z = z
        self.means = []
        self.stderrs = []

    def add(self, V):
        vhat = clipped_V(V, self.clip_radius)
        n, steps = vhat.shape
        if not self.means:
            self.vhat0 = float(np.max(vhat[:, 0]))
        mean = _column_sums(vhat) / n
        self.means.append(mean)
        if n > 1:
            dev = vhat - mean
            var = _column_sums(np.multiply(dev, dev, out=dev)) / (n - 1)
            self.stderrs.append(np.sqrt(var) / math.sqrt(n))
        else:
            self.stderrs.append(np.zeros(steps))

    def result(self):
        mean = np.concatenate(self.means)
        stderr = np.concatenate(self.stderrs)
        envelope = (1.0 - self.alpha) ** np.arange(mean.size) * self.vhat0
        ok = mean <= envelope + self.z * stderr
        return RateReport(alpha=self.alpha, clip_radius=self.clip_radius,
                          mean_Vhat=mean, stderr_Vhat=stderr, envelope=envelope,
                          pass_per_step=ok, z=self.z)


def rate_check(traces, alpha, consts, z=DEFAULT_Z):
    """Ensemble mean of V-hat (clipped at the Theorem-4 radius) against the
    supermartingale envelope (1-alpha)^k * Vhat_0."""
    stream = RateStream(alpha, consts, z)
    stream.add(_v_matrix(traces))
    return stream.result()


# ---------------------------------------------------------------------------
# baseline comparison
# ---------------------------------------------------------------------------

@dataclass
class BaselineRun:
    terminal_error: float
    error_trace: np.ndarray
    loss_trace: np.ndarray
    diverged_at: int  # -1 if finite throughout


@dataclass
class BaselineComparison:
    seeds: list
    hot: list
    gd: list
    normalized_gd: bool


def compare_baseline(cfg, seeds, normalized_gd=False, horizon=None):
    """HOT vs the plain gradient recursion on identical (phi, eta) streams."""
    horizon = cfg.horizon if horizon is None else horizon
    ts = cfg.true_model.theta_star
    gains = cfg.gains
    hot_runs, gd_runs = [], []
    for seed in seeds:
        trial = seed ^ cfg.base_seed
        innov = _draw_innovations(cfg, trial, horizon)
        phi_all = cfg.regressor.generate_batch(0, horizon, seed)

        th, vt = cfg.initial_state().theta, cfg.initial_state().vartheta
        gd_th = cfg.gains.theta0.copy()
        hot_err = np.full(horizon + 1, np.nan)
        gd_err = np.full(horizon + 1, np.nan)
        hot_loss = np.full(horizon, np.nan)
        gd_loss = np.full(horizon, np.nan)
        hot_err[0] = gd_err[0] = float(np.linalg.norm(gains.theta0 - ts))
        hot_div = gd_div = -1
        for k in range(horizon):
            phi = phi_all[k]
            eta = cfg.noise.conditional_mean(th, vt) + innov[k]
            y = float(phi @ ts) + eta
            if hot_div < 0:
                hot_loss[k] = 0.5 * (float(th @ phi) - y) ** 2
                try:
                    th, vt = _hot_update(th, vt, phi, y, gains)
                    if not (np.all(np.isfinite(th)) and np.all(np.isfinite(vt))):
                        raise NonFiniteError(k)
                    hot_err[k + 1] = float(np.linalg.norm(th - ts))
                except NonFiniteError:
                    hot_div = k
            if gd_div < 0:
                gd_loss[k] = 0.5 * (float(gd_th @ phi) - y) ** 2
                try:
                    gd_th = gd_step(gd_th, phi, y, gains.gamma, normalized=normalized_gd)
                    gd_err[k + 1] = float(np.linalg.norm(gd_th - ts))
                except NonFiniteError:
                    gd_div = k
        hot_runs.append(BaselineRun(
            terminal_error=float(hot_err[np.isfinite(hot_err)][-1]),
            error_trace=hot_err, loss_trace=hot_loss, diverged_at=hot_div))
        gd_runs.append(BaselineRun(
            terminal_error=float(gd_err[np.isfinite(gd_err)][-1]),
            error_trace=gd_err, loss_trace=gd_loss, diverged_at=gd_div))
    return BaselineComparison(seeds=list(seeds), hot=hot_runs, gd=gd_runs,
                              normalized_gd=normalized_gd)
