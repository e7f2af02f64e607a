"""Trajectory runners and the stochastic stability checks.

Every HOT update here is a step of _hot_stepper on component-major
(N, width) buffers, whose sums over the N components fold left, and every V
is lyapunov_value_arrays, whose norms fold left too.  Every multi-step run
-- traces, ensembles and simulate -- goes through one lockstep kernel that
advances every trial CHUNK_STEPS steps at a time, laid out
(steps, N, trials).  Per chunk it does the work that does not depend on the
state: every trial's innovations and regressors from its own seed, the
observation rows, V, the finite check, and every eta and y if the
conditional mean is a constant.  Per step it makes only the update's ufunc
calls, and a state-dependent mean's.  A trace holds the columns simulate
writes, V-hat aside, taken block by block; no runner computes the constants.

The observation rows -- phi at full width, 1 + |phi|^2 and phi . theta* --
are built in one place, _observe, for the kernel and the decrement probe,
from shared and per-trial regressors alike; its docstring states the
rounding rule.

Every run takes its horizon, trial count, resample count and noise kind
from the RunConfig, which checks their ranges.  The decrement check
estimates E[V_{k+1} | F_k] by frozen-state resampling: M = cfg.resamples
noise draws given the history, as the columns of (N, M) buffers that one
kernel step advances.  The boundedness and rate checks are running
reductions fed chunk by chunk, whose memory is O(trials * CHUNK_STEPS) at
any horizon.  Each reads a chunk's V as the kernel lays it out: the rate
check sums each step's trials along the contiguous axis, as np.mean and
np.std do, and the boundedness check reads re-entry off the last step.
Every verify command makes one kernel pass; the decrement probe's Harvest
takes its states from trial 0 of --check all's ensemble, or runs alone.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .lyapunov import clipped_V, lyapunov_value_arrays, theorem4_radius
from .model import _sum_rows, _sum_squares
from .tuner import NonFiniteError, TunerState

Z = 4.0  # standard errors of slack in the decrement and rate tests
BOUND_MARGIN = 5.0  # the boundedness threshold, in units of max(V0, T)
N_HARVEST = 50  # trajectory states the decrement probe starts from
N_FAILING = 20  # failing steps a rate verdict lists

# Steps per kernel chunk.  A chunk's buffers and temporaries, about ten
# (CHUNK_STEPS, N, trials) arrays, set a verify run's peak RSS: at 200 trials
# and N = 2 each is 0.4 MB at 128 steps.  There, 128 takes 3.5 MB less peak
# RSS than 256 at a time per run within the noise; 64 saves 1.5 MB more but
# runs about 25% slower.
CHUNK_STEPS = 128


# ---------------------------------------------------------------------------
# lockstep kernel
# ---------------------------------------------------------------------------

@dataclass
class _Block:
    """Trace rows k, k+1, ... of every trial, from one kernel chunk.

    Row j holds the state before observation k+j.  The last block holds the
    final state alone and no observation.  The state and observation arrays
    are views of kernel buffers that the next chunk overwrites; V is a fresh
    array per block.
    """

    k: int
    theta: np.ndarray     # (rows, N, trials)
    vartheta: np.ndarray  # (rows, N, trials)
    V: np.ndarray         # (trials, rows)
    eta: np.ndarray       # (observations, trials); observations == rows or 0
    y: np.ndarray         # (observations, trials)
    phi: np.ndarray       # (observations, N, trials)


def _hot_stepper(gains, n, width):
    """(carry, step) for the HOT update of (n, width) component-major states.

    step(th, vt, p, norm, y_j, th_out, vt_out) writes the update into
    (th_out, vt_out), which may be (th, vt); norm is 1 + |p|^2 per row, and
    carry(theta) seeds the leakage term mu * (theta - theta0) that each step
    hands to the next.  It is hot_step's arithmetic with every sum over the
    N rows folded left, numpy's order for fewer than 8 contiguous terms.
    Scalars are 0-d arrays and p and norm come at full width: per call, a
    Python float or a broadcast operand costs more than the arithmetic on a
    few hundred columns.  Call it under np.errstate(over="ignore", invalid="ignore").
    """
    gamma_beta, beta, gamma, mu = (np.array(x) for x in (
        gains.gamma * gains.beta, gains.beta, gains.gamma, gains.mu))
    theta0 = np.tile(gains.theta0[:, None], (1, width))
    add, subtract, multiply, divide = np.add, np.subtract, np.multiply, np.divide
    err = np.empty(width)
    a, b = np.empty((2, n, width))  # b: the leakage carry
    a_rows = tuple(a)

    def carry(theta):
        multiply(mu, subtract(theta, theta0, b), b)

    def residual(x, p, norm, y_j):
        """a = p * (x . p - y_j) / norm, the normalised loss gradient at x."""
        multiply(x, p, a)
        subtract(_sum_rows(a_rows, err), y_j, err)
        multiply(p, err, a)
        return divide(a, norm, a)

    def step(th, vt, p, norm, y_j, th_out, vt_out):
        # theta_bar = th - gamma*beta * regularized_gradient(th)
        add(residual(th, p, norm, y_j), b, a)
        multiply(gamma_beta, a, a)
        subtract(th, a, a)
        # theta_next = theta_bar - beta * (theta_bar - vt)
        subtract(a, vt, b)
        multiply(beta, b, b)
        th_next = subtract(a, b, th_out)
        # vartheta_next = vt - gamma * regularized_gradient(theta_next)
        residual(th_next, p, norm, y_j)
        subtract(th_next, theta0, b)
        multiply(mu, b, b)
        add(a, b, a)
        multiply(gamma, a, a)
        subtract(vt, a, vt_out)

    return carry, step


def _lockstep(cfg, seeds, horizon, initial):
    """Advance one trial per seed through `horizon` observations in lockstep.

    The trial with seed s draws its innovations from default_rng(s) and its
    regressors with seed s; _observe builds the observation rows, so for
    N < 8 the kernel is bitwise a hot_step loop.  Yields _Blocks that cover
    trace rows 0..horizon in order; raises NonFiniteError naming the first
    step whose update is not finite.
    """
    ts, noise, regressor = cfg.theta_star, cfg.noise, cfg.regressor
    n, width, size = ts.size, len(seeds), CHUNK_STEPS
    rngs = [np.random.default_rng(s) for s in seeds]
    state_mean = noise.state_mean(n, width)  # None: a constant mean, added per chunk
    add = np.add

    theta, vartheta = np.empty((2, size + 1, n, width))
    theta[0] = np.asarray(initial.theta, dtype=float)[:, None]
    vartheta[0] = np.asarray(initial.vartheta, dtype=float)[:, None]
    u = np.empty((width, size))
    eta = np.empty((size, width))
    y = np.empty((size, width))
    p, norm = np.empty((2, size, n, width))
    carry, step = _hot_stepper(cfg.gains, n, width)
    carry(theta[0])

    def v_rows(th, vt):
        """V of (rows, N, trials) states as (trials, rows).  A huge finite state
        overflows to V = inf, which the boundedness check reports."""
        with np.errstate(over="ignore", invalid="ignore"):
            return lyapunov_value_arrays(th.transpose(0, 2, 1), vt.transpose(0, 2, 1),
                                         ts, cfg.gains.gamma).T

    for k0 in range(0, horizon, size):
        m = min(size, horizon - k0)
        for row, rng in zip(u, rngs):
            rng.random(out=row[:m])
        innov = noise.innovation(u[:, :m]).T
        # unnamed, the fresh batch is freed once copied into p
        _observe(regressor.generate_batch(k0, k0 + m, seeds), ts, p[:m], norm[:m], y[:m])
        if state_mean is None:
            add(noise.conditional_mean(), innov, eta[:m])
            add(y[:m], eta[:m], y[:m])
        else:
            eta[:m] = innov  # eta_j = mean_j + innovation_j, and y_j += eta_j, per step
        with np.errstate(over="ignore", invalid="ignore"):
            for j in range(m):
                th, vt, y_j = theta[j], vartheta[j], y[j]
                if state_mean is not None:
                    add(y_j, add(state_mean(th, vt), eta[j], eta[j]), y_j)
                step(th, vt, p[j], norm[j], y_j, theta[j + 1], vartheta[j + 1])
        V_rows = v_rows(theta[:m], vartheta[:m])
        # V covers rows 0..m-1 and overflows for huge finite states too, so
        # it only tells when to look for the first non-finite row 1..m
        if not (np.isfinite(V_rows).all() and np.isfinite(theta[m]).all()
                and np.isfinite(vartheta[m]).all()):
            finite = (np.isfinite(theta[1:m + 1]).all(axis=(1, 2))
                      & np.isfinite(vartheta[1:m + 1]).all(axis=(1, 2)))
            if not finite.all():
                raise NonFiniteError(k0 + int(np.argmin(finite)))
        yield _Block(k0, theta[:m], vartheta[:m], V_rows, eta[:m], y[:m], p[:m])
        theta[0], vartheta[0] = theta[m], vartheta[m]
    yield _Block(horizon, theta[:1], vartheta[:1], v_rows(theta[:1], vartheta[:1]),
                 eta[:0], y[:0], p[:0])


def _observe(phi, theta_star, p, norm, y):
    """Write a ([steps,] N, S) chunk of regressor rows, S the trial count or
    1 for a regressor that every trial shares, as the HOT step reads it: the
    rows broadcast to every trial into p ([steps,] N, trials), 1 + |phi|^2
    for each component into norm, likewise, and phi . theta* into y
    ([steps,] trials).  y is np.vecdot over the contiguous (S, N) rows,
    which it rounds as np.dot rounds one pair of vectors, so it is
    hot_step's `phi @ theta_star`; over a strided component axis vecdot
    rounds differently from N = 5 on.
    """
    rows = phi.swapaxes(-1, -2)
    # (steps, S) dots, then broadcast: out=y would take a shared row's dot once per trial
    y[...] = np.vecdot(np.ascontiguousarray(rows), theta_star)
    norm[...] = 1.0 + _sum_squares(rows)[..., None, :]
    p[...] = phi


# ---------------------------------------------------------------------------
# per-trial traces
# ---------------------------------------------------------------------------

@dataclass
class TrajectoryTrace:
    """The per-step record of one trial that a simulate trace holds.

    Row k holds the state before consuming observation k; the observation
    fields (e_y, eta, phi_norm) of the final row are NaN since no observation
    is consumed there.  V-hat is left to the trace writer, which holds K.
    """

    k: np.ndarray
    theta: np.ndarray
    vartheta: np.ndarray
    V: np.ndarray
    e_y: np.ndarray
    eta: np.ndarray
    phi_norm: np.ndarray


def run_trajectories(cfg, seeds, initial=None):
    """One TrajectoryTrace per seed, from one lockstep kernel pass.

    Deterministic given (cfg, seed): a trial's trace does not depend on the
    other seeds, so row t of run_ensemble matches seed cfg.trial_seed(t).
    """
    horizon = cfg.horizon
    state = cfg.initial_state() if initial is None else initial
    shape = (len(seeds), horizon + 1, cfg.dimension)

    theta = np.empty(shape)
    vartheta = np.empty(shape)
    V = np.empty(shape[:2])
    e_y, eta, phi_norm = np.full((3,) + shape[:2], np.nan)
    for blk in _lockstep(cfg, seeds, horizon, state):
        rows = slice(blk.k, blk.k + blk.V.shape[1])
        obs = slice(blk.k, blk.k + len(blk.eta))
        theta[:, rows] = blk.theta.transpose(2, 0, 1)
        vartheta[:, rows] = blk.vartheta.transpose(2, 0, 1)
        V[:, rows] = blk.V
        eta[:, obs] = blk.eta.T
        # vecdot over contiguous (trials, steps, N) rows rounds as np.dot does
        phi = np.ascontiguousarray(blk.phi.transpose(2, 0, 1))
        e_y[:, obs] = np.vecdot(theta[:, obs], phi) - blk.y.T
        phi_norm[:, obs] = np.sqrt(np.vecdot(phi, phi))
    return [TrajectoryTrace(k=np.arange(horizon + 1), theta=theta[t], vartheta=vartheta[t],
                            V=V[t], e_y=e_y[t], eta=eta[t], phi_norm=phi_norm[t])
            for t in range(len(seeds))]


def run_trajectory(cfg, seed, initial=None):
    """Run one trial: run_trajectories for one seed."""
    return run_trajectories(cfg, [seed], initial)[0]


# ---------------------------------------------------------------------------
# lockstep ensemble
# ---------------------------------------------------------------------------

@dataclass
class EnsembleResult:
    """Per-trial Lyapunov paths from a lockstep ensemble run."""

    V: np.ndarray          # (trials, horizon+1)
    horizon: int


def ensemble_blocks(cfg, initial=None, harvest=None):
    """V of a lockstep ensemble as consecutive (trials, steps) column blocks.

    Trial t < cfg.ensemble uses seed cfg.trial_seed(t).  Feed the blocks, in order, to a
    BoundednessStream or RateStream to check the ensemble without holding
    its full V matrix.  A Harvest passed as `harvest` takes trial 0's states
    as the blocks go by.
    """
    seeds = [cfg.trial_seed(t) for t in range(cfg.ensemble)]
    init = cfg.initial_state() if initial is None else initial
    for blk in _lockstep(cfg, seeds, cfg.horizon, init):
        if harvest is not None:
            harvest.add(blk)
        yield blk.V


def run_ensemble(cfg, initial=None):
    """The ensemble_blocks run as one (trials, horizon+1) V matrix.

    Per-trial regressor and noise streams match run_trajectory(cfg,
    cfg.trial_seed(t)) exactly.
    """
    return EnsembleResult(V=np.concatenate(list(ensemble_blocks(cfg, initial)), axis=1),
                          horizon=cfg.horizon)


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


class Harvest:
    """Labelled states of trial 0 at the trace rows the decrement probe starts from.

    The rows are up to N_HARVEST distinct, evenly spaced rows, 0 to horizon =
    min(cfg.horizon, 2000), of the run with seed cfg.trial_seed(0) from the
    config's initial state.  `add` takes them from the kernel blocks of any
    run whose trial 0 is that trajectory, such as the checks' ensemble;
    `run` makes the one-wide run itself.
    """

    def __init__(self, cfg):
        self.cfg = cfg
        self.horizon = min(cfg.horizon, 2000)
        self.rows = np.linspace(0, self.horizon, min(N_HARVEST, self.horizon + 1), dtype=int)
        self.states = []

    def add(self, blk):
        for i in self.rows[(self.rows >= blk.k) & (self.rows < blk.k + len(blk.theta))]:
            j = i - blk.k
            self.states.append((f"traj[{i}]", TunerState(
                theta=blk.theta[j, :, 0].copy(), vartheta=blk.vartheta[j, :, 0].copy(),
                step=int(i))))

    def run(self):
        cfg = self.cfg
        for blk in _lockstep(cfg, [cfg.trial_seed(0)], self.horizon, cfg.initial_state()):
            self.add(blk)
        return self


def probe_states(cfg, consts, harvest=None):
    """Labelled probe states: V-spheres {0.1K, K, T, 10T} plus harvested ones.

    The harvested states come from `harvest`, a Harvest(cfg) that a run of
    the config fed, or else from a one-wide run of Harvest(cfg).
    """
    rng = np.random.default_rng([cfg.base_seed, 0, 0x9E37])
    ts = cfg.theta_star
    gamma = cfg.gains.gamma
    probes = []
    # degenerate constants have NaN K and T, and so no spheres
    for label, v in (("0.1K", 0.1 * consts.K), ("K", consts.K),
                     ("T", consts.T), ("10T", 10.0 * consts.T)):
        if v > 0:
            probes.append((label, state_on_sphere(v, ts, gamma, rng)))
    if harvest is None:
        harvest = Harvest(cfg).run()
    return probes + harvest.states


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


def _prober(cfg, consts, phi):
    """probe(state, rng, label): the decrement probe at regressor phi, whose
    M = cfg.resamples draws of cfg.noise each take the kernel's step from the
    frozen state as a column of (N, M) buffers that the probes of one report
    share."""
    ts, gamma, noise, M = cfg.theta_star, cfg.gains.gamma, cfg.noise, cfg.resamples
    p, norm = np.empty((2, ts.size, M))
    y = np.empty(M)
    _observe(phi[:, None], ts, p, norm, y)
    th, vt = np.empty((2,) + p.shape)
    carry, step = _hot_stepper(cfg.gains, ts.size, M)

    def probe(state, rng, label):
        mean_eta = noise.conditional_mean(state.theta, state.vartheta)
        eta = mean_eta + noise.innovation(rng.uniform(size=M))
        th[...], vt[...] = state.theta[:, None], state.vartheta[:, None]
        carry(th)
        # a huge finite state overflows V to inf, and its spread to NaN
        with np.errstate(over="ignore", invalid="ignore"):
            step(th, vt, p, norm, y + eta, th, vt)
            # (M, N) views of component-major buffers: V's sums fold left over the N slabs
            v_next = lyapunov_value_arrays(th.T, vt.T, ts, gamma)
            v_k = float(lyapunov_value_arrays(state.theta, state.vartheta, ts, gamma))
            mean = float(np.mean(v_next))
            # degenerate resampling (e.g. zero noise) has no spread to estimate;
            # an overflowed V has a NaN spread, and a NaN stderr
            stderr = 0.0 if np.ptp(v_next) == 0.0 else float(np.std(v_next, ddof=1) / math.sqrt(M))
        bound = v_k - consts.c1 * v_k + consts.c2 * math.sqrt(v_k) + consts.c_hat
        return DecrementProbe(
            label=label, noise_kind=type(noise).__name__, V_k=v_k,
            mean_V_next=mean, stderr=stderr, bound=bound,
            passed=mean <= bound + Z * stderr,
            strictly_decreasing=(mean - v_k) < Z * stderr)
    return probe


def decrement_report(cfg, consts, harvest=None):
    """Run the decrement probe over sphere and harvested states.

    A Harvest fed by the checks' ensemble saves the one-wide harvest run.
    """
    states = probe_states(cfg, consts, harvest)
    rng = np.random.default_rng([cfg.base_seed, 0, 0xDEC])
    phi = cfg.regressor.generate_batch(0, 1, [cfg.trial_seed(0)])[0, :, 0]
    probe = _prober(cfg, consts, phi)
    return DecrementReport(probes=[probe(state, rng, label) for label, state in states],
                           z=Z, resamples=cfg.resamples)


# ---------------------------------------------------------------------------
# boundedness check
# ---------------------------------------------------------------------------

@dataclass
class BoundednessSummary:
    sup_per_trial: np.ndarray
    max_sup: float
    threshold: float
    frac_steps_above_T: float
    all_finite: bool
    all_within_threshold: bool
    all_reenter: bool
    margin: float

    @property
    def passed(self):
        return self.all_finite and self.all_within_threshold and self.all_reenter


class BoundednessStream:
    """The Theorem-3 proxy as a running reduction over V.

    Feed the ensemble's V to `add` as consecutive (trials, steps) column
    blocks, starting at step 0; `result` gives the same summary for any
    split.  Memory is O(trials).
    """

    def __init__(self, consts):
        if consts.degenerate:
            raise ValueError("boundedness check needs non-degenerate constants")
        self.T = consts.T
        self.steps = 0
        self.n_above = 0
        self.sup = -np.inf

    def add(self, V):
        above = V > self.T
        if self.steps == 0:
            self.v0 = float(np.max(V[:, 0]))
        self.sup = np.maximum(self.sup, np.max(V, axis=1))
        self.above_at_end = above[:, -1]
        self.n_above += int(np.count_nonzero(above))
        self.steps += V.shape[1]

    def result(self):
        threshold = max(self.v0, self.T) * BOUND_MARGIN
        return BoundednessSummary(
            sup_per_trial=self.sup, max_sup=float(np.max(self.sup)),
            threshold=threshold,
            frac_steps_above_T=self.n_above / (self.sup.size * self.steps),
            all_finite=bool(np.all(np.isfinite(self.sup))),
            all_within_threshold=bool(np.all(self.sup <= threshold)),
            # a trial re-enters {V <= T} after its last excursion iff it ends there
            all_reenter=not np.any(self.above_at_end), margin=BOUND_MARGIN)


def boundedness_check(V, consts):
    """Theorem-3 proxy on a (trials, steps) V matrix: finite sup V, sup below
    max(V0, T) * BOUND_MARGIN, re-entry."""
    if V.size == 0:
        raise ValueError("empty ensemble")
    stream = BoundednessStream(consts)
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


class RateStream:
    """The supermartingale-envelope check as a running reduction over V.

    Feed V to `add` as in BoundednessStream.  Each call returns the block's
    per-step (mean, stderr, envelope, pass) arrays, where the mean and
    standard error of V-hat are np.mean/np.std(ddof=1) over its trials,
    along the contiguous axis of the kernel's (steps, trials) buffers, and
    folds them into the verdict: `passed`, the first N_FAILING failing steps
    and `n_failing`.  Any split gives the same bits; memory is
    O(trials * block) at any horizon.
    """

    def __init__(self, alpha, consts):
        self.clip_radius = theorem4_radius(alpha, consts)  # a ConfigError unless 0 < alpha < c1
        self.alpha = alpha
        self.steps = 0
        self.n_failing = 0
        self.failing_steps = []

    @property
    def passed(self):
        return self.n_failing == 0

    def add(self, V):
        # (steps, trials): a no-op for a kernel block, a transposed view of
        # its C-ordered buffer; a copy for a whole (trials, steps) matrix
        vhat = np.ascontiguousarray(clipped_V(V, self.clip_radius).T)
        steps, n = vhat.shape
        if self.steps == 0:
            self.vhat0 = float(np.max(vhat[0]))
        # np.mean and np.std(ddof=1) over axis 1, with the deviations taken in place
        mean = np.add.reduce(vhat, axis=1) / n
        if n > 1:
            with np.errstate(over="ignore", invalid="ignore"):  # V = inf: inf - inf
                dev = np.subtract(vhat, mean[:, None], out=vhat)
                var = np.add.reduce(np.multiply(dev, dev, out=dev), axis=1) / (n - 1)
            stderr = np.sqrt(var) / math.sqrt(n)
        else:
            stderr = np.zeros(steps)
        # elementwise, so a block's envelope is its slice of the whole one
        envelope = (1.0 - self.alpha) ** np.arange(self.steps, self.steps + steps) * self.vhat0
        ok = mean <= envelope + Z * stderr
        failing = np.flatnonzero(~ok)
        self.failing_steps += (failing[:N_FAILING - len(self.failing_steps)] + self.steps).tolist()
        self.n_failing += failing.size
        self.steps += steps
        return mean, stderr, envelope, ok


def rate_check(V, alpha, consts):
    """Ensemble mean of V-hat (clipped at the Theorem-4 radius) over a
    (trials, steps) V matrix against the supermartingale envelope
    (1-alpha)^k * Vhat_0: RateStream's reduction of the whole matrix."""
    stream = RateStream(alpha, consts)
    mean, stderr, envelope, ok = stream.add(V)
    return RateReport(alpha=alpha, clip_radius=stream.clip_radius, mean_Vhat=mean,
                      stderr_Vhat=stderr, envelope=envelope, pass_per_step=ok, z=Z)
