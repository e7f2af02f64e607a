"""Trajectory runners and the stochastic stability checks.

Every HOT update here is a step of _hot_stepper on component-major
(N, width) buffers, whose sums over the N components fold left, and every V
is lyapunov_value_arrays, whose norms fold left too.  Every multi-step run
-- traces, ensembles and simulate -- goes through one lockstep kernel that
advances every trial CHUNK_STEPS steps at a time, laid out
(steps, N, trials).  Per chunk, _chunk_inputs does the work that only the
seeds decide: every trial's innovations and regressors from its own seed,
and the observation rows.  The kernel adds the conditional mean to eta and
eta to y, a constant mean per chunk and a state-dependent one per step, and
makes per step only the update's ufunc calls, and per chunk V and the finite
check.  A trace holds the columns simulate writes, V-hat aside, taken block
by block; no runner computes the constants.

A pass on an IidBounded regressor (per-trial iid draws) of
PIPE_MIN_TRIAL_STEPS trial-steps (horizon x trials) or more and more than
one chunk, where os.fork exists and the process may run on two or more
CPUs, forks one child, the input producer, that runs _chunk_inputs into
two shared slots, filling the next chunk while the parent steps this one.
Any other pass runs it in-process into one slot.  _pass_inputs owns the
producer -- its pipes, fork, loop and reaping -- so a command forks at most
this child, and only on long iid passes.  Outputs are bit-identical either
way; a producer that cannot start or dies raises RuntimeError, an internal
error.  getrusage(RUSAGE_SELF) does not count its CPU time or memory:
RUSAGE_CHILDREN counts them once the pass has reaped it.

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
run_checks makes every verify command's one kernel pass, over the bound
and rate checks' ensemble or over trial 0 alone, and returns each check's
section of the verify report: once the pass is done, decrement_report
probes, in-process, every state of the Harvest: the sphere states and then
the states it took from that pass's trial 0.
"""
from __future__ import annotations

import contextlib
import gc
import math
import mmap
import os
import signal
from dataclasses import asdict, dataclass

import numpy as np

from .lyapunov import clipped_V, lyapunov_value_arrays, theorem4_radius
from .model import IidBounded, _sum_rows, _sum_squares
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

# A kernel pass forks its input producer only on an IidBounded regressor,
# from PIPE_MIN_TRIAL_STEPS trial-steps (horizon x trials) on: the inputs and
# sizes at which forking won every pair of every measured set (README).
PIPE_MIN_TRIAL_STEPS = 10_000_000
_READY = b"\0"  # a pipe's byte: a chunk ready, or a slot free


# ---------------------------------------------------------------------------
# lockstep kernel
# ---------------------------------------------------------------------------

@dataclass
class _Block:
    """Trace rows k, k+1, ... of every trial, from one kernel chunk.

    Row j holds the state before observation k+j.  The last block also holds
    the final state, row `horizon`, after its last observation, so its state
    arrays and V have one row more than its observations.  The state arrays
    are views of kernel buffers that the next chunk overwrites.  eta and y,
    which the kernel completed, and phi are views of an input slot that
    lives until the chunk after next: once the pass is resumed, the forked
    producer may refill it with that chunk (in-process, the next chunk
    refills it).  V is a fresh array per block.
    """

    k: int
    theta: np.ndarray     # (rows, N, trials)
    vartheta: np.ndarray  # (rows, N, trials)
    V: np.ndarray         # (trials, rows)
    eta: np.ndarray       # (observations, trials); observations == rows, or rows - 1 last
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

    _chunk_inputs makes each chunk's observation rows and innovations; this
    adds the conditional mean to eta and eta to y in the slot, a constant
    mean once per chunk.  So for N < 8 the kernel is bitwise a hot_step
    loop.  Yields _Blocks that cover trace rows 0..horizon in order; raises
    NonFiniteError naming the first step whose update is not finite.
    """
    ts = cfg.theta_star
    n, width, size = ts.size, len(seeds), CHUNK_STEPS
    state_mean = cfg.noise.state_mean(n, width)  # None: a constant mean
    add = np.add

    theta, vartheta = np.empty((2, size + 1, n, width))
    theta[0] = np.asarray(initial.theta, dtype=float)[:, None]
    vartheta[0] = np.asarray(initial.vartheta, dtype=float)[:, None]
    carry, step = _hot_stepper(cfg.gains, n, width)
    carry(theta[0])

    inputs = _pass_inputs(cfg, seeds, horizon)
    try:
        for k0 in range(0, horizon, size):
            m = min(size, horizon - k0)
            rows = m + (k0 + m == horizon)  # the last chunk's block adds the final state
            p, norm, y, eta = next(inputs)
            if state_mean is None:  # eta = mean + innovation; y += eta
                add(y[:m], add(cfg.noise.conditional_mean(), eta[:m], eta[:m]), y[:m])
            with np.errstate(over="ignore", invalid="ignore"):
                for j in range(m):
                    th, vt, y_j = theta[j], vartheta[j], y[j]
                    if state_mean is not None:  # eta_j = mean_j + innovation_j; y_j += eta_j
                        add(y_j, add(state_mean(th, vt), eta[j], eta[j]), y_j)
                    step(th, vt, p[j], norm[j], y_j, theta[j + 1], vartheta[j + 1])
                # V as (trials, rows); a huge finite state overflows to V = inf,
                # which the boundedness check reports
                V_rows = lyapunov_value_arrays(theta[:rows].transpose(0, 2, 1),
                                               vartheta[:rows].transpose(0, 2, 1),
                                               ts, cfg.gains.gamma).T
            # an infinite V is no fault by itself: it only tells when to look
            # for the first non-finite row 1..m
            if not (np.isfinite(V_rows).all() and np.isfinite(theta[m]).all()
                    and np.isfinite(vartheta[m]).all()):
                finite = (np.isfinite(theta[1:m + 1]).all(axis=(1, 2))
                          & np.isfinite(vartheta[1:m + 1]).all(axis=(1, 2)))
                if not finite.all():
                    raise NonFiniteError(k0 + int(np.argmin(finite)))
            yield _Block(k0, theta[:rows], vartheta[:rows], V_rows, eta[:m], y[:m], p[:m])
            theta[0], vartheta[0] = theta[m], vartheta[m]
    finally:
        inputs.close()


def _slot(n, width):
    """(p, norm, y, eta): one chunk's inputs, p and norm (CHUNK_STEPS, n, width)
    and y and eta (CHUNK_STEPS, width), as views of one float array on an
    anonymous shared mapping, which a forked producer writes in place."""
    size, split = CHUNK_STEPS, 2 * CHUNK_STEPS * n * width
    try:
        buf = mmap.mmap(-1, (split + 2 * size * width) * np.dtype(float).itemsize)
    except OSError as exc:  # not an --out error: an internal one
        raise RuntimeError(f"cannot map the kernel's input slot: {exc}") from None
    flat = np.frombuffer(buf)
    p, norm = flat[:split].reshape(2, size, n, width)
    y, eta = flat[split:].reshape(2, size, width)
    return p, norm, y, eta


def _chunk_inputs(cfg, seeds, horizon, slots):
    """Write chunk c's inputs into slots[c % len(slots)], for c = 0, 1, ...,
    yielding that slot after each.

    The trial with seed s draws its innovations, into eta, from
    default_rng(s) and its regressors with seed s, and _observe builds p,
    norm and y = phi . theta*: only what the seeds decide, never the
    conditional mean, which the kernel adds.
    """
    ts, noise, regressor = cfg.theta_star, cfg.noise, cfg.regressor
    width, size = len(seeds), CHUNK_STEPS
    rngs = [np.random.default_rng(s) for s in seeds]
    u = np.empty((width, size))
    for c, k0 in enumerate(range(0, horizon, size)):
        m = min(size, horizon - k0)
        slot = p, norm, y, eta = slots[c % len(slots)]
        for row, rng in zip(u, rngs):
            rng.random(out=row[:m])
        eta[:m] = noise.innovation(u[:, :m]).T
        # unnamed, the fresh batch is freed once copied into p
        _observe(regressor.generate_batch(k0, k0 + m, seeds), ts, p[:m], norm[:m], y[:m])
        yield slot


def _forks(cfg, horizon, width):
    """Whether a pass forks a producer: os.fork exists, its regressor is an
    IidBounded, it has more than one chunk and PIPE_MIN_TRIAL_STEPS
    trial-steps or more, and the process may run on two or more CPUs."""
    return (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
            and isinstance(cfg.regressor, IidBounded)
            and horizon > CHUNK_STEPS and horizon * width >= PIPE_MIN_TRIAL_STEPS
            and len(os.sched_getaffinity(0)) >= 2)


def _pass_inputs(cfg, seeds, horizon):
    """Yield each chunk's (p, norm, y, eta) from _chunk_inputs, which runs in
    this process or, where _forks, in the one child a command forks, the
    kernel's input producer, which fills chunk c + 1 while the kernel steps
    chunk c.

    The child writes into two shared slots, and chunk c's slot takes chunk
    c + 2 once the caller asks for chunk c + 1.  It says each chunk is ready
    on the pipe up and, before chunk c >= 2, waits on the pipe down for chunk
    c - 2's slot.  It runs with the cyclic collector off, sends up the repr
    of any exception, and leaves through os._exit, never into the parent's
    frames.  Failing to start raises RuntimeError, an internal error, with
    every fd closed.  Closing the generator, on any exit path, kills and
    reaps the child; a child that dies raises RuntimeError, with its
    exception where it sent one.
    """
    n, width = cfg.theta_star.size, len(seeds)
    if not _forks(cfg, horizon, width):
        yield from _chunk_inputs(cfg, seeds, horizon, [_slot(n, width)])
        return
    name = "the kernel's input producer"
    chunks = -(-horizon // CHUNK_STEPS)
    slots = [_slot(n, width) for _ in range(2)]
    fds = []
    try:
        fds += os.pipe()
        fds += os.pipe()
        pid = os.fork()
    except OSError as exc:  # not an --out error: an internal one
        for fd in fds:
            os.close(fd)
        raise RuntimeError(f"cannot start {name}: {exc}") from None
    free, down, up, ready = fds  # read, write ends; the child keeps free and ready
    if pid == 0:
        gc.disable()  # a collection here could run a finalizer that the parent owns
        status = 0
        try:
            os.close(down)
            os.close(up)
            inputs = _chunk_inputs(cfg, seeds, horizon, slots)
            for c in range(chunks):
                if c >= 2 and not os.read(free, 1):
                    break  # the parent has gone
                next(inputs)
                os.write(ready, _READY)
        except BaseException as exc:
            status = 1
            with contextlib.suppress(OSError):  # the parent may have gone
                # one write: at most 1000 bytes, under PIPE_BUF, go up whole
                os.write(ready, repr(exc).encode(errors="replace")[:1000])
        finally:
            os._exit(status)
    try:
        os.close(free)
        os.close(ready)
        for c in range(chunks):
            if 0 < c < chunks - 1:  # chunk c-1's slot may take chunk c+1
                # a child gone by now has said why on the pipe up
                with contextlib.suppress(BrokenPipeError):
                    os.write(down, _READY)
            said = os.read(up, 1)
            if said != _READY:
                while part := os.read(up, 1 << 16):
                    said += part
                said = said.decode(errors="replace")
                raise RuntimeError(f"{name} " + (f"failed: {said}" if said else "died"))
            yield slots[c % 2]
    finally:
        os.close(up)
        os.close(down)
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)


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


def run_ensemble(cfg, initial=None):
    """V of the lockstep ensemble, trial t < cfg.ensemble from seed
    cfg.trial_seed(t), as one (trials, horizon+1) matrix.

    Per-trial regressor and noise streams match run_trajectory(cfg,
    cfg.trial_seed(t)) exactly.
    """
    seeds = [cfg.trial_seed(t) for t in range(cfg.ensemble)]
    init = cfg.initial_state() if initial is None else initial
    blocks = [blk.V for blk in _lockstep(cfg, seeds, cfg.horizon, init)]
    return EnsembleResult(V=np.concatenate(blocks, axis=1), horizon=cfg.horizon)


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
    """Every labelled (label, TunerState) state the decrement probe starts from.

    `states` starts with the V-sphere states {0.1K, K, T, 10T}, none for
    degenerate constants (NaN K and T).  `add` appends, in row order, trial
    0's states at up to N_HARVEST distinct, evenly spaced rows, 0 to horizon
    = min(cfg.horizon, 2000), of the run with seed cfg.trial_seed(0) from the
    config's initial state, from the kernel blocks of any run whose trial 0
    is that trajectory, such as run_checks' pass.
    """

    def __init__(self, cfg, consts):
        self.horizon = min(cfg.horizon, 2000)
        self.rows = np.linspace(0, self.horizon, min(N_HARVEST, self.horizon + 1), dtype=int)
        rng = np.random.default_rng([cfg.base_seed, 0, 0x9E37])
        spheres = (("0.1K", 0.1 * consts.K), ("K", consts.K), ("T", consts.T),
                   ("10T", 10.0 * consts.T))
        self.states = [(label, state_on_sphere(v, cfg.theta_star, cfg.gains.gamma, rng))
                       for label, v in spheres if v > 0]

    def add(self, blk):
        for i in self.rows[(self.rows >= blk.k) & (self.rows < blk.k + len(blk.theta))]:
            j = i - blk.k
            self.states.append((f"traj[{i}]", TunerState(theta=blk.theta[j, :, 0].copy(),
                                                          vartheta=blk.vartheta[j, :, 0].copy(),
                                                          step=int(i))))


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

    def section(self):
        """The report's decrement section: every probe, z, M and the verdict."""
        return {**asdict(self), "passed": all(p.passed for p in self.probes)}


def decrement_report(cfg, consts, states):
    """The decrement probe at trial 0's first regressor row over the labelled
    (label, TunerState) `states`, in order, from one resampling stream: each
    probe's M = cfg.resamples draws of cfg.noise take the kernel's step from
    its frozen state as the columns of (N, M) buffers that the probes share."""
    ts, gamma, noise, M = cfg.theta_star, cfg.gains.gamma, cfg.noise, cfg.resamples
    rng = np.random.default_rng([cfg.base_seed, 0, 0xDEC])
    phi = cfg.regressor.generate_batch(0, 1, [cfg.trial_seed(0)])[0, :, 0]
    p, norm = np.empty((2, ts.size, M))
    y = np.empty(M)
    _observe(phi[:, None], ts, p, norm, y)
    th, vt = np.empty((2,) + p.shape)
    carry, step = _hot_stepper(cfg.gains, ts.size, M)
    probes = []
    for label, state in states:
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
        probes.append(DecrementProbe(
            label=label, noise_kind=type(noise).__name__, V_k=v_k,
            mean_V_next=mean, stderr=stderr, bound=bound,
            passed=mean <= bound + Z * stderr,
            strictly_decreasing=(mean - v_k) < Z * stderr))
    return DecrementReport(probes=probes, z=Z, resamples=M)


# ---------------------------------------------------------------------------
# boundedness check
# ---------------------------------------------------------------------------

class BoundednessStream:
    """The Theorem-3 proxy as a running reduction over V.

    Feed the ensemble's V to `add` as consecutive (trials, steps) column
    blocks, starting at step 0; `sup` is each trial's sup V so far, and
    `section` gives the same report section for any split.  Memory is
    O(trials).
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

    def section(self):
        """The report's bound section: it passes if every trial's sup V is
        finite and at most max(V0, T) * BOUND_MARGIN, and every trial
        re-enters {V <= T}."""
        threshold = max(self.v0, self.T) * BOUND_MARGIN
        # a trial re-enters {V <= T} after its last excursion iff it ends there
        reenter = not np.any(self.above_at_end)
        return {
            "passed": bool(np.all(np.isfinite(self.sup)) and np.all(self.sup <= threshold)
                           and reenter),
            "max_sup_V": float(np.max(self.sup)),
            "threshold": threshold,
            "margin": BOUND_MARGIN,
            "frac_steps_above_T": self.n_above / (self.sup.size * self.steps),
            "all_reenter": reenter,
            "note": "finite-horizon proxy for an almost-sure statement",
        }


def boundedness_check(V, consts):
    """Theorem-3 proxy on a (trials, steps) V matrix: BoundednessStream's
    section of the whole matrix."""
    if V.size == 0:
        raise ValueError("empty ensemble")
    stream = BoundednessStream(consts)
    stream.add(V)
    return stream.section()


# ---------------------------------------------------------------------------
# exponential rate check
# ---------------------------------------------------------------------------

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

    def section(self):
        """The report's rate section: the verdict, alpha, the clip radius, z
        and the first N_FAILING failing steps."""
        return {"passed": self.passed, "alpha": self.alpha, "clip_radius": self.clip_radius,
                "z": Z, "failing_steps": self.failing_steps}

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
    (1-alpha)^k * Vhat_0: RateStream's per-step (mean, stderr, envelope,
    pass) arrays of the whole matrix."""
    return RateStream(alpha, consts).add(V)


# ---------------------------------------------------------------------------
# the verify pass
# ---------------------------------------------------------------------------

def run_checks(cfg, consts, checks):
    """Each check named in `checks` -- "decrement", "bound", "rate" -- as its
    section of the verify report, in that order, from one kernel pass.

    With the bound or rate check the pass runs the ensemble, whose V the
    checks stream and whose trial 0 feeds the decrement probe's Harvest;
    with the decrement check alone it runs trial 0 over the Harvest's
    horizon.  After the pass, decrement_report probes, in-process, the
    Harvest's states: its V-sphere states, then trial 0's.  The command
    forks at most the pass's input producer, and only on long iid passes.
    """
    streams = {}
    if "bound" in checks:
        streams["bound"] = BoundednessStream(consts)
    if "rate" in checks:
        streams["rate"] = RateStream(cfg.effective_alpha(consts), consts)
    harvest = Harvest(cfg, consts) if "decrement" in checks else None
    if streams:
        seeds, horizon = [cfg.trial_seed(t) for t in range(cfg.ensemble)], cfg.horizon
    else:
        seeds, horizon = [cfg.trial_seed(0)], harvest.horizon
    for blk in _lockstep(cfg, seeds, horizon, cfg.initial_state()):
        if harvest is not None:
            harvest.add(blk)
        for stream in streams.values():
            stream.add(blk.V)
    del blk  # its views would hold the kernel's buffers through the probes
    sections = {}
    if harvest is not None:
        sections["decrement"] = decrement_report(cfg, consts, harvest.states).section()
    sections.update((name, stream.section()) for name, stream in streams.items())
    return sections
