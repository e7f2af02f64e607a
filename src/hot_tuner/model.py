"""Ground-truth linear regression model, regressor generators, noise processes.

Regressor generation is a pure function of (kind, params, seed, k) so that
trajectories are reproducible and trivially parallelizable.  Noise kinds are
parameterized so that the conditional mean / second-moment bounds (d_max,
sigma_max) hold analytically, not just empirically.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import special, stats


class ConfigurationError(ValueError):
    """Inconsistent model / regressor / noise specification."""


# ---------------------------------------------------------------------------
# deterministic per-(seed, k) uniforms, splitmix64 finalizer
# ---------------------------------------------------------------------------

def _splitmix64(z):
    """The splitmix64 finalizer, in place on a uint64 array (wrapping mod 2**64)."""
    z += np.uint64(0x9E3779B97F4A7C15)
    z ^= z >> np.uint64(30)
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= z >> np.uint64(27)
    z *= np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return z


def _seed_words(seed, salt=0):
    """A seed, or a 1-d sequence of seeds, xor salt, as uint64 words (mod 2**64)."""
    seeds = [seed] if np.ndim(seed) == 0 else seed
    words = [(int(s) ^ salt) & 0xFFFFFFFFFFFFFFFF for s in seeds]
    return np.array(words, dtype=np.uint64).reshape(np.shape(seed))


def _hash_uniform(words, ks, dim):
    """Doubles in [0, 1) keyed by (seed, k, component).

    `words` comes from _seed_words: a scalar seed gives shape (len(ks), dim),
    a 1-d array of S seeds gives (len(ks), S, dim).
    """
    ks = np.asarray(ks, dtype=np.uint64).reshape((-1,) + (1,) * (words.ndim + 1))
    words = words.reshape(words.shape + (1,))
    idx = np.arange(dim, dtype=np.uint64)
    z = (words * np.uint64(0x9E3779B97F4A7C15) + ks * np.uint64(0xC2B2AE3D27D4EB4F)
         + idx * np.uint64(0x165667B19E3779F9))
    z = _splitmix64(z)
    z >>= np.uint64(11)
    return z.astype(np.float64) * (1.0 / (1 << 53))


def _clip_to_ball(v, bound):
    """Rescale rows of v so that their 2-norm does not exceed bound."""
    norms = np.sqrt(np.add.reduce(v * v, axis=-1, keepdims=True))  # = np.linalg.norm
    with np.errstate(divide="ignore", invalid="ignore"):
        scale = np.where(norms > bound, bound / np.maximum(norms, 1e-300), 1.0)
    return v * scale


# ---------------------------------------------------------------------------
# ground truth
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TrueModel:
    """The unknown parameter vector generating the observations."""

    theta_star: np.ndarray

    def __post_init__(self):
        ts = np.asarray(self.theta_star, dtype=float)
        if ts.ndim != 1 or ts.size < 1:
            raise ConfigurationError("theta_star must be a nonempty 1-d vector")
        if not np.all(np.isfinite(ts)):
            raise ConfigurationError("theta_star entries must be finite")
        object.__setattr__(self, "theta_star", ts)

    @property
    def dimension(self):
        return self.theta_star.size


# ---------------------------------------------------------------------------
# regressor sources
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Constant:
    """Fixed regressor, identical at every step."""

    value: np.ndarray
    phi_bound: float = None
    random = False

    def __post_init__(self):
        v = np.asarray(self.value, dtype=float)
        if v.ndim != 1 or not np.all(np.isfinite(v)):
            raise ConfigurationError("constant regressor value must be a finite vector")
        object.__setattr__(self, "value", v)
        b = float(np.linalg.norm(v)) if self.phi_bound is None else float(self.phi_bound)
        if b < np.linalg.norm(v) - 1e-12:
            raise ConfigurationError("phi_bound smaller than the constant value norm")
        object.__setattr__(self, "phi_bound", b)

    @property
    def dimension(self):
        return self.value.size

    def generate_batch(self, k0, k1, seed):
        return np.broadcast_to(self.value, (k1 - k0, self.value.size)).copy()

    def generate(self, k, seed):
        return self.value.copy()


@dataclass(frozen=True)
class Sinusoid:
    """phi_k[i] = amplitude[i] * sin(omega * k + phase[i])."""

    amplitude: np.ndarray
    omega: float
    phase: np.ndarray = None
    phi_bound: float = None
    random = False

    def __post_init__(self):
        amp = np.atleast_1d(np.asarray(self.amplitude, dtype=float))
        if np.any(amp < 0) or not np.all(np.isfinite(amp)):
            raise ConfigurationError("sinusoid amplitude must be finite and nonnegative")
        ph = np.zeros_like(amp) if self.phase is None else np.asarray(self.phase, dtype=float)
        if ph.shape != amp.shape:
            raise ConfigurationError("sinusoid phase must match amplitude shape")
        object.__setattr__(self, "amplitude", amp)
        object.__setattr__(self, "phase", ph)
        b = float(np.linalg.norm(amp)) if self.phi_bound is None else float(self.phi_bound)
        if b < np.linalg.norm(amp) - 1e-12:
            raise ConfigurationError("phi_bound smaller than the amplitude norm")
        object.__setattr__(self, "phi_bound", b)

    @property
    def dimension(self):
        return self.amplitude.size

    def generate_batch(self, k0, k1, seed):
        ks = np.arange(k0, k1, dtype=float).reshape(-1, 1)
        return self.amplitude * np.sin(self.omega * ks + self.phase)

    def generate(self, k, seed):
        return self.generate_batch(k, k + 1, seed)[0]


@dataclass(frozen=True)
class IidBounded:
    """Independent uniform draws in [-B, B]^N, clipped to the 2-ball of radius B."""

    bound: float
    dimension: int
    random = True

    def __post_init__(self):
        if self.bound < 0:
            raise ConfigurationError("iid regressor bound must be nonnegative")
        if self.dimension < 1:
            raise ConfigurationError("dimension must be >= 1")

    @property
    def phi_bound(self):
        return float(self.bound)

    def generate_batch(self, k0, k1, seed):
        """Rows k0..k1-1: shape (k1-k0, N), or (k1-k0, S, N) for S seeds."""
        u = _hash_uniform(_seed_words(seed), np.arange(k0, k1), self.dimension)
        return _clip_to_ball(self.bound * (2.0 * u - 1.0), self.bound)

    def generate(self, k, seed):
        return self.generate_batch(k, k + 1, seed)[0]


@dataclass(frozen=True)
class PiecewiseConstant:
    """Regressor held constant over dwell-step segments.

    Levels are either supplied explicitly (cycled) or drawn per segment from
    the same hash stream as IidBounded.
    """

    bound: float
    dimension: int
    dwell: int
    levels: tuple = None
    random = True

    def __post_init__(self):
        if self.dwell < 1:
            raise ConfigurationError("dwell must be >= 1")
        if self.bound < 0:
            raise ConfigurationError("bound must be nonnegative")
        if self.levels is not None:
            lv = tuple(np.asarray(l, dtype=float) for l in self.levels)
            for l in lv:
                if l.size != self.dimension:
                    raise ConfigurationError("level dimension mismatch")
                if np.linalg.norm(l) > self.bound + 1e-12:
                    raise ConfigurationError("level norm exceeds bound")
            object.__setattr__(self, "levels", lv)

    @property
    def phi_bound(self):
        return float(self.bound)

    def generate_batch(self, k0, k1, seed):
        """Rows k0..k1-1: shape (k1-k0, N), or (k1-k0, S, N) for S seeds."""
        segs = np.arange(k0, k1) // self.dwell
        if self.levels is not None:
            table = np.stack(self.levels)
            rows = table[segs % len(self.levels)]
            if np.ndim(seed):
                rows = np.repeat(rows[:, None, :], len(seed), axis=1)
            return rows
        uniq, inv = np.unique(segs, return_inverse=True)
        u = _hash_uniform(_seed_words(seed, 0x5DEECE66D), uniq, self.dimension)
        vals = _clip_to_ball(self.bound * (2.0 * u - 1.0), self.bound)
        return vals[inv]

    def generate(self, k, seed):
        return self.generate_batch(k, k + 1, seed)[0]


def generate_regressor(source, k, seed):
    """phi_k for the given source; pure in (source, k, seed)."""
    if k < 0:
        raise ValueError("step index must be nonnegative")
    return source.generate(k, seed)


# ---------------------------------------------------------------------------
# noise processes
# ---------------------------------------------------------------------------
#
# Every kind decomposes a sample as
#     eta = conditional_mean(history) + innovation(u),   u ~ U[0, 1)
# where the innovation has zero mean given the history.  This makes the
# conditional moments available in closed form and lets runners pre-draw the
# uniform stream for a whole trajectory in one call.

@dataclass(frozen=True)
class Zero:
    """Noise-free observations."""

    d_max = 0.0
    sigma_max = 0.0

    def conditional_mean(self, theta=None, vartheta=None):
        return 0.0

    def innovation(self, u):
        return np.zeros_like(np.asarray(u, dtype=float))

    def sample(self, history, rng, size=None):
        u = rng.uniform(size=size)
        return self.innovation(u)


@dataclass(frozen=True)
class BiasedGaussianTruncated:
    """Constant bias plus a zero-mean Gaussian truncated at +-truncation*sd.

    Truncation keeps the amplitude bounded so desk-scale second-moment checks
    are tight; the truncated variance is computed analytically at construction.
    """

    bias: float
    sd: float
    truncation: float = 3.0

    def __post_init__(self):
        if self.sd < 0 or self.truncation <= 0:
            raise ConfigurationError("sd must be >= 0 and truncation > 0")
        var_factor = stats.truncnorm.var(-self.truncation, self.truncation)
        object.__setattr__(self, "_trunc_var", float(var_factor) * self.sd ** 2)
        lo = special.ndtr(-self.truncation)
        hi = special.ndtr(self.truncation)
        object.__setattr__(self, "_cdf_lo", float(lo))
        object.__setattr__(self, "_cdf_span", float(hi - lo))

    @property
    def d_max(self):
        return abs(self.bias)

    @property
    def sigma_max(self):
        return math.sqrt(self.bias ** 2 + self._trunc_var)

    def conditional_mean(self, theta=None, vartheta=None):
        return self.bias

    def innovation(self, u):
        return self.sd * special.ndtri(self._cdf_lo + np.asarray(u) * self._cdf_span)

    def sample(self, history, rng, size=None):
        return self.conditional_mean() + self.innovation(rng.uniform(size=size))


@dataclass(frozen=True)
class UniformBiased:
    """Uniform noise on [center - halfwidth, center + halfwidth]."""

    center: float
    halfwidth: float

    def __post_init__(self):
        if self.halfwidth < 0:
            raise ConfigurationError("halfwidth must be nonnegative")

    @property
    def d_max(self):
        return abs(self.center)

    @property
    def sigma_max(self):
        return math.sqrt(self.center ** 2 + self.halfwidth ** 2 / 3.0)

    def conditional_mean(self, theta=None, vartheta=None):
        return self.center

    def innovation(self, u):
        return self.halfwidth * (2.0 * np.asarray(u) - 1.0)

    def sample(self, history, rng, size=None):
        return self.conditional_mean() + self.innovation(rng.uniform(size=size))


@dataclass(frozen=True)
class StateDependentBias:
    """Non-Markovian kind: drift d_amplitude * tanh(||theta - vartheta||).

    The drift is measurable with respect to the history of tuner iterates, so
    it exercises the conditional-moment bounds beyond i.i.d. noise.  The
    innovation is uniform with standard deviation sd.
    """

    d_amplitude: float
    sd: float

    def __post_init__(self):
        if self.d_amplitude < 0 or self.sd < 0:
            raise ConfigurationError("d_amplitude and sd must be nonnegative")

    @property
    def d_max(self):
        return self.d_amplitude

    @property
    def sigma_max(self):
        return math.sqrt(self.d_amplitude ** 2 + self.sd ** 2)

    def conditional_mean(self, theta=None, vartheta=None):
        if theta is None or vartheta is None:
            raise ValueError("state-dependent noise needs the current (theta, vartheta)")
        d = np.asarray(theta) - np.asarray(vartheta)
        # np.linalg.norm(d, axis=-1) computes exactly this for real input,
        # behind a wrapper that costs more than the arithmetic at small sizes
        gap = np.sqrt(np.add.reduce(d * d, axis=-1))
        return self.d_amplitude * np.tanh(gap)

    def innovation(self, u):
        return math.sqrt(3.0) * self.sd * (2.0 * np.asarray(u) - 1.0)

    def sample(self, history, rng, size=None):
        mean = self.conditional_mean(history.theta, history.vartheta)
        return mean + self.innovation(rng.uniform(size=size))


def sample_noise(model, history, rng, size=None):
    """One (or size) noise draws conditioned on the supplied history."""
    return model.sample(history, rng, size=size)


# ---------------------------------------------------------------------------
# observation stream
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Observation:
    phi: np.ndarray
    y: float
    eta: float
    step: int


def emit_observation(model, source, noise, k, history, rng, seed=0):
    """(phi_k, y_{k+1}) with y = phi . theta_star + eta."""
    if source.dimension != model.dimension:
        raise ConfigurationError(
            f"regressor dimension {source.dimension} != model dimension {model.dimension}")
    phi = generate_regressor(source, k, seed)
    eta = float(sample_noise(noise, history, rng))
    y = float(phi @ model.theta_star) + eta
    return Observation(phi=phi, y=y, eta=eta, step=k)
