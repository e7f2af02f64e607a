"""Regressor generators and noise processes of the linear regression model.

Regressor generation is a pure function of (kind, params, seed, k) so that
trajectories are reproducible and trivially parallelizable.  A batch for a
sequence of S seeds is component-major, (steps, N, S), the layout the
lockstep kernel steps in; kinds whose rows do not depend on the seed return
(steps, N, 1), which broadcasts across the seeds.  Noise kinds are
parameterized so that the conditional mean / second-moment bounds (d_max,
sigma_max) hold analytically, not just empirically.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class ConfigError(ValueError):
    """A bad value: `field` names its key, `message` says what is wrong with it."""

    def __init__(self, field, message):
        self.field = field
        self.message = message
        super().__init__(f"config field '{field}': {message}")


# ---------------------------------------------------------------------------
# deterministic per-(seed, k) uniforms, splitmix64 finalizer
# ---------------------------------------------------------------------------

def _splitmix64(z, t):
    """The splitmix64 finalizer, in place on a uint64 array (wrapping mod 2**64);
    t is scratch of z's shape."""
    z += np.uint64(0x9E3779B97F4A7C15)
    z ^= np.right_shift(z, np.uint64(30), out=t)
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= np.right_shift(z, np.uint64(27), out=t)
    z *= np.uint64(0x94D049BB133111EB)
    z ^= np.right_shift(z, np.uint64(31), out=t)
    return z


def _seed_words(seeds, salt=0):
    """A sequence of seeds, each xor salt, as a 1-d uint64 array (mod 2**64)."""
    return np.array([(int(s) ^ salt) & 0xFFFFFFFFFFFFFFFF for s in seeds], dtype=np.uint64)


def _hash_uniform(words, ks, dim):
    """Doubles in [0, 1) keyed by (seed, k, component), component-major:
    shape (len(ks), dim, len(words)).
    """
    ks = np.asarray(ks, dtype=np.uint64)
    # a (k, component) key plus the seed's word; the sums wrap mod 2**64, so
    # their order does not change the result
    keys = (ks[:, None, None] * np.uint64(0xC2B2AE3D27D4EB4F)
            + np.arange(dim, dtype=np.uint64)[:, None] * np.uint64(0x165667B19E3779F9))
    z = np.add(keys, words * np.uint64(0x9E3779B97F4A7C15))
    t = np.empty_like(z)
    _splitmix64(z, t)
    z >>= np.uint64(11)
    # into the scratch: a cast in place would first copy z
    return np.multiply(z, 1.0 / (1 << 53), out=t.view(np.float64))


def _sum_squares(x, y=None):
    """Sum over the last axis of (x - y)**2, or of x**2 if y is None, folded
    left over the slabs x[..., i], each a fresh slab squared and added in
    place: the one component fold behind V, the normalisations and the ball
    clip.  Below 8 components that is np.sum's order along a contiguous axis
    (from 8 on np.sum adds pairwise), and it depends on no array's layout.
    """
    def term(i):
        if y is None:
            return x[..., i] * x[..., i]
        d = x[..., i] - y[..., i]
        d *= d
        return d

    acc = term(0)
    for i in range(1, x.shape[-1]):
        acc += term(i)
    return acc


def _sum_rows(rows, out=None):
    """rows[0] + rows[1] + ..., folded left as _sum_squares folds, into `out`,
    over an array's first axis or a sequence of arrays (a tuple of row views
    saves the indexing per call).  A single row comes back as it is."""
    if len(rows) == 1:
        return rows[0]
    out = np.add(rows[0], rows[1], out)
    for row in rows[2:]:
        out += row
    return out


def _clip_to_ball(v, bound):
    """Rescale in place the vectors v[k, :, s] of a component-major
    (rows, N, seeds) array so that their 2-norm does not exceed bound."""
    norms = np.sqrt(_sum_squares(v.transpose(0, 2, 1)))  # = np.linalg.norm for N < 8
    inside = norms <= bound
    # scale = where(norms > bound, bound / max(norms, 1e-300), 1), in place
    with np.errstate(divide="ignore", invalid="ignore"):
        scale = np.divide(bound, np.maximum(norms, 1e-300, out=norms), out=norms)
    np.copyto(scale, 1.0, where=inside)
    v *= scale[:, None, :]
    return v


def _check_ball(bound, dim):
    """Reject an empty dimension, a negative bound, or one whose squared norm
    over dim components overflows a float: the clip would scale every hashed
    row by bound/inf = 0."""
    if dim < 1:
        raise ConfigError("dimension", "dimension must be >= 1")
    if bound < 0:
        raise ConfigError("bound", "bound must be nonnegative")
    if not math.isfinite(bound * bound * dim):
        raise ConfigError("bound", f"its squared norm over {dim} components "
                          "overflows a float")


def _uniform_rows(words, ks, dim, bound):
    """Hashed rows uniform in [-bound, bound]^dim clipped to the bound-ball,
    component-major as _hash_uniform lays them out."""
    v = _hash_uniform(words, ks, dim)
    v *= 2.0
    v -= 1.0
    v *= bound
    return _clip_to_ball(v, bound)


# ---------------------------------------------------------------------------
# regressor sources
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Constant:
    """Fixed regressor, identical at every step."""

    value: np.ndarray
    phi_bound: float = None

    def __post_init__(self):
        v = np.asarray(self.value, dtype=float)
        if v.ndim != 1 or v.size == 0 or not np.all(np.isfinite(v)):
            raise ConfigError("value", "constant regressor value must be a finite, "
                              "nonempty vector")
        object.__setattr__(self, "value", v)
        b = float(np.linalg.norm(v)) if self.phi_bound is None else float(self.phi_bound)
        if b < np.linalg.norm(v) - 1e-12:
            raise ConfigError("phi_bound", "phi_bound smaller than the constant value norm")
        object.__setattr__(self, "phi_bound", b)

    @property
    def dimension(self):
        return self.value.size

    def generate_batch(self, k0, k1, seeds):
        return np.tile(self.value[:, None], (k1 - k0, 1, 1))


@dataclass(frozen=True)
class Sinusoid:
    """phi_k[i] = amplitude[i] * sin(omega * k + phase[i])."""

    amplitude: np.ndarray
    omega: float
    phase: np.ndarray = None
    phi_bound: float = None

    def __post_init__(self):
        amp = np.atleast_1d(np.asarray(self.amplitude, dtype=float))
        if amp.size == 0:
            raise ConfigError("amplitude", "amplitude must be nonempty")
        if np.any(amp < 0) or not np.all(np.isfinite(amp)):
            raise ConfigError("amplitude", "amplitude must be finite and nonnegative")
        ph = np.zeros_like(amp) if self.phase is None else np.asarray(self.phase, dtype=float)
        if ph.shape != amp.shape:
            raise ConfigError("phase", "sinusoid phase must match amplitude shape")
        object.__setattr__(self, "amplitude", amp)
        object.__setattr__(self, "phase", ph)
        b = float(np.linalg.norm(amp)) if self.phi_bound is None else float(self.phi_bound)
        if b < np.linalg.norm(amp) - 1e-12:
            raise ConfigError("phi_bound", "phi_bound smaller than the amplitude norm")
        object.__setattr__(self, "phi_bound", b)

    @property
    def dimension(self):
        return self.amplitude.size

    def generate_batch(self, k0, k1, seeds):
        ks = np.arange(k0, k1, dtype=float).reshape(-1, 1, 1)
        return self.amplitude[:, None] * np.sin(self.omega * ks + self.phase[:, None])


@dataclass(frozen=True)
class IidBounded:
    """Independent uniform draws in [-B, B]^N, clipped to the 2-ball of radius B."""

    bound: float
    dimension: int

    def __post_init__(self):
        _check_ball(self.bound, self.dimension)

    @property
    def phi_bound(self):
        return float(self.bound)

    def generate_batch(self, k0, k1, seeds):
        return _uniform_rows(_seed_words(seeds), np.arange(k0, k1), self.dimension, self.bound)


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

    def __post_init__(self):
        # np.arange(k0, k1) // dwell needs a dwell that fits an int64
        if not 1 <= self.dwell < 2 ** 63:
            raise ConfigError("dwell", "dwell must lie in [1, 2**63)")
        _check_ball(self.bound, self.dimension)
        if self.levels is not None:
            lv = tuple(np.asarray(l, dtype=float) for l in self.levels)
            for l in lv:
                if l.size != self.dimension:
                    raise ConfigError("levels", "level dimension mismatch")
                if np.linalg.norm(l) > self.bound + 1e-12:
                    raise ConfigError("levels", "level norm exceeds bound")
            object.__setattr__(self, "levels", lv)

    @property
    def phi_bound(self):
        return float(self.bound)

    def generate_batch(self, k0, k1, seeds):
        segs = np.arange(k0, k1) // self.dwell
        if self.levels is not None:
            return np.stack(self.levels)[segs % len(self.levels), :, None]
        uniq, inv = np.unique(segs, return_inverse=True)
        return _uniform_rows(_seed_words(seeds, 0x5DEECE66D), uniq, self.dimension,
                             self.bound)[inv]


# ---------------------------------------------------------------------------
# noise processes
# ---------------------------------------------------------------------------
#
# Every kind decomposes a sample as
#     eta = conditional_mean(history) + innovation(u),   u ~ U[0, 1)
# where the innovation has zero mean given the history.  This makes the
# conditional moments available in closed form and lets runners pre-draw the
# uniform stream for a whole trajectory in one call.  A state-dependent mean
# folds left to right over the N components of theta and vartheta (the last
# axis).  state_mean(n, width) gives the lockstep kernel the same mean on its
# component-major (n, width) states, or None when the mean is a constant that
# the kernel adds to a whole chunk of innovations at once.


def _check_squares(noise, keys):
    """Reject a parameter whose square, and so sigma_max, overflows a float."""
    for key in keys:
        value = getattr(noise, key)
        if not math.isfinite(value * value):
            raise ConfigError(key, f"{key} squared overflows a float")


class _ConstantMean:
    """A kind whose conditional mean does not depend on the state."""

    def state_mean(self, n, width):
        return None


@dataclass(frozen=True)
class Zero(_ConstantMean):
    """Noise-free observations."""

    d_max = 0.0
    sigma_max = 0.0

    def conditional_mean(self, theta=None, vartheta=None):
        return 0.0

    def innovation(self, u):
        return np.zeros_like(np.asarray(u, dtype=float))


@dataclass(frozen=True)
class BiasedGaussianTruncated(_ConstantMean):
    """Constant bias plus a zero-mean Gaussian truncated at +-truncation*sd.

    Truncation keeps the amplitude bounded so desk-scale second-moment checks
    are tight; the truncated variance is computed analytically at construction.
    scipy.special is imported here, not at module level: it is the only kind
    that needs it, and its import is most of what a CLI call pays before work.
    """

    bias: float
    sd: float
    truncation: float = 3.0

    def __post_init__(self):
        t = self.truncation
        if self.sd < 0:
            raise ConfigError("sd", "sd must be >= 0")
        if t <= 0:
            raise ConfigError("truncation", "truncation must be > 0")
        _check_squares(self, ("bias", "sd"))
        from scipy import special
        lo = special.ndtr(-t)
        object.__setattr__(self, "_cdf_lo", float(lo))
        object.__setattr__(self, "_cdf_span", float(special.ndtr(t) - lo))
        # a standard normal truncated to [-t, t] has variance 1 - 2 t pdf(t) / _cdf_span,
        # which cancels as t -> 0 (_cdf_span is 0 below 7e-17): below t = 0.15 five terms
        # of its series in t**2 give it, and where pdf(t) underflows it is 1.  Both forms
        # are within 7e-14 (relative) of 50-digit arithmetic from t = 1e-10 to 30.
        pdf = math.exp(-0.5 * t * t) / math.sqrt(2.0 * math.pi)
        if t < 0.15:
            u = t * t
            var = u * (1 / 3 - u * (2 / 45 - u * (2 / 945 + u * (2 / 14175 - u * (2 / 93555)))))
        elif pdf == 0.0:
            var = 1.0
        else:
            var = 1.0 - 2.0 * t * (pdf / self._cdf_span)
        object.__setattr__(self, "_trunc_var", var * self.sd ** 2)

    @property
    def d_max(self):
        return abs(self.bias)

    @property
    def sigma_max(self):
        return math.sqrt(self.bias ** 2 + self._trunc_var)

    def conditional_mean(self, theta=None, vartheta=None):
        return self.bias

    def innovation(self, u):
        from scipy import special
        return self.sd * special.ndtri(self._cdf_lo + np.asarray(u) * self._cdf_span)


@dataclass(frozen=True)
class UniformBiased(_ConstantMean):
    """Uniform noise on [center - halfwidth, center + halfwidth]."""

    center: float
    halfwidth: float

    def __post_init__(self):
        if self.halfwidth < 0:
            raise ConfigError("halfwidth", "halfwidth must be nonnegative")
        _check_squares(self, ("center", "halfwidth"))

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
        for key in ("d_amplitude", "sd"):
            if getattr(self, key) < 0:
                raise ConfigError(key, f"{key} must be nonnegative")
        _check_squares(self, ("d_amplitude", "sd"))

    @property
    def d_max(self):
        return self.d_amplitude

    @property
    def sigma_max(self):
        return math.sqrt(self.d_amplitude ** 2 + self.sd ** 2)

    def conditional_mean(self, theta, vartheta):
        """state_mean at states whose last axis holds the N components, whose
        squares it folds left as state_mean does."""
        return self.d_amplitude * np.tanh(np.sqrt(_sum_squares(theta, vartheta)))

    def state_mean(self, n, width):
        """conditional_mean of (n, width) component-major states, as a function
        of (theta, vartheta) that computes it in the same order into buffers it
        owns; the returned (width,) mean is overwritten by the next call."""
        d = np.empty((n, width))
        d_rows = tuple(d)
        gap = np.empty(width)
        amplitude = np.array(self.d_amplitude)
        subtract, multiply, sqrt, tanh = np.subtract, np.multiply, np.sqrt, np.tanh

        def mean(theta, vartheta):
            subtract(theta, vartheta, d)
            multiply(d, d, d)
            sqrt(_sum_rows(d_rows, gap), gap)
            tanh(gap, gap)
            return multiply(amplitude, gap, gap)
        return mean

    def innovation(self, u):
        return math.sqrt(3.0) * self.sd * (2.0 * np.asarray(u) - 1.0)

