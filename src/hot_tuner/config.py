"""JSON run configuration shared by the verification harness and the CLI.

A regressor or noise spec names its `kind`, a model class (`_KINDS`); its other
keys are that class's dataclass fields, read in declaration order, except
`dimension`, which is always the config's.  An optional key, top-level or in a
spec, that is absent or null takes its default.  A malformed or out-of-range
value raises a ConfigError (model's, re-exported here) naming its key.
"""
from __future__ import annotations

import contextlib
import json
import math
import sys
from dataclasses import MISSING, dataclass, field, fields

import numpy as np

from . import lyapunov, model as model_mod
from .model import ConfigError
from .tuner import Gains, TunerState

# a JSON value's type, as an error message names it (a number is named by its value)
_JSON_TYPES = {dict: "an object", list: "an array", str: "a string", bool: "a boolean",
               type(None): "null"}


def _require(d, key, json_type, where):
    if key not in d:
        raise ConfigError(f"{where}{key}", "missing")
    v = d[key]
    if not isinstance(v, json_type):
        raise ConfigError(f"{where}{key}", f"expected {_JSON_TYPES[json_type]}, got {_got(v)}")
    return v


def _got(v):
    """v as an error message names it: a number by its value, else by its JSON type."""
    return repr(v) if type(v) in (int, float) else _JSON_TYPES.get(type(v), type(v).__name__)


def _get(d, key, default):
    """d[key]; `default` if it is absent or null."""
    return default if d.get(key) is None else d[key]


def _is_number(x, integer=False):
    """True for a finite JSON number (an int if `integer`); bools are not numbers here."""
    if isinstance(x, bool) or not isinstance(x, int if integer else (int, float)):
        return False
    return integer or abs(x) <= sys.float_info.max  # false for NaN and inf


_REQUIRED = object()


def _number(d, key, where, default=_REQUIRED, integer=False):
    """d[key] as a float (an int if `integer`); `default` if it is absent, or
    null when a default is given."""
    if key not in d or (d[key] is None and default is not _REQUIRED):
        if default is _REQUIRED:
            raise ConfigError(f"{where}{key}", "missing")
        return default
    value = d[key]
    if not _is_number(value, integer):
        kind = "an integer" if integer else "a finite number"
        raise ConfigError(f"{where}{key}", f"expected {kind}, got {_got(value)}")
    return value if integer else float(value)


def _check_vector(v, dim, name):
    if (not isinstance(v, list) or len(v) != dim
            or not all(_is_number(x) for x in v)):
        raise ConfigError(name, f"expected a finite numeric vector of length {dim}")
    if not math.isfinite(sum(float(x) * float(x) for x in v)):
        raise ConfigError(name, "its squared norm overflows a float")
    return np.asarray(v, dtype=float)


def _vector(d, key, dim, where):
    return _check_vector(_require(d, key, list, where), dim, f"{where}{key}")


def _check_keys(d, allowed, where):
    """Reject the first key of d that is not in `allowed`."""
    for key in d:
        if key not in allowed:
            raise ConfigError(f"{where}{key}", "unknown key")


_TOP_KEYS = {"dimension", "theta_star", "theta0", "vartheta0", "regressor", "noise",
             "d_max", "sigma_max", "gains", "horizon", "ensemble", "resamples", "alpha",
             "base_seed", "mode", "c2_variant"}
_GAINS_KEYS = ("gamma", "beta", "mu")
# a regressor or noise kind is its model class: the spec's keys are the class's fields
_KINDS = {"regressor": {"constant": model_mod.Constant, "sinusoid": model_mod.Sinusoid,
                        "iid_bounded": model_mod.IidBounded,
                        "piecewise_constant": model_mod.PiecewiseConstant},
          "noise": {"zero": model_mod.Zero, "biased_gaussian": model_mod.BiasedGaussianTruncated,
                    "uniform_biased": model_mod.UniformBiased,
                    "state_dependent_bias": model_mod.StateDependentBias}}


def _levels(d, key, dim, where):
    levels = tuple(_check_vector(v, dim, f"{where}{key}") for v in _require(d, key, list, where))
    if not levels:
        raise ConfigError(f"{where}{key}", "must hold at least one level")
    return levels


# the reader, (spec, key, dim, where) -> value, of each field not a plain finite number
_READERS = {"value": _vector, "amplitude": _vector, "phase": _vector, "levels": _levels,
            "dwell": lambda d, key, dim, where: _number(d, key, where, integer=True)}


def _build(d, section, dim):
    """The model object of d[section], a spec naming its `kind` and that kind's
    class fields, read in declaration order; an optional field absent or null
    takes the class default, and `dimension` is always the config's."""
    where = f"{section}."
    spec = _require(d, section, dict, "")
    kind = _require(spec, "kind", str, where)
    if kind not in _KINDS[section]:
        raise ConfigError(f"{where}kind", f"unknown kind '{kind}'")
    cls = _KINDS[section][kind]
    _check_keys(spec, {"kind", *(f.name for f in fields(cls))} - {"dimension"}, where)
    kwargs = {}
    for f in fields(cls):
        if f.name == "dimension":
            kwargs["dimension"] = dim
        elif f.default is MISSING or spec.get(f.name) is not None:
            read = _READERS.get(f.name)
            kwargs[f.name] = (read(spec, f.name, dim, where) if read
                              else _number(spec, f.name, where))
    with _section(section):
        return cls(**kwargs)


def check_seed(value):
    """A base seed: a non-negative integer, as numpy's generators require."""
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise ConfigError("base_seed", f"must be a non-negative integer, got {_got(value)}")
    return value


@contextlib.contextmanager
def _section(name):
    """Re-raise a model object's ConfigError as one naming section.key."""
    try:
        yield
    except ConfigError as exc:
        raise ConfigError(f"{name}.{exc.field}", exc.message) from exc


@dataclass
class RunConfig:
    """Everything needed to reproduce a run bit-exactly."""

    theta_star: np.ndarray
    regressor: object
    noise: object
    gains: Gains
    vartheta0: np.ndarray
    d_max: float
    sigma_max: float
    horizon: int
    ensemble: int
    resamples: int
    alpha: float  # None -> c1/2 at use time
    base_seed: int
    c2_variant: str
    raw: dict = field(default_factory=dict, repr=False)

    @classmethod
    def from_dict(cls, d):
        _check_keys(d, _TOP_KEYS, "")
        dim = _number(d, "dimension", "", integer=True)
        if dim < 1:
            raise ConfigError("dimension", "must be >= 1")
        theta_star = _vector(d, "theta_star", dim, "")
        theta0 = _vector(d, "theta0", dim, "")
        vartheta0 = (_vector(d, "vartheta0", dim, "")
                     if d.get("vartheta0") is not None else theta0.copy())

        mode = _get(d, "mode", "certified")
        if mode not in ("certified", "unrestricted"):
            raise ConfigError("mode", "must be 'certified' or 'unrestricted'")
        gspec = _require(d, "gains", dict, "")
        _check_keys(gspec, _GAINS_KEYS, "gains.")
        gamma, beta, mu = (_number(gspec, key, "gains.") for key in _GAINS_KEYS)
        with _section("gains"):
            gains = Gains(gamma=gamma, beta=beta, mu=mu, theta0=theta0, mode=mode)

        regressor = _build(d, "regressor", dim)
        noise = _build(d, "noise", dim)
        bounds = {}
        for key in ("d_max", "sigma_max"):
            analytic = getattr(noise, key)
            bounds[key] = _number(d, key, "", analytic)
            # `not >=`, so that a NaN analytic bound fails too
            if not bounds[key] >= 0.0:
                raise ConfigError(key, f"must be nonnegative, got {bounds[key]!r}")
            if not bounds[key] >= analytic - 1e-12:
                raise ConfigError(key, "smaller than the noise kind's analytic bound")

        horizon = _number(d, "horizon", "", integer=True)
        if horizon < 1:
            raise ConfigError("horizon", "must be >= 1")
        if isinstance(regressor, model_mod.Sinusoid):
            k = horizon - 1  # the last step any command draws
            if not all(math.isfinite(regressor.omega * k + p) for p in regressor.phase.tolist()):
                raise ConfigError("regressor.omega",
                                  f"omega * k + phase overflows a float at step k = {k}")
        ensemble = _number(d, "ensemble", "", 1, integer=True)
        if ensemble < 1:
            raise ConfigError("ensemble", "must be >= 1")
        resamples = _number(d, "resamples", "", 10000, integer=True)
        if resamples < 100:
            raise ConfigError("resamples", "must be >= 100")
        alpha = _number(d, "alpha", "", None)
        if alpha is not None and alpha <= 0:
            raise ConfigError("alpha", "must be positive")
        base_seed = check_seed(_get(d, "base_seed", 0))
        c2_variant = _get(d, "c2_variant", "theorem")
        if c2_variant not in ("theorem", "appendix"):
            raise ConfigError("c2_variant", "must be 'theorem' or 'appendix'")

        return cls(theta_star=theta_star, regressor=regressor,
                   noise=noise, gains=gains, vartheta0=vartheta0,
                   horizon=horizon, **bounds,
                   ensemble=ensemble, resamples=resamples, alpha=alpha,
                   base_seed=base_seed, c2_variant=c2_variant, raw=dict(d))

    @property
    def dimension(self):
        return self.theta_star.size

    def initial_state(self):
        return TunerState(theta=self.gains.theta0.copy(),
                          vartheta=self.vartheta0.copy(), step=0)

    def constants(self):
        """The decrement-bound constants; a ConfigError if they overflow a float."""
        try:
            with np.errstate(over="raise", invalid="raise"):
                return lyapunov.constants(self.gains, self.d_max, self.sigma_max,
                                          self.theta_star, self.c2_variant)
        except ArithmeticError as exc:  # an overflow, or c1 so small that c1**2 is 0
            raise ConfigError("(constants)", "they overflow a float for these gains, "
                              "theta_star, theta0, d_max and sigma_max") from exc

    def effective_alpha(self, consts):
        """alpha from the config, defaulting to c1/2 of the given constants."""
        if self.alpha is not None:
            return self.alpha
        return consts.c1 / 2.0

    def trial_seed(self, trial):
        return self.base_seed ^ trial


def _unique_keys(pairs):
    """A JSON object's pairs as a dict; if a key repeats, in the object or in
    an object it holds, a ConfigError naming the first such key instead, for
    load_config to raise."""
    obj = {}
    for key, value in pairs:
        if isinstance(value, ConfigError):
            return ConfigError(f"{key}.{value.field}", value.message)
        if key in obj:
            return ConfigError(key, "duplicated key")
        obj[key] = value
    return obj


def load_config(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh, object_pairs_hook=_unique_keys)
    except OSError as exc:
        raise ConfigError("(file)", f"cannot read {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # bad syntax or UTF-8, too deep, too many digits
        raise ConfigError("(file)", f"invalid JSON in {path}: {exc}") from exc
    if isinstance(data, ConfigError):
        raise data
    if not isinstance(data, dict):
        raise ConfigError("(file)", "top-level JSON value must be an object")
    return RunConfig.from_dict(data)
