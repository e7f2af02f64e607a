"""JSON run configuration shared by the verification harness and the CLI."""
from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from . import lyapunov, model as model_mod
from .tuner import Gains, GainsError, TunerState


class ConfigError(ValueError):
    """Schema violation; `field` names the offending entry."""

    def __init__(self, field_name, message):
        self.field = field_name
        super().__init__(f"config field '{field_name}': {message}")


def _require(d, key, types, where):
    if key not in d:
        raise ConfigError(f"{where}{key}", "missing")
    v = d[key]
    if types is not None and not isinstance(v, types):
        raise ConfigError(f"{where}{key}", f"expected {types}, got {type(v).__name__}")
    return v


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
        raise ConfigError(f"{where}{key}", f"expected {kind}, got {value!r}")
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


# the keys of each section; a regressor or noise spec also has its "kind"
_TOP_KEYS = {"dimension", "theta_star", "theta0", "vartheta0", "regressor", "noise",
             "d_max", "sigma_max", "gains", "horizon", "ensemble", "resamples", "alpha",
             "base_seed", "mode", "c2_variant"}
_GAINS_KEYS = ("gamma", "beta", "mu")
_REGRESSOR_KEYS = {"constant": {"value", "phi_bound"},
                   "sinusoid": {"amplitude", "omega", "phase", "phi_bound"},
                   "iid_bounded": {"bound"},
                   "piecewise_constant": {"bound", "dwell", "levels"}}
_NOISE_KEYS = {"zero": set(),
               "biased_gaussian": {"bias", "sd", "truncation"},
               "uniform_biased": {"center", "halfwidth"},
               "state_dependent_bias": {"d_amplitude", "sd"}}


def _kind(spec, kinds, where):
    """spec's kind, after checking that it is known and that spec has no
    key the kind does not take."""
    kind = _require(spec, "kind", str, where)
    if kind not in kinds:
        raise ConfigError(f"{where}kind", f"unknown kind '{kind}'")
    _check_keys(spec, kinds[kind] | {"kind"}, where)
    return kind


def check_seed(value):
    """A base seed: a non-negative integer, as numpy's generators require."""
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise ConfigError("base_seed", f"must be a non-negative integer, got {value!r}")
    return value


def _build_regressor(spec, dim):
    kind = _kind(spec, _REGRESSOR_KEYS, "regressor.")
    try:
        if kind == "constant":
            return model_mod.Constant(
                value=_vector(spec, "value", dim, "regressor."),
                phi_bound=_number(spec, "phi_bound", "regressor.", None))
        if kind == "sinusoid":
            return model_mod.Sinusoid(
                amplitude=_vector(spec, "amplitude", dim, "regressor."),
                omega=_number(spec, "omega", "regressor."),
                phase=_vector(spec, "phase", dim, "regressor.") if "phase" in spec else None,
                phi_bound=_number(spec, "phi_bound", "regressor.", None))
        if kind == "iid_bounded":
            return model_mod.IidBounded(
                bound=_number(spec, "bound", "regressor."), dimension=dim)
        if kind == "piecewise_constant":
            levels = None
            if spec.get("levels") is not None:
                levels = tuple(_check_vector(v, dim, "regressor.levels")
                               for v in _require(spec, "levels", list, "regressor."))
                if not levels:
                    raise ConfigError("regressor.levels", "must hold at least one level")
            return model_mod.PiecewiseConstant(
                bound=_number(spec, "bound", "regressor."),
                dimension=dim,
                dwell=_number(spec, "dwell", "regressor.", integer=True),
                levels=levels)
    except model_mod.ConfigurationError as exc:
        raise ConfigError("regressor", str(exc)) from exc


def _build_noise(spec):
    kind = _kind(spec, _NOISE_KEYS, "noise.")
    try:
        if kind == "zero":
            return model_mod.Zero()
        if kind == "biased_gaussian":
            return model_mod.BiasedGaussianTruncated(
                bias=_number(spec, "bias", "noise."),
                sd=_number(spec, "sd", "noise."),
                truncation=_number(spec, "truncation", "noise.", 3.0))
        if kind == "uniform_biased":
            return model_mod.UniformBiased(
                center=_number(spec, "center", "noise."),
                halfwidth=_number(spec, "halfwidth", "noise."))
        if kind == "state_dependent_bias":
            return model_mod.StateDependentBias(
                d_amplitude=_number(spec, "d_amplitude", "noise."),
                sd=_number(spec, "sd", "noise."))
    except model_mod.ConfigurationError as exc:
        raise ConfigError("noise", str(exc)) from exc


@dataclass
class RunConfig:
    """Everything needed to reproduce a run bit-exactly."""

    true_model: model_mod.TrueModel
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

        mode = d.get("mode", "certified")
        if mode not in ("certified", "unrestricted"):
            raise ConfigError("mode", "must be 'certified' or 'unrestricted'")
        gspec = _require(d, "gains", dict, "")
        _check_keys(gspec, _GAINS_KEYS, "gains.")
        gamma, beta, mu = (_number(gspec, key, "gains.") for key in _GAINS_KEYS)
        try:
            gains = Gains(gamma=gamma, beta=beta, mu=mu, theta0=theta0, mode=mode)
        except GainsError as exc:
            raise ConfigError(f"gains.{exc.field}", str(exc)) from exc

        regressor = _build_regressor(_require(d, "regressor", dict, ""), dim)
        try:  # a huge parameter's ** raises OverflowError
            noise = _build_noise(_require(d, "noise", dict, ""))
            noise_d_max, noise_sigma_max = noise.d_max, noise.sigma_max
        except OverflowError as exc:
            raise ConfigError("noise", "the second moment overflows a float") from exc

        d_max = _number(d, "d_max", "", noise_d_max)
        sigma_max = _number(d, "sigma_max", "", noise_sigma_max)
        if d_max < noise_d_max - 1e-12:
            raise ConfigError("d_max", "smaller than the noise kind's analytic bound")
        if sigma_max < noise_sigma_max - 1e-12:
            raise ConfigError("sigma_max", "smaller than the noise kind's analytic bound")

        horizon = _number(d, "horizon", "", integer=True)
        if horizon < 1:
            raise ConfigError("horizon", "must be >= 1")
        ensemble = _number(d, "ensemble", "", 1, integer=True)
        if ensemble < 1:
            raise ConfigError("ensemble", "must be >= 1")
        resamples = _number(d, "resamples", "", 10000, integer=True)
        if resamples < 100:
            raise ConfigError("resamples", "must be >= 100")
        alpha = _number(d, "alpha", "", None)
        if alpha is not None and alpha <= 0:
            raise ConfigError("alpha", "must be positive")
        base_seed = check_seed(d.get("base_seed", 0))
        c2_variant = d.get("c2_variant", "theorem")
        if c2_variant not in ("theorem", "appendix"):
            raise ConfigError("c2_variant", "must be 'theorem' or 'appendix'")

        return cls(true_model=model_mod.TrueModel(theta_star), regressor=regressor,
                   noise=noise, gains=gains, vartheta0=vartheta0,
                   d_max=d_max, sigma_max=sigma_max, horizon=horizon,
                   ensemble=ensemble, resamples=resamples, alpha=alpha,
                   base_seed=base_seed, c2_variant=c2_variant, raw=dict(d))

    @property
    def dimension(self):
        return self.true_model.dimension

    def initial_state(self):
        return TunerState(theta=self.gains.theta0.copy(),
                          vartheta=self.vartheta0.copy(), step=0)

    def constants(self):
        """The decrement-bound constants; a ConfigError if they overflow a float."""
        try:
            with np.errstate(over="raise", invalid="raise"):
                return lyapunov.constants(self.gains, self.d_max, self.sigma_max,
                                          self.true_model.theta_star, self.c2_variant)
        except ArithmeticError as exc:  # an overflow, or c1 so small that c1**2 is 0
            raise ConfigError("(constants)", "they overflow a float for these gains, "
                              "theta_star, theta0, d_max and sigma_max") from exc

    def effective_alpha(self, consts):
        """alpha from the config, defaulting to c1/2 of the given constants."""
        if self.alpha is not None:
            return self.alpha
        if consts.degenerate:
            raise ConfigError("alpha", "no default alpha for degenerate constants")
        return consts.c1 / 2.0

    def trial_seed(self, trial):
        return self.base_seed ^ trial


def load_config(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError("(file)", f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError("(file)", f"invalid JSON in {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("(file)", "top-level JSON value must be an object")
    return RunConfig.from_dict(data)
