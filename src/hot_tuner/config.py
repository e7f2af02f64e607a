"""JSON run configuration shared by the verification harness and the CLI."""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import lyapunov, model as model_mod
from .tuner import Gains, TunerState


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


def _vector(d, key, dim, where):
    v = _require(d, key, list, where)
    if len(v) != dim or not all(isinstance(x, (int, float)) for x in v):
        raise ConfigError(f"{where}{key}", f"expected a numeric vector of length {dim}")
    return np.asarray(v, dtype=float)


def check_seed(value):
    """A base seed: a non-negative integer, as numpy's generators require."""
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise ConfigError("base_seed", f"must be a non-negative integer, got {value!r}")
    return value


def _build_regressor(spec, dim):
    kind = _require(spec, "kind", str, "regressor.")
    try:
        if kind == "constant":
            return model_mod.Constant(
                value=_vector(spec, "value", dim, "regressor."),
                phi_bound=spec.get("phi_bound"))
        if kind == "sinusoid":
            return model_mod.Sinusoid(
                amplitude=_vector(spec, "amplitude", dim, "regressor."),
                omega=float(_require(spec, "omega", (int, float), "regressor.")),
                phase=_vector(spec, "phase", dim, "regressor.") if "phase" in spec else None,
                phi_bound=spec.get("phi_bound"))
        if kind == "iid_bounded":
            return model_mod.IidBounded(
                bound=float(_require(spec, "bound", (int, float), "regressor.")),
                dimension=dim)
        if kind == "piecewise_constant":
            return model_mod.PiecewiseConstant(
                bound=float(_require(spec, "bound", (int, float), "regressor.")),
                dimension=dim,
                dwell=int(_require(spec, "dwell", int, "regressor.")),
                levels=tuple(spec["levels"]) if spec.get("levels") else None)
    except model_mod.ConfigurationError as exc:
        raise ConfigError("regressor", str(exc)) from exc
    raise ConfigError("regressor.kind", f"unknown kind '{kind}'")


def _build_noise(spec):
    kind = _require(spec, "kind", str, "noise.")
    try:
        if kind == "zero":
            return model_mod.Zero()
        if kind == "biased_gaussian":
            return model_mod.BiasedGaussianTruncated(
                bias=float(_require(spec, "bias", (int, float), "noise.")),
                sd=float(_require(spec, "sd", (int, float), "noise.")),
                truncation=float(spec.get("truncation", 3.0)))
        if kind == "uniform_biased":
            return model_mod.UniformBiased(
                center=float(_require(spec, "center", (int, float), "noise.")),
                halfwidth=float(_require(spec, "halfwidth", (int, float), "noise.")))
        if kind == "state_dependent_bias":
            return model_mod.StateDependentBias(
                d_amplitude=float(_require(spec, "d_amplitude", (int, float), "noise.")),
                sd=float(_require(spec, "sd", (int, float), "noise.")))
    except model_mod.ConfigurationError as exc:
        raise ConfigError("noise", str(exc)) from exc
    raise ConfigError("noise.kind", f"unknown kind '{kind}'")


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
    mode: str
    c2_variant: str
    raw: dict = field(default_factory=dict, repr=False)

    @classmethod
    def from_dict(cls, d):
        dim = _require(d, "dimension", int, "")
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
        for key in ("gamma", "beta", "mu"):
            _require(gspec, key, (int, float), "gains.")
        try:
            gains = Gains(gamma=float(gspec["gamma"]), beta=float(gspec["beta"]),
                          mu=float(gspec["mu"]), theta0=theta0, mode=mode)
        except ValueError as exc:
            raise ConfigError("gains.gamma" if "gamma" in str(exc) else "gains",
                              str(exc)) from exc

        regressor = _build_regressor(_require(d, "regressor", dict, ""), dim)
        noise = _build_noise(_require(d, "noise", dict, ""))

        d_max = float(d.get("d_max", noise.d_max))
        sigma_max = float(d.get("sigma_max", noise.sigma_max))
        if d_max < noise.d_max - 1e-12:
            raise ConfigError("d_max", "smaller than the noise kind's analytic bound")
        if sigma_max < noise.sigma_max - 1e-12:
            raise ConfigError("sigma_max", "smaller than the noise kind's analytic bound")

        horizon = _require(d, "horizon", int, "")
        if horizon < 1:
            raise ConfigError("horizon", "must be >= 1")
        ensemble = int(d.get("ensemble", 1))
        if ensemble < 1:
            raise ConfigError("ensemble", "must be >= 1")
        resamples = int(d.get("resamples", 10000))
        if resamples < 100:
            raise ConfigError("resamples", "must be >= 100")
        alpha = d.get("alpha")
        if alpha is not None:
            alpha = float(alpha)
            if alpha <= 0:
                raise ConfigError("alpha", "must be positive")
        base_seed = check_seed(d.get("base_seed", 0))
        c2_variant = d.get("c2_variant", "theorem")
        if c2_variant not in ("theorem", "appendix"):
            raise ConfigError("c2_variant", "must be 'theorem' or 'appendix'")

        return cls(true_model=model_mod.TrueModel(theta_star), regressor=regressor,
                   noise=noise, gains=gains, vartheta0=vartheta0,
                   d_max=d_max, sigma_max=sigma_max, horizon=horizon,
                   ensemble=ensemble, resamples=resamples, alpha=alpha,
                   base_seed=base_seed, mode=mode, c2_variant=c2_variant, raw=dict(d))

    @property
    def dimension(self):
        return self.true_model.dimension

    def initial_state(self):
        return TunerState(theta=self.gains.theta0.copy(),
                          vartheta=self.vartheta0.copy(), step=0)

    def constants(self):
        return lyapunov.constants(self.gains, self.d_max, self.sigma_max,
                                  self.true_model.theta_star,
                                  c2_variant=self.c2_variant)

    def effective_alpha(self, consts=None):
        """alpha from the config, defaulting to c1/2."""
        if self.alpha is not None:
            return self.alpha
        consts = consts or self.constants()
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
