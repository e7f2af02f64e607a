"""Two-state high-order tuner update.

All operations broadcast over leading axes: theta may be (N,), (trials, N) or
(M, N) against a shared phi.  hot_step is the reference definition of the
update; the one step that verify's lockstep kernel and decrement probes run
reproduces it bitwise for fewer than 8 components.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import ConfigError


class NonFiniteError(FloatingPointError):
    """An update produced NaN/inf, typically because gamma is too large."""

    def __init__(self, step=None):
        self.step = step
        msg = "tuner state became non-finite"
        if step is not None:
            msg += f" at step {step}"
        super().__init__(msg + "; reduce gamma (see lyapunov.gamma_max)")


@dataclass(frozen=True)
class Gains:
    """Tuner hyperparameters: step size gamma, mixing beta, leakage mu.

    mode "certified" enforces the stability hypotheses (0<mu<1, 0<beta<1,
    gamma <= gamma_max(beta, mu)); "unrestricted" only checks basic sanity and
    is meant for exploratory runs.
    """

    gamma: float
    beta: float
    mu: float
    theta0: np.ndarray
    mode: str = "certified"

    def __post_init__(self):
        t0 = np.asarray(self.theta0, dtype=float)
        if t0.ndim != 1 or not np.all(np.isfinite(t0)):
            raise ConfigError("theta0", "theta0 must be a finite 1-d vector")
        object.__setattr__(self, "theta0", t0)
        if not 0.0 < self.beta < 1.0:
            raise ConfigError("beta", "beta must lie in (0, 1)")
        if self.gamma <= 0.0:
            raise ConfigError("gamma", "gamma must be positive")
        if self.mode not in ("certified", "unrestricted"):
            raise ConfigError("mode", "mode must be 'certified' or 'unrestricted'")
        if self.mode == "certified":
            if not 0.0 < self.mu < 1.0:
                raise ConfigError("mu", "certified mode requires 0 < mu < 1")
            from .lyapunov import gamma_max
            gmax = gamma_max(self.beta, self.mu)
            if self.gamma > gmax:
                raise ConfigError("gamma", f"gamma={self.gamma} exceeds "
                                  f"gamma_max({self.beta}, {self.mu})={gmax}")
        elif not 0.0 <= self.mu < 1.0:
            raise ConfigError("mu", "mu must lie in [0, 1)")


@dataclass(frozen=True)
class TunerState:
    """The pair (theta_k, vartheta_k) evolved by the tuner."""

    theta: np.ndarray
    vartheta: np.ndarray
    step: int = 0

    def __post_init__(self):
        th = np.asarray(self.theta, dtype=float)
        vt = np.asarray(self.vartheta, dtype=float)
        if th.shape != vt.shape:
            raise ValueError("theta and vartheta must share a shape")
        object.__setattr__(self, "theta", th)
        object.__setattr__(self, "vartheta", vt)


def normalization(phi):
    """N_k = 1 + ||phi_k||^2."""
    phi = np.asarray(phi, dtype=float)
    return 1.0 + np.sum(phi * phi, axis=-1)


def loss_gradient(theta, phi, y):
    """phi * (theta . phi - y), the gradient available to the designer."""
    theta = np.asarray(theta, dtype=float)
    phi = np.asarray(phi, dtype=float)
    err = np.sum(theta * phi, axis=-1) - y
    return phi * np.expand_dims(err, -1)


def regularized_gradient(theta, phi, y, gains):
    """Normalized loss gradient plus the leakage term mu * (theta - theta0)."""
    n = normalization(phi)
    g = loss_gradient(theta, phi, y) / np.expand_dims(n, -1)
    return g + gains.mu * (np.asarray(theta) - gains.theta0)


def hot_step(state, phi, y, gains):
    """Advance the tuner one observation; raises NonFiniteError on blow-up.

    Both gradients use the same (phi_k, y_{k+1}); the second is evaluated at
    theta_{k+1}, not at the intermediate point.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        g1 = regularized_gradient(state.theta, phi, y, gains)
        theta_bar = state.theta - gains.gamma * gains.beta * g1
        theta_next = theta_bar - gains.beta * (theta_bar - state.vartheta)
        g2 = regularized_gradient(theta_next, phi, y, gains)
        vartheta_next = state.vartheta - gains.gamma * g2
    if not (np.all(np.isfinite(theta_next)) and np.all(np.isfinite(vartheta_next))):
        raise NonFiniteError(state.step)
    return TunerState(theta=theta_next, vartheta=vartheta_next, step=state.step + 1)
