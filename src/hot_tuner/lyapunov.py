"""Candidate Lyapunov function, decrement-bound constants, and thresholds."""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .model import _sum_squares


class DegenerateConstantsError(ValueError):
    """c1 = 0 (mu * gamma * beta = 0): the thresholds K and T are undefined."""


class InvalidAlphaError(ValueError):
    """The contraction rate alpha must satisfy 0 < alpha < c1."""


def lyapunov_value(state, theta_star, gamma):
    """lyapunov_value_arrays of a TunerState, for a positive gamma."""
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    return lyapunov_value_arrays(np.asarray(state.theta), np.asarray(state.vartheta),
                                 np.asarray(theta_star, dtype=float), gamma)


def lyapunov_value_arrays(theta, vartheta, theta_star, gamma):
    """V = (1/gamma) ||vartheta - theta*||^2 + (1/gamma) ||theta - vartheta||^2.

    Broadcasts over leading axes, the N components last; each norm folds
    left over them (model._sum_squares) at every N.  The lockstep kernel,
    the decrement probe and the library all compute V here.
    """
    v = _sum_squares(vartheta, theta_star)
    v += _sum_squares(theta, vartheta)
    v /= gamma
    return v


def gamma_max(beta, mu):
    """Largest certified step size: beta(2-beta) / (16 + beta^2 + mu(57 beta + 1)/(16 beta))."""
    if not 0.0 < beta < 1.0:
        raise ValueError("beta must lie in (0, 1)")
    if not 0.0 < mu < 1.0:
        raise ValueError("mu must lie in (0, 1)")
    return beta * (2.0 - beta) / (16.0 + beta ** 2 + mu * (57.0 * beta + 1.0) / (16.0 * beta))


def threshold_K(c1, c2, c_hat):
    """Greatest root of -c1 x + c2 sqrt(x) + c_hat = 0, in closed form."""
    if c1 <= 0.0:
        raise DegenerateConstantsError("c1 must be positive for the roots K and T")
    disc = max(c2 ** 4 + 4.0 * c1 * c2 ** 2 * c_hat, 0.0)
    return (c2 ** 2 + 2.0 * c1 * c_hat + math.sqrt(disc)) / (2.0 * c1 ** 2)


def threshold_T(c1, c2, c_hat, K):
    """Greatest root of c1 x - c2 sqrt(x) - (c_hat + K) = 0, in closed form."""
    return threshold_K(c1, c2, c_hat + K)


@dataclass(frozen=True)
class LyapunovConstants:
    """Decrement-bound constants and the thresholds derived from them.

    K bounds the compact set the state is attracted to; T is the support
    boundary of the decrease certificate psi(v) = c1 v - c2 sqrt(v) - c_hat - K,
    which is positive exactly for v > T.  degenerate=True marks the
    mu*gamma*beta = 0 corner where K and T do not exist (they are NaN).
    """

    c1: float
    c2: float
    c3: float
    c4: float
    c5: float
    c_hat: float
    K: float
    T: float
    degenerate: bool
    c2_variant: str


def constants(gains, d_max, sigma_max, theta_star, c2_variant="theorem"):
    """All decrement-bound constants for the given gains and noise bounds;
    OverflowError if one is not a finite float (K and T excepted when degenerate).

    c2_variant "theorem" uses the stated coefficient (19609/6144) d_max;
    "appendix" uses (19609/1536) d_max sqrt(gamma), which the two agree on
    only when sqrt(gamma) <= 1/4.
    """
    if d_max < 0 or sigma_max < 0:
        raise ValueError("d_max and sigma_max must be nonnegative")
    if c2_variant not in ("theorem", "appendix"):
        raise ValueError("c2_variant must be 'theorem' or 'appendix'")
    ts = np.asarray(theta_star, dtype=float)
    t0 = gains.theta0
    gamma, beta, mu = gains.gamma, gains.beta, gains.mu

    c1 = (10.0 / 16.0) * mu * gamma * beta
    if c2_variant == "appendix":
        c2 = (19609.0 / 1536.0) * d_max * math.sqrt(gamma)
    else:
        if gamma > 1.0 / 16.0 and d_max > 0:
            warnings.warn(
                "gamma > 1/16: the theorem-statement c2 is smaller than the "
                "appendix-faithful value; consider c2_variant='appendix'",
                stacklevel=2)
        c2 = (19609.0 / 6144.0) * d_max
    dist2 = float(np.sum((ts - t0) ** 2))
    c3 = mu * ((3570.0 * beta + 896.0) / (224.0 * beta)) * dist2
    c4 = ((67.0 / 256.0) * d_max * float(np.linalg.norm(t0))
          + (1.0 / 8.0) * d_max * math.sqrt(dist2)
          + (15001.0 / 1536.0) * d_max * float(np.linalg.norm(ts)))
    c5 = (4.0 * gamma * beta * sigma_max ** 2 * abs(1.0 - 1.5 * beta)
          + 2.0 * (1.0 - beta) * gamma * beta * sigma_max ** 2
          + 2.0 * gamma * sigma_max ** 2)
    c_hat = c3 + c4 + c5

    if c1 > 0.0:
        K = threshold_K(c1, c2, c_hat)
        T = threshold_T(c1, c2, c_hat, K)
        degenerate = False
    else:
        K = T = float("nan")
        degenerate = True
    # c1 is finite, c_hat = c3 + c4 + c5 >= 0, and T is finite only if K is
    if not math.isfinite(c2 + c_hat + (0.0 if degenerate else T)):
        raise OverflowError("the decrement-bound constants overflow a float")

    return LyapunovConstants(
        c1=c1, c2=c2, c3=c3, c4=c4, c5=c5, c_hat=c_hat, K=K, T=T,
        degenerate=degenerate, c2_variant=c2_variant)


def clipped_V(v, K):
    """V-hat: max(v - K, 0)."""
    return np.maximum(np.asarray(v, dtype=float) - K, 0.0)


def theorem4_radius(alpha, consts):
    """Radius of the exponential-convergence target set: max{c2^2/(alpha-c1)^2, c_hat/alpha}."""
    if consts.degenerate:
        raise DegenerateConstantsError("radius undefined for degenerate constants")
    if not 0.0 < alpha < consts.c1:
        raise InvalidAlphaError(f"alpha must lie in (0, c1={consts.c1}); got {alpha}")
    gap = (alpha - consts.c1) ** 2  # 0.0 if it underflows
    radius = max(consts.c2 ** 2 / gap, consts.c_hat / alpha) if gap else math.inf
    if not math.isfinite(radius):
        raise InvalidAlphaError(f"alpha={alpha} is so near 0 or c1 that the radius overflows")
    return radius
