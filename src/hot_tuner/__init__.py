"""Noise-robust high-order tuner for linear regression.

Library layout:
    model    -- regressor generators, bounded-moment noise
    tuner    -- the two-state high-order tuner update
    lyapunov -- candidate Lyapunov function, decrement-bound constants, thresholds
    verify   -- trajectory / ensemble runners and the stochastic stability checks
    config   -- JSON run configuration
    cli      -- `hot-tuner` command-line front end
"""

__version__ = "0.1.0"

from .model import (
    Constant,
    Sinusoid,
    IidBounded,
    PiecewiseConstant,
    Zero,
    BiasedGaussianTruncated,
    UniformBiased,
    StateDependentBias,
)
from .tuner import Gains, TunerState, NonFiniteError, hot_step
from .lyapunov import (
    LyapunovConstants,
    lyapunov_value,
    gamma_max,
    constants,
    threshold_K,
    threshold_T,
    clipped_V,
    theorem4_radius,
)
from .config import RunConfig, ConfigError
