"""The kernel checked by exact invariants that hold at any SIMD level.

A golden pins the bits of one host's numpy build; these pin what any correct
HOT step must do, bit for bit, on every host.

- Homogeneity.  Scaling theta*, theta0 and a constant-mean noise's location
  and scale by 4, a power of two, scales every product and sum of the step
  exactly, so theta and vartheta scale by 4 and V by 16, bitwise.
- The fixed point.  With zero noise and theta0 = vartheta0 = theta*, every
  residual and leakage term is exactly 0, so V stays exactly 0.

Beside each, a _hot_stepper mutant, patched in as test_moments does, breaks
it.  A step whose vartheta update is sign-flipped keeps both, being linear and
leaving theta* fixed; test_moments catches that one.
"""
import dataclasses

import numpy as np
import pytest

from hot_tuner import verify
from hot_tuner.config import RunConfig

from conftest import reference_dict

SCALE = 4.0
NOISES = {  # (noise spec, d_max, sigma_max), each within the reference bounds
    "biased_gaussian": ({"kind": "biased_gaussian", "bias": 0.1, "sd": 0.48}, 0.1, 0.5),
    "uniform_biased": ({"kind": "uniform_biased", "center": 0.05, "halfwidth": 0.5}, 0.1, 0.5),
    "zero": ({"kind": "zero"}, 0.0, 0.0),
}
LOCATION_AND_SCALE = ("bias", "sd", "center", "halfwidth")
REGRESSORS = {
    "sinusoid": None,  # the reference config's, shared by every trial
    "iid_bounded": {"kind": "iid_bounded", "bound": 2.0},
}


def config(regressor, noise, scale=1.0, **overrides):
    """A 3-trial config of REGRESSORS and NOISES, 300 steps from
    theta0 = (0.25, 0.75), with theta*, theta0, d_max, sigma_max and the
    noise's location and scale multiplied by `scale`."""
    spec, d_max, sigma_max = NOISES[noise]
    d = reference_dict(horizon=300, ensemble=3, theta0=[0.25, 0.75], d_max=d_max * scale,
                       sigma_max=sigma_max * scale,
                       noise={k: v * scale if k in LOCATION_AND_SCALE else v
                              for k, v in spec.items()})
    d["theta_star"] = [x * scale for x in d["theta_star"]]
    d["theta0"] = [x * scale for x in d["theta0"]]
    if REGRESSORS[regressor] is not None:
        d["regressor"] = REGRESSORS[regressor]
    d.update(overrides)
    return RunConfig.from_dict(d)


def traces(cfg):
    return verify.run_trajectories(cfg, [cfg.trial_seed(t) for t in range(cfg.ensemble)])


def homogeneous(regressor, noise):
    """Whether the run at 4x theta*, theta0 and noise is bitwise 4x the run,
    and its V 16x."""
    base, scaled = (traces(config(regressor, noise, s)) for s in (1.0, SCALE))
    return all(np.array_equal(b.theta * SCALE, s.theta)
               and np.array_equal(b.vartheta * SCALE, s.vartheta)
               and np.array_equal(b.V * SCALE ** 2, s.V) for b, s in zip(base, scaled))


def fixed_point_V(regressor):
    """V of every trial over 2000 noise-free steps from theta0 = vartheta0 =
    theta*, the reference config's."""
    ts = reference_dict()["theta_star"]
    cfg = config(regressor, "zero", horizon=2000, theta0=ts, vartheta0=ts)
    return np.stack([tr.V for tr in traces(cfg)])


@pytest.mark.parametrize("noise", sorted(NOISES))
@pytest.mark.parametrize("regressor", sorted(REGRESSORS))
def test_power_of_two_homogeneity(regressor, noise):
    assert homogeneous(regressor, noise)


def test_an_offset_observation_breaks_homogeneity(monkeypatch):
    stepper = verify._hot_stepper

    def offset(gains, n, width):
        carry, step = stepper(gains, n, width)

        def mutant(th, vt, p, norm, y_j, th_out, vt_out):
            step(th, vt, p, norm, y_j + 1e-3, th_out, vt_out)

        return carry, mutant

    monkeypatch.setattr(verify, "_hot_stepper", offset)
    assert not homogeneous("iid_bounded", "uniform_biased")


@pytest.mark.parametrize("regressor", sorted(REGRESSORS))
def test_theta_star_is_a_fixed_point(regressor):
    V = fixed_point_V(regressor)
    assert V.shape == (3, 2001) and not V.any()


def test_leakage_toward_zero_leaves_the_fixed_point(monkeypatch):
    stepper = verify._hot_stepper

    def toward_zero(gains, n, width):
        return stepper(dataclasses.replace(gains, theta0=np.zeros_like(gains.theta0)), n, width)

    monkeypatch.setattr(verify, "_hot_stepper", toward_zero)
    assert fixed_point_V("iid_bounded").max() > 1.0
