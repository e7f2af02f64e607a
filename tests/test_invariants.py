"""The kernel checked by exact invariants that hold at any SIMD level.

A golden pins the bits of one host's numpy build; these pin what any correct
HOT step must do on every host.

- Homogeneity.  Scaling theta*, theta0 and a constant-mean noise's location
  and scale by 4, a power of two, scales every product and sum of the step
  exactly, so theta, vartheta, e_y and eta scale by 4 and V by 16, bitwise.
- Translation.  Shifting theta* and theta0 (and so vartheta0) by c shifts
  theta and vartheta by c and leaves V and eta unchanged: the step reads
  only differences of them.  Rounding at the shifted magnitudes moves them
  by a few ulps of |c|, so the bounds scale with |c|.  A constant mean's eta
  stays bitwise; state_dependent_bias's mean reads the rounded theta -
  vartheta.
- Permutation.  Reversing the components of theta*, theta0 and the
  sinusoid's amplitude and phase reverses theta and vartheta and keeps V and
  eta, bitwise at N = 2, where every sum has two terms.  At the reference
  theta* = (1, -0.5) each phi . theta* is exact.  e_y is left out: BLAS ddot
  rounds its two-term dot by order, so it moves by an ulp.  iid regressors
  are out of scope, being hashed by component index.
- The fixed point.  With zero noise and theta0 = vartheta0 = theta*, every
  residual and leakage term is exactly 0, so V stays exactly 0.

Beside each, a _hot_stepper mutant, patched in as test_moments does, breaks
it: an offset y (homogeneity), leakage toward 0 (translation and the fixed
point), and every component's gradient reading component 0's regressor row
(permutation), which leakage toward 0 keeps.  A step whose vartheta update
is sign-flipped keeps all four, being linear, leaving theta* fixed and
treating every component alike; test_moments catches that one.
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
    "state_dependent_bias": (
        {"kind": "state_dependent_bias", "d_amplitude": 0.1, "sd": 0.45}, 0.1, 0.5),
}
CONSTANT_MEAN = sorted(set(NOISES) - {"state_dependent_bias"})
LOCATION_AND_SCALE = ("bias", "sd", "center", "halfwidth")
REGRESSORS = {
    "sinusoid": None,  # the reference config's, shared by every trial
    "iid_bounded": {"kind": "iid_bounded", "bound": 2.0},
}
# Translation's bounds per unit |c|, about 3x the largest read over the
# REGRESSORS x NOISES grid at every SHIFTS entry, which was 7.6e-16 for theta
# and vartheta, 3.7e-15 for V (relative) and 2.9e-17 for
# state_dependent_bias's eta, each at c = (3, -7).
SHIFTS = [(3.0, -7.0), (1e2, -1e2), (1e6, -1e6)]
SHIFT_STATE, SHIFT_V, SHIFT_ETA = 2e-15, 1e-14, 1e-16


def config(regressor, noise, scale=1.0, shift=(0.0, 0.0), flip=False, **overrides):
    """A 3-trial config of REGRESSORS and NOISES, 300 steps from
    theta0 = (0.25, 0.75), with theta*, theta0, d_max, sigma_max and the
    noise's location and scale multiplied by `scale`, theta* and theta0 then
    shifted by `shift`, and with `flip` the components of theta*, theta0 and
    the sinusoid's amplitude and phase reversed."""
    spec, d_max, sigma_max = NOISES[noise]
    d = reference_dict(horizon=300, ensemble=3, theta0=[0.25, 0.75], d_max=d_max * scale,
                       sigma_max=sigma_max * scale,
                       noise={k: v * scale if k in LOCATION_AND_SCALE else v
                              for k, v in spec.items()})
    d["theta_star"] = [x * scale + c for x, c in zip(d["theta_star"], shift)]
    d["theta0"] = [x * scale + c for x, c in zip(d["theta0"], shift)]
    if REGRESSORS[regressor] is not None:
        d["regressor"] = REGRESSORS[regressor]
    if flip:
        d["theta_star"], d["theta0"] = d["theta_star"][::-1], d["theta0"][::-1]
        d["regressor"] = {k: v[::-1] if k in ("amplitude", "phase") else v
                          for k, v in d["regressor"].items()}
    d.update(overrides)
    return RunConfig.from_dict(d)


def traces(cfg):
    return verify.run_trajectories(cfg, [cfg.trial_seed(t) for t in range(cfg.ensemble)])


def homogeneous(regressor, noise):
    """Whether the run at 4x theta*, theta0 and noise is bitwise 4x the run,
    e_y and eta included, and its V 16x."""
    base, scaled = (traces(config(regressor, noise, s)) for s in (1.0, SCALE))
    return all(np.array_equal(b.theta * SCALE, s.theta)
               and np.array_equal(b.vartheta * SCALE, s.vartheta)
               and np.array_equal(b.e_y * SCALE, s.e_y, equal_nan=True)
               and np.array_equal(b.eta * SCALE, s.eta, equal_nan=True)
               and np.array_equal(b.V * SCALE ** 2, s.V) for b, s in zip(base, scaled))


def translation_errors(regressor, noise, shift):
    """The largest |theta' - shift - theta| and |vartheta' - shift -
    vartheta|, |V' - V| / V and |eta' - eta| of the run shifted by `shift`
    against the run."""
    c = np.array(shift)
    base, moved = (traces(config(regressor, noise, shift=s)) for s in ((0.0, 0.0), shift))
    return np.array([[max(np.abs(m.theta - c - b.theta).max(),
                          np.abs(m.vartheta - c - b.vartheta).max()),
                      (np.abs(m.V - b.V) / b.V).max(),
                      np.abs(m.eta - b.eta)[:-1].max()] for b, m in zip(base, moved)]).max(axis=0)


def permutes(noise):
    """Whether reversing the components of theta*, theta0 and the sinusoid's
    amplitude and phase reverses theta and vartheta bitwise, and keeps V and
    eta."""
    base, flipped = (traces(config("sinusoid", noise, flip=f)) for f in (False, True))
    return all(np.array_equal(b.theta[:, ::-1], f.theta)
               and np.array_equal(b.vartheta[:, ::-1], f.vartheta)
               and np.array_equal(b.V, f.V)
               and np.array_equal(b.eta, f.eta, equal_nan=True)
               for b, f in zip(base, flipped))


def fixed_point_V(regressor):
    """V of every trial over 2000 noise-free steps from theta0 = vartheta0 =
    theta*, the reference config's."""
    ts = reference_dict()["theta_star"]
    cfg = config(regressor, "zero", horizon=2000, theta0=ts, vartheta0=ts)
    return np.stack([tr.V for tr in traces(cfg)])


def patch_step(monkeypatch, mutate):
    """Patch verify._hot_stepper to step by mutate(step, th, vt, p, norm,
    y_j, th_out, vt_out)."""
    stepper = verify._hot_stepper

    def mutant(gains, n, width):
        carry, step = stepper(gains, n, width)
        return carry, lambda *args: mutate(step, *args)

    monkeypatch.setattr(verify, "_hot_stepper", mutant)


@pytest.fixture
def leakage_toward_zero(monkeypatch):
    """_hot_stepper with its leakage pulling toward 0 instead of theta0."""
    stepper = verify._hot_stepper

    def toward_zero(gains, n, width):
        return stepper(dataclasses.replace(gains, theta0=np.zeros_like(gains.theta0)), n, width)

    monkeypatch.setattr(verify, "_hot_stepper", toward_zero)


@pytest.mark.parametrize("noise", CONSTANT_MEAN)
@pytest.mark.parametrize("regressor", sorted(REGRESSORS))
def test_power_of_two_homogeneity(regressor, noise):
    assert homogeneous(regressor, noise)


def test_an_offset_observation_breaks_homogeneity(monkeypatch):
    patch_step(monkeypatch, lambda step, th, vt, p, norm, y_j, th_out, vt_out:
               step(th, vt, p, norm, y_j + 1e-3, th_out, vt_out))
    assert not homogeneous("iid_bounded", "uniform_biased")


@pytest.mark.parametrize("noise", sorted(NOISES))
@pytest.mark.parametrize("regressor", sorted(REGRESSORS))
def test_translation_within_ulps_of_the_shift(regressor, noise):
    for shift in SHIFTS:
        state, V, eta = translation_errors(regressor, noise, shift) / np.hypot(*shift)
        assert state <= SHIFT_STATE, shift
        assert V <= SHIFT_V, shift
        assert eta <= (SHIFT_ETA if noise == "state_dependent_bias" else 0.0), shift


def test_leakage_toward_zero_breaks_translation(leakage_toward_zero):
    _, V, _ = translation_errors("iid_bounded", "uniform_biased", SHIFTS[0])
    assert V > 1.0


@pytest.mark.parametrize("noise", sorted(NOISES))
def test_reversed_components_reverse_the_run(noise):
    assert permutes(noise)


@pytest.mark.parametrize("noise", sorted(NOISES))
def test_one_regressor_row_for_every_component_breaks_permutation(noise, monkeypatch):
    patch_step(monkeypatch, lambda step, th, vt, p, norm, y_j, th_out, vt_out:
               step(th, vt, p[:1], norm, y_j, th_out, vt_out))
    assert not permutes(noise)


@pytest.mark.parametrize("regressor", sorted(REGRESSORS))
def test_theta_star_is_a_fixed_point(regressor):
    V = fixed_point_V(regressor)
    assert V.shape == (3, 2001) and not V.any()


def test_leakage_toward_zero_leaves_the_fixed_point(leakage_toward_zero):
    assert fixed_point_V("iid_bounded").max() > 1.0
