"""The kernel checked by its statistics: exact moments of V on a shared regressor.

For a fixed regressor phi the HOT step is affine, x' = A x + B y + C with
x = (theta, vartheta), and here A, B and C are read off 2N + 2 hot_step
calls: one per unit state, one at zero and one at y = 1.  With the reference
config's shared sinusoid and constant-mean noise y = phi . theta* + bias + eps,
the mean m and covariance P of x propagate exactly,

    m' = A m + B (phi . theta* + bias) + C,    P' = A P A^T + Var(eps) B B^T,

and E[V_k] = (e_k^T Q e_k + tr(Q P_k)) / gamma with e_k = m_k - (theta*, theta*)
and Q = [[I, -I], [-I, 2I]].  The kernel's 200-trial ensemble mean of V must
agree at every step within a Bonferroni z, and a kernel whose vartheta step is
sign-flipped must not.  Nothing here goes through verify's step or observation
code: the maps come from tuner.hot_step, the regressor rows from the config's
sinusoid formula and Var(eps) from the truncated normal's closed form.
"""
import math

import numpy as np
import pytest

from hot_tuner import verify
from hot_tuner.config import RunConfig
from hot_tuner.tuner import TunerState, hot_step

from conftest import reference_dict

Z_BONFERRONI = 5.0  # two-sided 5.7e-7 per step; about 1e-3 over 2000 steps


def affine_maps(cfg, phi):
    """A (steps, 2N, 2N), B and C (steps, 2N) of the step at each row of phi
    (steps, N), from 2N + 2 hot_step calls that each take every row at once."""
    n = phi.shape[1]
    probes = [(np.eye(2 * n)[i], 0.0) for i in range(2 * n)]
    probes += [(np.zeros(2 * n), 0.0), (np.zeros(2 * n), 1.0)]
    images = []
    for x, y in probes:
        state = TunerState(theta=np.tile(x[:n], (len(phi), 1)),
                           vartheta=np.tile(x[n:], (len(phi), 1)))
        out = hot_step(state, phi, np.full(len(phi), y), cfg.gains)
        images.append(np.concatenate([out.theta, out.vartheta], axis=1))
    C = images[2 * n]
    A = np.stack(images[:2 * n], axis=2) - C[:, :, None]
    return A, images[2 * n + 1] - C, C


def exact_mean_V(cfg, spec):
    """E[V_k], k = 0..horizon, for the config's shared sinusoid and its
    biased_gaussian noise, both given as the config's dict `spec`."""
    reg, noise = spec["regressor"], spec["noise"]
    ks = np.arange(cfg.horizon, dtype=float)[:, None]
    phi = np.asarray(reg["amplitude"]) * np.sin(reg["omega"] * ks + np.asarray(reg["phase"]))
    # a normal truncated at +-3 sd, the kind's default, has zero mean
    t, sd = 3.0, noise["sd"]
    var_eps = sd ** 2 * (1.0 - 2.0 * t * math.exp(-0.5 * t * t)
                         / math.sqrt(2.0 * math.pi) / math.erf(t / math.sqrt(2.0)))
    A, B, C = affine_maps(cfg, phi)
    ts = np.asarray(spec["theta_star"], dtype=float)
    n = ts.size
    eye = np.eye(n)
    Q = np.block([[eye, -eye], [-eye, 2.0 * eye]])
    x_star = np.concatenate([ts, ts])
    start = cfg.initial_state()
    m = np.concatenate([start.theta, start.vartheta])
    P = np.zeros((2 * n, 2 * n))
    means = [float((m - x_star) @ Q @ (m - x_star))]
    for k in range(cfg.horizon):
        m = A[k] @ m + B[k] * (phi[k] @ ts + noise["bias"]) + C[k]
        P = A[k] @ P @ A[k].T + var_eps * np.outer(B[k], B[k])
        means.append(float((m - x_star) @ Q @ (m - x_star) + np.trace(Q @ P)))
    return np.array(means) / cfg.gains.gamma


def max_abs_z(cfg, exact):
    """The largest |z| over steps 1..horizon of the ensemble mean of V against
    the exact mean; step 0 is the fixed start."""
    V = verify.run_ensemble(cfg).V[:, 1:]
    stderr = np.std(V, axis=0, ddof=1) / math.sqrt(V.shape[0])
    return float(np.max(np.abs(np.mean(V, axis=0) - exact[1:]) / stderr))


@pytest.fixture(scope="module")
def reference():
    spec = reference_dict()
    assert (spec["regressor"]["kind"], spec["noise"]["kind"]) == ("sinusoid", "biased_gaussian")
    assert spec["noise"].get("truncation", 3.0) == 3.0
    cfg = RunConfig.from_dict(spec)
    assert (cfg.horizon, cfg.ensemble) == (2000, 200)
    return cfg, exact_mean_V(cfg, spec)


def test_maps_reproduce_hot_step(reference):
    cfg, _ = reference
    rng = np.random.default_rng(7)
    phi = rng.uniform(-2.0, 2.0, (5, 2))
    A, B, C = affine_maps(cfg, phi)
    x, y = rng.uniform(-3.0, 3.0, (5, 4)), rng.uniform(-3.0, 3.0, 5)
    out = hot_step(TunerState(theta=x[:, :2], vartheta=x[:, 2:]), phi, y, cfg.gains)
    np.testing.assert_allclose(np.einsum("kij,kj->ki", A, x) + B * y[:, None] + C,
                               np.concatenate([out.theta, out.vartheta], axis=1),
                               rtol=1e-12, atol=1e-12)


def test_ensemble_mean_of_V_matches_the_exact_mean(reference):
    cfg, exact = reference
    assert max_abs_z(cfg, exact) < Z_BONFERRONI


def test_a_sign_flipped_vartheta_step_fails(reference, monkeypatch):
    cfg, exact = reference
    stepper = verify._hot_stepper

    def flipped(gains, n, width):
        carry, step = stepper(gains, n, width)

        def mutant(th, vt, p, norm, y_j, th_out, vt_out):
            before = vt.copy()
            step(th, vt, p, norm, y_j, th_out, vt_out)
            np.subtract(2.0 * before, vt_out, out=vt_out)  # vt + gamma * g for vt - gamma * g

        return carry, mutant

    monkeypatch.setattr(verify, "_hot_stepper", flipped)
    assert max_abs_z(cfg, exact) > Z_BONFERRONI
