"""End-to-end acceptance suite.

Each test prints one PASS/FAIL line (run with `pytest -s tests/test_acceptance.py`
to see them).  The statistical checks use z = 4 standard errors throughout.
"""
import json
import math

import numpy as np
import pytest

from hot_tuner.cli import main as cli_main
from hot_tuner.config import RunConfig
from hot_tuner.lyapunov import theorem4_radius, threshold_K, threshold_T
from hot_tuner.model import (
    BiasedGaussianTruncated,
    StateDependentBias,
    UniformBiased,
    Zero,
)
from hot_tuner.tuner import Gains, TunerState, hot_step
from hot_tuner import verify

from conftest import reference_dict
from test_lyapunov import bisect_greatest_root_K, bisect_greatest_root_T

Z = 4.0


def _report(name, ok):
    print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, name


@pytest.fixture(scope="module")
def cfg():
    return RunConfig.from_dict(reference_dict())


@pytest.fixture(scope="module")
def consts(cfg):
    return cfg.constants()


# the four noise kinds, all within the reference (d_max, sigma_max) bounds
def noise_kinds():
    return [Zero(),
            BiasedGaussianTruncated(bias=0.1, sd=0.48),
            UniformBiased(center=-0.08, halfwidth=0.3),
            StateDependentBias(d_amplitude=0.1, sd=0.45)]


@pytest.fixture(scope="module")
def decrement(cfg, consts):
    for noise in noise_kinds():
        assert noise.d_max <= cfg.d_max + 1e-12
        assert noise.sigma_max <= cfg.sigma_max + 1e-12
    return verify.decrement_report(cfg, consts, M=10_000, noises=noise_kinds())


def test_criterion_1_decrement_bound(decrement):
    assert len(decrement.probes) == 4 * 54
    _report("1 decrement bound (all kinds, all probes)", decrement.all_pass)


def test_criterion_2_strict_decrease_outside_D(decrement, consts):
    outside = [p for p in decrement.probes if p.V_k >= 1.05 * consts.K]
    assert outside  # the T and 10T spheres qualify
    ok = all(p.strictly_decreasing for p in outside)
    _report("2 strict decrease outside D", ok)


def test_criterion_3_boundedness(cfg, consts):
    ens = verify.run_ensemble(cfg, n_trials=200, horizon=50_000)
    summary = verify.boundedness_check(ens.V, consts)
    _report("3 boundedness (200 trials, horizon 5e4)", summary.passed)


def test_criterion_4_exponential_rate(cfg, consts):
    alpha = consts.c1 / 2.0
    K4 = theorem4_radius(alpha, consts)
    init = verify.state_on_sphere(10.0 * K4, cfg.true_model.theta_star,
                                  cfg.gains.gamma,
                                  np.random.default_rng(cfg.base_seed))
    ens = verify.run_ensemble(cfg, n_trials=200, horizon=5000, initial=init)
    report = verify.rate_check(ens.V, alpha, consts)
    _report("4 exponential rate envelope", report.passed)


def test_criterion_5_closed_form_roots():
    rng = np.random.default_rng(424242)
    ok = True
    for _ in range(1000):
        c1, c2, c_hat = rng.uniform(1e-4, 10.0, size=3)
        K = threshold_K(c1, c2, c_hat)
        T = threshold_T(c1, c2, c_hat, K)
        ok &= math.isclose(K, bisect_greatest_root_K(c1, c2, c_hat), rel_tol=1e-9)
        ok &= math.isclose(T, bisect_greatest_root_T(c1, c2, c_hat, K), rel_tol=1e-9)
        ok &= abs(-c1 * K + c2 * math.sqrt(K) + c_hat) <= 1e-9 * max(1.0, c1 * K)
        ok &= abs(c1 * T - c2 * math.sqrt(T) - (c_hat + K)) <= 1e-9 * max(1.0, c1 * T)
    _report("5 closed-form roots vs bisection oracle", ok)


def test_criterion_6_algorithm_fidelity():
    phi = np.array([1.0])
    s0 = TunerState(theta=[0.0], vartheta=[0.0])
    g_mu0 = Gains(gamma=0.04, beta=0.5, mu=0.0, theta0=[0.0], mode="unrestricted")
    s1 = hot_step(s0, phi, 1.0, g_mu0)
    ok = (abs(s1.theta[0] - 0.005) <= 1e-12
          and abs(s1.vartheta[0] - 0.0199) <= 1e-12)
    g_mu01 = Gains(gamma=0.04, beta=0.5, mu=0.1, theta0=[0.0])
    s2 = hot_step(s0, phi, 1.0, g_mu01)
    ok = ok and (abs(s2.theta[0] - 0.005) <= 1e-12
                 and abs(s2.vartheta[0] - 0.01988) <= 1e-12)
    _report("6 algorithm fidelity (hand-computed steps)", ok)


def test_criterion_7_noise_conformance(cfg):
    rng = np.random.default_rng(777)
    ok = True
    for noise in noise_kinds():
        for _ in range(100):
            history = TunerState(theta=rng.normal(size=2) * 3,
                                 vartheta=rng.normal(size=2) * 3)
            x = np.atleast_1d(noise.conditional_mean(history.theta, history.vartheta)
                              + noise.innovation(rng.uniform(size=100_000)))
            if x.size == 1:  # zero kind collapses to a scalar draw path
                x = np.zeros(100_000)
            if np.ptp(x) > 0:
                stderr = x.std(ddof=1) / math.sqrt(x.size)
                m2 = np.mean(x ** 2)
                m2_stderr = np.std(x ** 2, ddof=1) / math.sqrt(x.size)
            else:
                stderr = m2 = m2_stderr = 0.0
            ok &= abs(x.mean()) <= cfg.d_max + Z * stderr
            ok &= m2 <= cfg.sigma_max ** 2 + Z * m2_stderr
            if not ok:
                break
    _report("7 noise conformance (conditional moments)", ok)


def test_criterion_8_determinism(tmp_path):
    d = reference_dict(horizon=1000, ensemble=50, resamples=1000)
    cfg_path = tmp_path / "ref.json"
    cfg_path.write_text(json.dumps(d))
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert cli_main(["verify", str(cfg_path), "--check", "all",
                     "--out", str(out1)]) == 0
    assert cli_main(["verify", str(cfg_path), "--check", "all",
                     "--out", str(out2)]) == 0
    p1 = json.loads((out1 / "verify_all.json").read_text())
    p2 = json.loads((out2 / "verify_all.json").read_text())
    p1.pop("generated_at"), p2.pop("generated_at")
    ok = json.dumps(p1, sort_keys=True) == json.dumps(p2, sort_keys=True)
    _report("8 determinism of verify reports", ok)
