import contextlib
import csv
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import hot_tuner
from hot_tuner import __version__, cli, lyapunov, model
from hot_tuner.cli import _jsonable, _write_trace_csv, main
from hot_tuner.config import RunConfig, load_config
from hot_tuner import verify

from conftest import reference_dict


def write_config(tmp_path, d, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(d))
    return str(path)


def small_dict(**overrides):
    base = dict(horizon=100, ensemble=3, resamples=500)
    base.update(overrides)
    return reference_dict(**base)


class TestSimulate:
    def test_writes_traces_and_summary(self, tmp_path):
        cfg_path = write_config(tmp_path, small_dict())
        out = str(tmp_path / "out")
        assert main(["simulate", cfg_path, "--out", out]) == 0
        assert sorted(f for f in os.listdir(out) if f.startswith("trace_")) == [
            "trace_0.csv", "trace_1.csv", "trace_2.csv"]
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["version"] == __version__
        assert summary["config"]["horizon"] == 100
        assert "base_seed" in summary
        assert len(summary["sup_V_per_trial"]) == 3
        assert summary["constants"]["c1"] == pytest.approx(0.00125)

    def test_csv_roundtrip_exact(self, tmp_path, monkeypatch):
        # chunks of 7 steps, so the per-block e_y and phi_norm cross chunk
        # boundaries; a start far from theta* puts V above K for some rows
        monkeypatch.setattr(verify, "CHUNK_STEPS", 7)
        cfg_path = write_config(tmp_path, small_dict(ensemble=1, horizon=200,
                                                     vartheta0=[300.0, -300.0]))
        out = str(tmp_path / "out")
        assert main(["simulate", cfg_path, "--out", out]) == 0
        cfg = load_config(cfg_path)
        trace = verify.run_trajectory(cfg, cfg.trial_seed(0))
        vhat = lyapunov.clipped_V(trace.V, cfg.constants().K)
        assert 0 < np.count_nonzero(vhat) < vhat.size
        with open(os.path.join(out, "trace_0.csv"), newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == cfg.horizon + 1
        columns = {"V": trace.V, "Vhat": vhat, "e_y": trace.e_y, "eta": trace.eta,
                   "phi_norm": trace.phi_norm,
                   **{f"{name}_{i}": getattr(trace, name)[:, i]
                      for name in ("theta", "vartheta") for i in range(cfg.dimension)}}
        assert sorted(rows[0]) == sorted(["k", *columns])
        for name, want in columns.items():
            got = np.array([float(row[name]) for row in rows])
            assert np.array_equal(got, want, equal_nan=True), name  # bitwise round-trip
        for name in ("e_y", "eta", "phi_norm"):
            assert np.isnan(columns[name][-1]) and np.isfinite(columns[name][:-1]).all()

    def test_traces_equal_single_trial_runs(self, tmp_path):
        # one lockstep pass over all trials writes what each trial gives alone
        cfg_path = write_config(tmp_path, small_dict(
            horizon=300, regressor={"kind": "iid_bounded", "bound": 2.0},
            noise={"kind": "state_dependent_bias", "d_amplitude": 0.1, "sd": 0.45}))
        out = tmp_path / "out"
        assert main(["simulate", cfg_path, "--out", str(out), "--trials", "3"]) == 0
        cfg = load_config(cfg_path)
        K = cfg.constants().K
        for t in range(3):
            ref = tmp_path / f"ref_{t}.csv"
            _write_trace_csv(str(ref), verify.run_trajectory(cfg, cfg.trial_seed(t)), K)
            assert (out / f"trace_{t}.csv").read_bytes() == ref.read_bytes()

    def test_gamma_violation_names_field(self, tmp_path, capsys):
        d = small_dict(gains={"gamma": 0.05, "beta": 0.5, "mu": 0.1})
        cfg_path = write_config(tmp_path, d)
        assert main(["simulate", cfg_path, "--out", str(tmp_path / "o")]) == 2
        assert "gamma" in capsys.readouterr().err

    def test_zero_horizon_rejected(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, small_dict(horizon=0))
        assert main(["simulate", cfg_path, "--out", str(tmp_path / "o")]) == 2
        assert "horizon" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path):
        assert main(["simulate", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("command", ["simulate", "verify"])
    def test_negative_seed_is_usage_error(self, tmp_path, capsys, command):
        cfg_path = write_config(tmp_path, small_dict(base_seed=-1))
        assert main([command, cfg_path, "--out", str(tmp_path / "a")]) == 2
        assert "base_seed" in capsys.readouterr().err
        cfg_path = write_config(tmp_path, small_dict(), name="ok.json")
        assert main([command, cfg_path, "--out", str(tmp_path / "b"),
                     "--seed", "-1"]) == 2
        assert "base_seed" in capsys.readouterr().err

    def test_divergence_exit_code(self, tmp_path, capsys):
        d = small_dict(mode="unrestricted",
                       gains={"gamma": 1e8, "beta": 0.5, "mu": 0.9},
                       theta0=[5.0, 5.0], ensemble=1)
        cfg_path = write_config(tmp_path, d)
        # gamma > 1/16 warns, and -W error must not turn that into exit 4
        for action in ("default", "error"):
            with warnings.catch_warnings():
                warnings.simplefilter(action)
                assert main(["simulate", cfg_path, "--out", str(tmp_path / action)]) == 3
            err = capsys.readouterr().err
            assert err.startswith("warning: gamma > 1/16: ")
            assert "step" in err and "gamma" in err

    @pytest.mark.parametrize("alpha", [None, 0.001], ids=["alpha-absent", "alpha-0.001"])
    def test_plot_data_with_degenerate_constants_names_gains(self, tmp_path, capsys, alpha):
        # mu = 0 leaves no rate envelope: a usage error before --out is made
        d = small_dict(mode="unrestricted", gains={"gamma": 0.04, "beta": 0.5, "mu": 0.0})
        if alpha is not None:
            d["alpha"] = alpha
        out = tmp_path / "out"
        assert main(["simulate", write_config(tmp_path, d), "--out", str(out),
                     "--emit-plot-data"]) == 2
        assert "gains" in capsys.readouterr().err
        assert not out.exists()

    def test_emit_plot_data(self, tmp_path):
        cfg_path = write_config(tmp_path, small_dict())
        out = str(tmp_path / "out")
        assert main(["simulate", cfg_path, "--out", out,
                     "--emit-plot-data"]) == 0
        with open(os.path.join(out, "plotdata.csv"), newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert set(rows[0]) == {"k", "mean_Vhat", "envelope"}


class TestVerifyCommand:
    def test_verify_all_passes_on_reference(self, tmp_path):
        cfg_path = write_config(tmp_path, small_dict(horizon=500, ensemble=20))
        out = str(tmp_path / "out")
        assert main(["verify", cfg_path, "--check", "all", "--out", out]) == 0
        payload = json.loads((tmp_path / "out" / "verify_all.json").read_text())
        assert payload["passed"] is True
        assert set(payload["checks"]) == {"decrement", "bound", "rate"}

    def test_verify_decrement_zero_noise(self, tmp_path):
        d = small_dict(noise={"kind": "zero"}, d_max=0.0, sigma_max=0.0)
        cfg_path = write_config(tmp_path, d)
        out = str(tmp_path / "out")
        assert main(["verify", cfg_path, "--check", "decrement", "--out", out]) == 0
        payload = json.loads(
            (tmp_path / "out" / "verify_decrement.json").read_text())
        assert all(p["stderr"] == 0.0
                   for p in payload["checks"]["decrement"]["probes"])

    def test_invalid_alpha_is_usage_error(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, small_dict(alpha=0.5))
        assert main(["verify", cfg_path, "--check", "rate",
                     "--out", str(tmp_path / "o")]) == 2
        assert "alpha" in capsys.readouterr().err

    @pytest.mark.parametrize("overrides", [
        dict(horizon=300),
        dict(horizon=300, regressor={"kind": "iid_bounded", "bound": 2.0},
             noise={"kind": "state_dependent_bias", "d_amplitude": 0.1, "sd": 0.45}),
        dict(horizon=30),  # shorter than the harvest run, which then runs alone
    ])
    def test_all_reports_the_decrement_check_alone(self, tmp_path, overrides):
        # --check all harvests the probe states from trial 0 of its ensemble
        cfg_path = write_config(tmp_path, small_dict(**overrides))
        decrement = {}
        for check in ("decrement", "all"):
            out = tmp_path / check
            main(["verify", cfg_path, "--check", check, "--out", str(out)])
            payload = json.loads((out / f"verify_{check}.json").read_text())
            decrement[check] = payload["checks"]["decrement"]
        assert decrement["all"] == decrement["decrement"]

    def test_determinism_modulo_timestamp(self, tmp_path):
        cfg_path = write_config(tmp_path, small_dict(horizon=300, ensemble=10))
        out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
        assert main(["verify", cfg_path, "--check", "all", "--out", out1]) == 0
        assert main(["verify", cfg_path, "--check", "all", "--out", out2]) == 0
        p1 = json.loads((tmp_path / "a" / "verify_all.json").read_text())
        p2 = json.loads((tmp_path / "b" / "verify_all.json").read_text())
        p1.pop("generated_at"), p2.pop("generated_at")
        assert json.dumps(p1, sort_keys=True) == json.dumps(p2, sort_keys=True)


class TestInvalidAlpha:
    @pytest.mark.parametrize("command", [
        ["constants"], ["simulate", "--out", "o"], ["verify", "--check", "decrement", "--out", "o"],
    ], ids=["constants", "simulate", "verify-decrement"])
    def test_alpha_at_or_above_c1_is_usage_error(self, tmp_path, capsys, monkeypatch, command):
        monkeypatch.chdir(tmp_path)
        cfg_path = write_config(tmp_path, small_dict(alpha=0.5))
        assert main([command[0], cfg_path] + command[1:]) == 2
        captured = capsys.readouterr()
        assert "config field 'alpha'" in captured.err
        assert "Traceback" not in captured.err and captured.out == ""
        assert not os.path.exists(tmp_path / "o")


HERE = os.path.dirname(__file__)
# the benchmark's two shrunk ops, and iid_bounded x state_dependent_bias at
# N = 1, 3 and 8 (recorded at 27c19a1), to pin the kernel's other fold lengths
GOLDEN_REPORTS = {
    "verify-reference": os.path.join(HERE, "..", "perfbench", "reference",
                                     "verify-reference.shrunk.json"),
    "verify-long-random": os.path.join(HERE, "..", "perfbench", "reference",
                                       "verify-long-random.shrunk.json"),
    **{name: os.path.join(HERE, "golden", f"{name}.json")
       for name in ("n1-iid-sdb", "n3-iid-sdb", "n8-iid-sdb")},
}


class TestGoldenReports:
    @pytest.mark.parametrize("workload", list(GOLDEN_REPORTS))
    def test_shrunk_benchmark_report_is_exact(self, tmp_path, workload):
        # recorded before the kernel changes they guard; every number must
        # come out bit for bit, not merely to a tolerance
        with open(GOLDEN_REPORTS[workload]) as fh:
            golden = json.load(fh)
        assert (golden["config"]["horizon"], golden["config"]["ensemble"]) == (200, 4)
        cfg_path = write_config(tmp_path, golden["config"])
        out = tmp_path / "out"
        assert main(["verify", cfg_path, "--check", "all", "--out", str(out),
                     "--seed", "20240613"]) == 0
        report = json.loads((out / "verify_all.json").read_text())
        report.pop("generated_at")
        assert report == golden


with open(os.path.join(HERE, "golden", "simulate-digests.json")) as fh:
    SIMULATE_DIGESTS = json.load(fh)


def output_digest(path):
    """sha256 of a file's bytes, less a JSON report's `generated_at` line."""
    with open(path, "rb") as fh:
        lines = [line for line in fh.read().splitlines(keepends=True)
                 if not line.startswith(b'  "generated_at": ')]
    return hashlib.sha256(b"".join(lines)).hexdigest()


class TestGoldenSimulate:
    @pytest.mark.parametrize("case", list(SIMULATE_DIGESTS))
    def test_simulate_outputs_are_exact(self, tmp_path, case):
        # 4 trials x 300 steps, recorded before the trace fields they guard
        # were dropped: every trace column, summary.json and plotdata.csv
        golden = SIMULATE_DIGESTS[case]
        cfg_path = write_config(tmp_path, golden["config"])
        out = tmp_path / "out"
        assert main(["simulate", cfg_path, "--out", str(out), "--trials", "4",
                     "--emit-plot-data"]) == 0
        assert {name: output_digest(out / name) for name in os.listdir(out)} == golden["digests"]


class TestMalformedNumbers:
    @pytest.mark.parametrize("field, overrides", [
        ("d_max", dict(d_max=float("nan"))),
        ("gains.gamma", dict(gains={"gamma": float("nan"), "beta": 0.5, "mu": 0.1})),
        ("regressor.omega", dict(regressor={"kind": "sinusoid", "amplitude": [1.0, 1.0],
                                            "omega": float("nan")})),
        ("dimension", dict(dimension=True)),
        ("theta_star", dict(theta_star=[float("nan"), 1.0])),
        ("noise.sd", dict(noise={"kind": "biased_gaussian", "bias": 0.1,
                                 "sd": float("inf")})),
        ("ensemble", dict(ensemble=True)),
        ("regressor.levels", dict(regressor={"kind": "piecewise_constant", "bound": 2.0,
                                             "dwell": 5, "levels": []})),
        ("gains.beta", dict(gains={"gamma": 0.04, "beta": 1.5, "mu": 0.1})),
        ("gains.mu", dict(gains={"gamma": 0.04, "beta": 0.5, "mu": 1.5})),
        ("gains.mu", dict(mode="unrestricted", gains={"gamma": 0.04, "beta": 0.5, "mu": 1.0})),
        ("gains.gamma", dict(gains={"gamma": 0.05, "beta": 0.5, "mu": 0.1})),  # > gamma_max
        # finite inputs whose derived bounds or constants overflow a float
        ("noise.halfwidth", dict(noise={"kind": "uniform_biased", "center": 0.0,
                                        "halfwidth": 1e200})),
        ("noise.sd", dict(noise={"kind": "biased_gaussian", "bias": 0.0, "sd": 1e200})),
        ("regressor.amplitude", dict(regressor={"kind": "sinusoid", "amplitude": [1e200, 1e200],
                                      "omega": 0.5})),
        ("theta_star", dict(theta_star=[1e300, 0.0])),
        ("(constants)", dict(d_max=1e300)),
        ("(constants)", dict(theta_star=[1e154, 0.0])),  # c3 alone overflows
        ("(constants)", dict(theta_star=[1.3e154, 0.0], theta0=[-1.3e154, 0.0])),
        ("(constants)", dict(gains={"gamma": 1e-300, "beta": 0.5, "mu": 0.1})),  # c1**2 == 0
        ("alpha", dict(gains={"gamma": 1e-148, "beta": 0.5, "mu": 0.1}, noise={"kind": "zero"},
                       d_max=0.0, sigma_max=0.0,
                       alpha=(10.0 / 16.0) * 0.1 * 1e-148 * 0.5 * (1.0 - 1e-13))),
        ("dimension", dict(dimension=0)),
        # a range check of a regressor or noise kind names its own key
        ("regressor.phi_bound", dict(regressor={"kind": "constant", "value": [3.0, 4.0],
                                                "phi_bound": 1.0})),
        ("regressor.phi_bound", dict(regressor={"kind": "sinusoid", "amplitude": [1.0, 1.0],
                                                "omega": 0.5, "phi_bound": 1.0})),
        ("regressor.amplitude", dict(regressor={"kind": "sinusoid", "amplitude": [-1.0, 1.0],
                                                "omega": 0.5})),
        ("regressor.bound", dict(regressor={"kind": "iid_bounded", "bound": -1.0})),
        ("regressor.bound", dict(regressor={"kind": "piecewise_constant", "bound": -1.0,
                                            "dwell": 5})),
        ("regressor.dwell", dict(regressor={"kind": "piecewise_constant", "bound": 2.0,
                                            "dwell": 0})),
        ("regressor.levels", dict(regressor={"kind": "piecewise_constant", "bound": 1.0,
                                             "dwell": 5, "levels": [[3.0, 4.0]]})),
        ("noise.sd", dict(noise={"kind": "biased_gaussian", "bias": 0.1, "sd": -0.1})),
        ("noise.sd", dict(noise={"kind": "state_dependent_bias", "d_amplitude": 0.1,
                                 "sd": -0.1})),
        ("noise.truncation", dict(noise={"kind": "biased_gaussian", "bias": 0.1, "sd": 0.48,
                                         "truncation": 0.0})),
        ("noise.halfwidth", dict(noise={"kind": "uniform_biased", "center": 0.1,
                                        "halfwidth": -1.0})),
        ("noise.d_amplitude", dict(noise={"kind": "state_dependent_bias", "d_amplitude": -0.1,
                                          "sd": 0.45})),
        # a bound whose squared norm overflows would clip every hashed row to 0
        ("regressor.bound", dict(regressor={"kind": "iid_bounded", "bound": 1e200})),
        ("regressor.bound", dict(regressor={"kind": "piecewise_constant", "bound": 1e200,
                                            "dwell": 5})),
        # a dwell past int64 cannot divide the step numbers
        ("regressor.dwell", dict(regressor={"kind": "piecewise_constant", "bound": 2.0,
                                            "dwell": 2 ** 63})),
        # omega * k overflows within the decrement probe's harvest, past the horizon
        ("regressor.omega", dict(horizon=2, regressor={"kind": "sinusoid",
                                                       "amplitude": [1.0, 1.0], "omega": 1e308})),
        # a noise parameter whose square overflows would make sigma_max inf
        ("noise.center", dict(noise={"kind": "uniform_biased", "center": 1e200,
                                     "halfwidth": 0.1})),
        ("noise.bias", dict(noise={"kind": "biased_gaussian", "bias": 1e200, "sd": 0.1})),
        ("noise.d_amplitude", dict(noise={"kind": "state_dependent_bias", "d_amplitude": 1e200,
                                          "sd": 0.1})),
        ("noise.sd", dict(noise={"kind": "state_dependent_bias", "d_amplitude": 0.1,
                                 "sd": 1e200})),
        # finite squares whose sum overflows: sigma_max is inf, and so are the constants
        ("(constants)", dict(noise={"kind": "uniform_biased", "center": 1.3e154,
                                    "halfwidth": 1.3e154}, d_max=None, sigma_max=None)),
        # the run sizes the verify entry points take from the config
        ("horizon", dict(horizon=0)),
        ("ensemble", dict(ensemble=0)),
        ("resamples", dict(resamples=99)),
        # a declared bound below 0 fails, even within 1e-12 of a zero analytic bound
        ("d_max", dict(noise={"kind": "zero"}, d_max=-1e-13, sigma_max=0.0)),
        ("sigma_max", dict(noise={"kind": "zero"}, d_max=0.0, sigma_max=-5e-13)),
    ])
    def test_usage_error_names_field(self, tmp_path, capsys, field, overrides):
        cfg_path = write_config(tmp_path, small_dict(**overrides))
        assert main(["verify", cfg_path, "--out", str(tmp_path / "o")]) == 2
        assert f"config field '{field}'" in capsys.readouterr().err

    @pytest.mark.parametrize("overrides, message", [
        (dict(gains={"gamma": 0.04, "beta": 1.5, "mu": 0.1}),
         "config field 'gains.beta': beta must lie in (0, 1)"),
        (dict(noise={"kind": "biased_gaussian", "bias": 0.1, "sd": -1}),
         "config field 'noise.sd': sd must be >= 0"),
    ], ids=["gains.beta", "noise.sd"])
    def test_model_error_says_config_field_once(self, tmp_path, capsys, overrides, message):
        cfg_path = write_config(tmp_path, small_dict(**overrides))
        assert main(["verify", cfg_path, "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("overrides, message", [
        (dict(gains=None), "config field 'gains': expected an object, got null"),
        (dict(regressor=[]), "config field 'regressor': expected an object, got an array"),
        (dict(dimension=None), "config field 'dimension': expected an integer, got null"),
        (dict(horizon="5"), "config field 'horizon': expected an integer, got a string"),
        (dict(ensemble=True), "config field 'ensemble': expected an integer, got a boolean"),
        (dict(base_seed="5"),
         "config field 'base_seed': must be a non-negative integer, got a string"),
        # a finite number of the wrong kind is named by its value
        (dict(resamples=1.5), "config field 'resamples': expected an integer, got 1.5"),
        (dict(gains=5), "config field 'gains': expected an object, got 5"),
    ], ids=["gains-null", "regressor-array", "dimension-null", "horizon-string",
            "ensemble-boolean", "base_seed-string", "resamples-float", "gains-number"])
    def test_wrong_json_type_is_named_in_json_terms(self, tmp_path, capsys, overrides, message):
        cfg_path = write_config(tmp_path, small_dict(**overrides))
        assert main(["verify", cfg_path, "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_nan_analytic_bound_names_its_key(self, tmp_path, capsys, monkeypatch):
        # no declared bound passes a NaN analytic one
        monkeypatch.setattr(model.UniformBiased, "sigma_max", property(lambda self: math.nan))
        cfg_path = write_config(tmp_path, small_dict(
            noise={"kind": "uniform_biased", "center": 0.1, "halfwidth": 0.3}))
        assert main(["verify", cfg_path, "--out", str(tmp_path / "o")]) == 2
        assert "config field 'sigma_max'" in capsys.readouterr().err

    def test_huge_omega_that_fits_still_runs(self, tmp_path, capsys):
        # at 1e300, omega * k stays finite over every step drawn, and the
        # checks run without a warning line
        cfg_path = write_config(tmp_path, small_dict(
            regressor={"kind": "sinusoid", "amplitude": [1.0, 1.0], "omega": 1e300}))
        assert main(["verify", cfg_path, "--check", "all",
                     "--out", str(tmp_path / "o")]) in (0, 1)
        assert "warning" not in capsys.readouterr().err


class TestUnknownKeys:
    @pytest.mark.parametrize("field, overrides", [
        ("ensmble", dict(ensmble=5)),
        ("gains.gama", dict(gains={"gamma": 0.04, "beta": 0.5, "mu": 0.1, "gama": 0.01})),
        ("regressor.omgea", dict(regressor={"kind": "sinusoid", "amplitude": [1.0, 1.0],
                                            "omega": 0.5, "omgea": 0.4})),
        ("regressor.phi_bound", dict(regressor={"kind": "iid_bounded", "bound": 2.0,
                                                "phi_bound": 2.0})),
        ("noise.truncaton", dict(noise={"kind": "biased_gaussian", "bias": 0.1, "sd": 0.48,
                                        "truncaton": 2.0})),
        ("noise.sd", dict(noise={"kind": "zero", "sd": 0.1})),
        # a kind's dimension is always the config's
        ("regressor.dimension", dict(regressor={"kind": "iid_bounded", "bound": 2.0,
                                                "dimension": 2})),
    ])
    def test_usage_error_names_key(self, tmp_path, capsys, field, overrides):
        cfg_path = write_config(tmp_path, small_dict(**overrides))
        assert main(["verify", cfg_path, "--out", str(tmp_path / "o")]) == 2
        assert f"config field '{field}': unknown key" in capsys.readouterr().err

    def test_unknown_kind_is_named_before_its_keys(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, small_dict(noise={"kind": "laplace", "scale": 1.0}))
        assert main(["verify", cfg_path, "--out", str(tmp_path / "o")]) == 2
        assert "config field 'noise.kind': unknown kind 'laplace'" in capsys.readouterr().err


class TestTopLevelNulls:
    @pytest.mark.parametrize("key, read, default", [
        ("base_seed", lambda cfg: cfg.base_seed, 0),
        ("mode", lambda cfg: cfg.gains.mode, "certified"),
        ("c2_variant", lambda cfg: cfg.c2_variant, "theorem"),
    ], ids=["base_seed", "mode", "c2_variant"])
    def test_null_loads_as_omitted(self, key, read, default):
        omitted = small_dict()
        del omitted[key]
        null = RunConfig.from_dict(dict(omitted, **{key: None}))
        assert repr(null) == repr(RunConfig.from_dict(omitted))
        assert read(null) == default


class TestKindSpecs:
    def test_null_phase_is_the_default_phase(self):
        spec = {"kind": "sinusoid", "amplitude": [1.0, 2.0], "omega": 0.5}
        omitted = RunConfig.from_dict(small_dict(regressor=spec)).regressor
        null = RunConfig.from_dict(small_dict(regressor=dict(spec, phase=None))).regressor
        assert null.phase.tolist() == omitted.phase.tolist() == [0.0, 0.0]
        assert (null.amplitude.tolist(), null.omega, null.phi_bound) == (
            omitted.amplitude.tolist(), omitted.omega, omitted.phi_bound)

    @pytest.mark.parametrize("truncation, bias, overrides, command", [
        (1e-20, 0.1, {}, ["constants"]),
        (1e-20, 0.1, {}, ["verify", "--check", "decrement"]),
        (1e-8, 0.0, dict(d_max=None, sigma_max=None), ["constants"]),
        (1e308, 0.1, dict(d_max=None, sigma_max=None), ["verify", "--check", "all"]),
    ])
    def test_extreme_truncation_runs_on_finite_bounds(self, tmp_path, capsys, truncation,
                                                       bias, overrides, command):
        cfg_path = write_config(tmp_path, small_dict(noise={
            "kind": "biased_gaussian", "bias": bias, "sd": 0.48, "truncation": truncation},
            **overrides))
        out = ["--out", str(tmp_path / "o")] if command[0] == "verify" else []
        assert main([command[0], cfg_path, *command[1:], *out]) == 0, capsys.readouterr().err
        assert math.isfinite(load_config(cfg_path).sigma_max)


def strict_json(path):
    """The JSON file at path; NaN and Infinity tokens raise ValueError."""
    def reject(token):
        raise ValueError(f"{path}: non-JSON constant {token}")
    with open(path, encoding="utf-8") as fh:
        return json.load(fh, parse_constant=reject)


class TestJson:
    def test_nan_becomes_null_inside_arrays_too(self):
        payload = {"scalar": float("nan"), "array": np.array([1.5, np.nan, np.inf]),
                   "nested": [np.array([[np.nan], [2.0], [-np.inf]])], "n": np.float64(np.nan),
                   "inf": float("inf"), "neg": np.float64(-np.inf)}
        assert json.dumps(_jsonable(payload), allow_nan=False, sort_keys=True) == (
            '{"array": [1.5, null, null], "inf": null, "n": null, "neg": null, '
            '"nested": [[[null], [2.0], [null]]], "scalar": null}')

    def test_finite_run_whose_V_overflows_writes_strict_json(self, tmp_path, capsys):
        # the state stays finite while V overflows to inf: the checks fail,
        # simulate succeeds, and neither warns (but of gamma > 1/16) nor
        # writes Infinity
        cfg_path = write_config(tmp_path, reference_dict(
            mode="unrestricted", gains={"gamma": 10.0, "beta": 0.5, "mu": 0.5},
            noise={"kind": "zero"}, d_max=0.0, sigma_max=0.0, horizon=465, ensemble=3,
            resamples=100))
        assert main(["verify", cfg_path, "--check", "all",
                     "--out", str(tmp_path / "v")]) == 1
        assert main(["simulate", cfg_path, "--trials", "2",
                     "--out", str(tmp_path / "s")]) == 0
        assert [line for line in capsys.readouterr().err.splitlines()
                if not line.startswith("warning: gamma > 1/16: ")] == []
        report = strict_json(tmp_path / "v" / "verify_all.json")
        assert report["checks"]["bound"]["max_sup_V"] is None
        assert not report["passed"]
        overflowed = [p for p in report["checks"]["decrement"]["probes"]
                      if p["mean_V_next"] is None]
        assert overflowed and all(p["stderr"] is None for p in overflowed)
        summary = strict_json(tmp_path / "s" / "summary.json")
        assert summary["sup_V_per_trial"] == [None, None]


class TestConstantsCommand:
    def test_reference_values(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, small_dict())
        assert main(["constants", cfg_path]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["c1"] == pytest.approx(0.00125)
        assert payload["c2"] == pytest.approx(19609 / 6144 * 0.1)
        assert payload["gamma_max"] == pytest.approx(0.75 / 16.61875)
        assert payload["K"] > 0 and payload["T"] >= payload["K"]
        assert "theorem4_radius" in payload

    def test_noise_free_perfect_init_all_zero(self, tmp_path, capsys):
        d = small_dict(noise={"kind": "zero"}, d_max=0.0, sigma_max=0.0,
                       theta0=[1.0, -0.5], vartheta0=[1.0, -0.5])
        cfg_path = write_config(tmp_path, d)
        assert main(["constants", cfg_path]) == 0
        payload = json.loads(capsys.readouterr().out)
        for key in ("c2", "c3", "c4", "c5", "K", "T"):
            assert payload[key] == 0.0

    def test_missing_file(self, tmp_path):
        assert main(["constants", str(tmp_path / "absent.json")]) == 2

    def test_writes_file_with_out(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, small_dict())
        out = str(tmp_path / "c")
        assert main(["constants", cfg_path, "--out", out]) == 0
        assert os.path.exists(os.path.join(out, "constants.json"))


class TestExitCodes:
    @pytest.mark.parametrize("command", [
        ["constants"], ["simulate"], ["verify", "--check", "decrement"],
    ], ids=["constants", "simulate", "verify-decrement"])
    def test_out_that_cannot_be_created_exits_2(self, tmp_path, capsys, command):
        cfg_path = write_config(tmp_path, small_dict())
        existing = tmp_path / "a-file"
        existing.write_text("")
        assert main([command[0], cfg_path, *command[1:], "--out", str(existing)]) == 2
        err = capsys.readouterr().err
        assert f"--out {existing}" in err and "Traceback" not in err

    def test_constants_out_that_cannot_be_created_prints_nothing(self, tmp_path, capsys):
        # the payload goes to stdout only once --out holds it
        existing = tmp_path / "a-file"
        existing.write_text("")
        cfg_path = write_config(tmp_path, small_dict())
        assert main(["constants", cfg_path, "--out", str(existing)]) == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("command", ["constants", "verify"])
    def test_closed_stdout_exits_4_without_naming_out(self, tmp_path, capsys, command):
        class ClosedStdout(io.TextIOBase):
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

        out = tmp_path / "out"
        extra = ["--check", "decrement", "--out", str(out)] if command == "verify" else []
        with contextlib.redirect_stdout(ClosedStdout()):
            code = main([command, write_config(tmp_path, small_dict()), *extra])
        err = capsys.readouterr().err
        assert code == 4
        assert err.startswith("error: ") and err.count("\n") == 1 and "--out" not in err
        assert (out / "verify_decrement.json").exists() is (command == "verify")

    def test_unexpected_exception_exits_4_on_one_line(self, tmp_path, capsys, monkeypatch):
        def broken(*args, **kwargs):
            raise RuntimeError("first line\nsecond line")
        monkeypatch.setattr(lyapunov, "constants", broken)
        assert main(["constants", write_config(tmp_path, small_dict())]) == 4
        err = capsys.readouterr().err
        assert err.startswith("error: internal error: RuntimeError") and err.count("\n") == 1

    @pytest.mark.parametrize("check", ["bound", "rate", "all"])
    def test_degenerate_constants_exit_2_and_create_no_out(self, tmp_path, capsys, check):
        cfg_path = write_config(tmp_path, small_dict(
            mode="unrestricted", gains={"gamma": 0.04, "beta": 0.5, "mu": 0.0}))
        out = tmp_path / "out"
        assert main(["verify", cfg_path, "--check", check, "--out", str(out)]) == 2
        assert "degenerate constants" in capsys.readouterr().err
        assert not out.exists()

    def test_degenerate_constants_leave_vhat_nan_and_probe_no_sphere(self, tmp_path):
        # mu = 0: K and T are NaN, so every Vhat is NaN and the decrement
        # probe starts from the harvested states alone
        cfg_path = write_config(tmp_path, small_dict(
            mode="unrestricted", gains={"gamma": 0.04, "beta": 0.5, "mu": 0.0}))
        assert main(["simulate", cfg_path, "--trials", "1", "--out", str(tmp_path / "s")]) == 0
        with open(tmp_path / "s" / "trace_0.csv", newline="") as fh:
            vhat = np.array([float(row["Vhat"]) for row in csv.DictReader(fh)])
        assert vhat.size == 101 and np.isnan(vhat).all()
        assert main(["verify", cfg_path, "--check", "decrement",
                     "--out", str(tmp_path / "v")]) == 0
        payload = json.loads((tmp_path / "v" / "verify_decrement.json").read_text())
        labels = [p["label"] for p in payload["checks"]["decrement"]["probes"]]
        assert len(labels) == 50 and all(label.startswith("traj[") for label in labels)

    @pytest.mark.parametrize("command", [
        ["constants"], ["verify", "--check", "decrement"],
    ], ids=["constants", "verify-decrement"])
    def test_gamma_above_one_sixteenth_warns_on_one_line(self, tmp_path, capsys, command):
        cfg_path = write_config(tmp_path, small_dict(
            mode="unrestricted", gains={"gamma": 0.1, "beta": 0.5, "mu": 0.1}))
        for action in ("default", "error"):  # the interpreter's filters do not matter
            with warnings.catch_warnings():
                warnings.simplefilter(action)
                assert main([command[0], cfg_path, *command[1:],
                             "--out", str(tmp_path / action)]) == 0
            err = capsys.readouterr().err
            assert err.startswith("warning: gamma > 1/16: ") and err.count("\n") == 1

    def test_ignored_deprecation_warning_prints_nothing(self, tmp_path, capsys, monkeypatch):
        # only "error" filters turn into printing: the interpreter's ignore of
        # DeprecationWarning holds beside -W error::UserWarning
        def command(args):
            warnings.warn("deprecated", DeprecationWarning)
            return 0

        monkeypatch.setattr(cli, "cmd_constants", command)
        with warnings.catch_warnings():
            warnings.resetwarnings()
            warnings.simplefilter("ignore", DeprecationWarning)
            warnings.simplefilter("error", UserWarning)
            assert main(["constants", write_config(tmp_path, small_dict())]) == 0
        assert capsys.readouterr().err == ""

    @staticmethod
    def _python(code, *args):
        src = os.path.dirname(os.path.dirname(hot_tuner.__file__))
        return subprocess.run([sys.executable, "-c", code, *args], check=True,
                              env={**os.environ, "PYTHONPATH": src},
                              capture_output=True, text=True).stdout.splitlines()

    def test_cli_import_leaves_scipy_stats_out(self, tmp_path):
        # nor scipy.special, through a whole verify, when the noise is not biased_gaussian
        cfg_path = write_config(tmp_path, small_dict(
            horizon=200, ensemble=4, regressor={"kind": "iid_bounded", "bound": 2.0},
            noise={"kind": "state_dependent_bias", "d_amplitude": 0.1, "sd": 0.45}))
        code = ("import sys, hot_tuner.cli\n"
                "def loaded(): return [m for m in ('scipy.stats', 'scipy.special') if m in sys.modules]\n"
                "print(loaded())\n"
                "rc = hot_tuner.cli.main(['verify', sys.argv[1], '--check', 'all', '--out', sys.argv[2]])\n"
                "print(rc, loaded())")
        out = self._python(code, cfg_path, str(tmp_path / "out"))
        assert (out[0], out[-1]) == ("[]", "0 []")

    def test_biased_gaussian_config_loads_scipy_special(self, tmp_path):
        code = ("import sys\n"
                "from hot_tuner.config import load_config\n"
                "print('scipy.special' in sys.modules)\n"
                "load_config(sys.argv[1])\n"
                "print('scipy.special' in sys.modules)")
        assert self._python(code, write_config(tmp_path, small_dict())) == ["False", "True"]


class TestThreadCap:
    def test_thread_env_respected(self, tmp_path, monkeypatch):
        monkeypatch.setenv("HOT_TUNER_THREADS", "1")
        cfg_path = write_config(tmp_path, small_dict())
        out1 = str(tmp_path / "a")
        assert main(["simulate", cfg_path, "--out", out1]) == 0
        monkeypatch.setenv("HOT_TUNER_THREADS", "4")
        out2 = str(tmp_path / "b")
        assert main(["simulate", cfg_path, "--out", out2]) == 0
        for t in range(3):
            a = (tmp_path / "a" / f"trace_{t}.csv").read_bytes()
            b = (tmp_path / "b" / f"trace_{t}.csv").read_bytes()
            assert a == b
