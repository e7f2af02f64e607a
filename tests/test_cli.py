import contextlib
import csv
import hashlib
import importlib
import io
import json
import math
import mmap
import os
import signal
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest

import hot_tuner
from hot_tuner import __version__, cli, lyapunov, model
from hot_tuner.cli import _jsonable, _write_trace_csv, main
from hot_tuner.config import RunConfig, load_config
from hot_tuner import verify

from conftest import REFERENCE_PATH, reference_dict


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

    @pytest.mark.parametrize("trials", ["0", "-3"])
    def test_trials_below_one_is_an_option_error(self, tmp_path, capsys, trials):
        cfg_path = write_config(tmp_path, small_dict())
        with pytest.raises(SystemExit) as exc:
            main(["simulate", cfg_path, "--out", str(tmp_path / "o"), "--trials", trials])
        assert exc.value.code == 2
        assert f"argument --trials: must be >= 1, got {trials}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_trials_not_an_int_is_an_option_error(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, small_dict())
        with pytest.raises(SystemExit) as exc:
            main(["simulate", cfg_path, "--out", str(tmp_path / "o"), "--trials", "abc"])
        assert exc.value.code == 2
        assert "argument --trials: invalid int value: 'abc'" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

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
        # 2501 steps keep every second row; a start far from theta* puts the
        # mean V-hat above 0 for some of them
        cfg_path = write_config(tmp_path, small_dict(horizon=2500,
                                                     vartheta0=[300.0, -300.0]))
        out = str(tmp_path / "out")
        assert main(["simulate", cfg_path, "--out", out, "--trials", "3",
                     "--emit-plot-data"]) == 0
        with open(os.path.join(out, "plotdata.csv"), newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert list(rows[0]) == ["k", "mean_Vhat", "envelope"]
        assert [row["k"] for row in rows] == [str(k) for k in range(0, 2501, 2)]
        cfg = load_config(cfg_path)
        consts = cfg.constants()
        mean, _, envelope, _ = verify.rate_check(
            np.stack([verify.run_trajectory(cfg, cfg.trial_seed(t)).V for t in range(3)]),
            cfg.effective_alpha(consts), consts)
        assert 0 < np.count_nonzero(mean[::2]) < len(rows)
        for name, want in (("mean_Vhat", mean), ("envelope", envelope)):
            got = np.array([float(row[name]) for row in rows])
            assert np.array_equal(got, want[::2]), name  # bitwise round-trip


class TestVerifyCommand:
    def test_verify_all_passes_on_reference(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, small_dict(horizon=500, ensemble=20))
        out = str(tmp_path / "out")
        assert main(["verify", cfg_path, "--check", "all", "--out", out]) == 0
        payload = json.loads((tmp_path / "out" / "verify_all.json").read_text())
        assert payload["passed"] is True
        assert set(payload["checks"]) == {"decrement", "bound", "rate"}
        assert capsys.readouterr().out == "decrement: PASS\nbound: PASS\nrate: PASS\n"

    def test_a_failed_check_exits_1(self, tmp_path, capsys, monkeypatch, fork_spy):
        # a zero margin puts the bound threshold below every trial's sup V;
        # fork_spy checks that the command forks no helper
        monkeypatch.setattr(verify, "BOUND_MARGIN", 0.0)
        cfg_path = write_config(tmp_path, small_dict(horizon=500, ensemble=20))
        out = str(tmp_path / "out")
        assert main(["verify", cfg_path, "--check", "all", "--out", out]) == 1
        captured = capsys.readouterr()
        assert captured.out == "decrement: PASS\nbound: FAIL\nrate: PASS\n"
        assert captured.err == ""
        payload = json.loads((tmp_path / "out" / "verify_all.json").read_text())
        assert payload["passed"] is False
        assert payload["checks"]["bound"]["passed"] is False
        assert fork_spy == []

    @pytest.mark.parametrize("check", ["decrement", "all"])
    def test_divergence_exits_3(self, tmp_path, capsys, fork_spy, check):
        # the pass stops mid-way, before any probe, and writes no report
        d = small_dict(mode="unrestricted", gains={"gamma": 1e8, "beta": 0.5, "mu": 0.9},
                       theta0=[5.0, 5.0], horizon=1000)
        out = tmp_path / "o"
        assert main(["verify", write_config(tmp_path, d), "--check", check,
                     "--out", str(out)]) == 3
        assert "error: tuner state became non-finite at step " in capsys.readouterr().err
        assert fork_spy == []
        assert list(out.glob("verify_*.json")) == []

    def test_one_trial_passes_every_check(self, tmp_path):
        # one trial has no spread: the rate check's standard error is 0
        cfg_path = write_config(tmp_path, small_dict(horizon=500, ensemble=1))
        out = str(tmp_path / "out")
        assert main(["verify", cfg_path, "--check", "all", "--out", out]) == 0
        payload = json.loads((tmp_path / "out" / "verify_all.json").read_text())
        assert payload["checks"]["rate"]["passed"] is True

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
        dict(horizon=30),  # below N_HARVEST: the harvest takes every row of the run
        dict(horizon=2300),  # past the harvest's 2000 rows, which --check decrement runs
    ])
    @pytest.mark.parametrize("check", ["decrement", "bound", "rate"])
    def test_all_reports_the_decrement_check_alone(self, tmp_path, overrides, check):
        # --check all harvests the probe states from trial 0 of the ensemble
        # its bound and rate checks share; each check reports what it does alone
        cfg_path = write_config(tmp_path, small_dict(**overrides))
        sections = {}
        for name in (check, "all"):
            out = tmp_path / name
            main(["verify", cfg_path, "--check", name, "--out", str(out)])
            payload = json.loads((out / f"verify_{name}.json").read_text())
            sections[name] = payload["checks"][check]
        assert sections["all"] == sections[check]

    @pytest.mark.parametrize("horizon", [30, 300, 2300])
    @pytest.mark.parametrize("check", ["decrement", "bound", "rate", "all"])
    def test_one_kernel_pass_per_command(self, tmp_path, monkeypatch, check, horizon):
        # --check all harvests from its ensemble and --check decrement runs
        # trial 0 alone over the harvest's rows, at most 2000; either way the
        # probe's states lie within the run
        calls = []
        lockstep = verify._lockstep

        def counted(cfg, seeds, steps, initial):
            calls.append((len(seeds), steps))
            return lockstep(cfg, seeds, steps, initial)

        monkeypatch.setattr(verify, "_lockstep", counted)
        cfg_path = write_config(tmp_path, small_dict(horizon=horizon))
        assert main(["verify", cfg_path, "--check", check, "--out", str(tmp_path / "o")]) == 0
        assert calls == [(1, min(horizon, 2000)) if check == "decrement" else (3, horizon)]
        payload = json.loads((tmp_path / "o" / f"verify_{check}.json").read_text())
        if check in ("decrement", "all"):
            rows = [int(p["label"][5:-1]) for p in payload["checks"]["decrement"]["probes"]
                    if p["label"].startswith("traj[")]
            assert len(set(rows)) == len(rows) == min(horizon + 1, verify.N_HARVEST)
            assert all(0 <= i <= min(horizon, 2000) for i in rows)

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
BENCH_REFERENCE = os.path.join(HERE, "..", "perfbench", "reference")
# the benchmark's two shrunk ops, and iid_bounded x state_dependent_bias at
# N = 1, 3 and 8 (recorded at 27c19a1), to pin the kernel's other fold lengths
GOLDEN_REPORTS = {
    **{name: os.path.join(BENCH_REFERENCE, f"{name}.shrunk.json")
       for name in ("verify-reference", "verify-long-random")},
    **{name: os.path.join(HERE, "golden", f"{name}.json")
       for name in ("n1-iid-sdb", "n3-iid-sdb", "n8-iid-sdb")},
}
# the benchmark's full-size ops on configs/reference.json: the options and the
# file whose JSON, less `generated_at`, is perfbench/reference/<name>.json
FULL_SIZE = {
    "verify-reference": (["verify", "--check", "all"], "verify_all.json"),
    "simulate-reference": (["simulate", "--trials", "20", "--emit-plot-data",
                            "--seed", "20240613"], "summary.json"),
}


def assert_same_json(path, golden):
    """The JSON file at path, less `generated_at`, is golden to the token:
    sorted-key dumps tell `true` from 1, 1.0 from 1 and -0.0 from 0.0, which == does not."""
    with open(path, encoding="utf-8") as fh:
        got = json.load(fh)
    got.pop("generated_at")
    assert json.dumps(got, sort_keys=True) == json.dumps(golden, sort_keys=True)


class TestGoldenReports:
    @pytest.mark.parametrize("workload, chunk", [
        pytest.param(name, chunk,
                     id=name if chunk == verify.CHUNK_STEPS else f"{name}-chunk{chunk}")
        for chunk in (verify.CHUNK_STEPS, 7) for name in GOLDEN_REPORTS])
    def test_shrunk_benchmark_report_is_exact(self, tmp_path, monkeypatch, workload, chunk):
        # recorded before the kernel changes they guard; every number must
        # come out bit for bit, not merely to a tolerance, at the default
        # chunk size and at one that splits the horizon unevenly
        monkeypatch.setattr(verify, "CHUNK_STEPS", chunk)
        with open(GOLDEN_REPORTS[workload]) as fh:
            golden = json.load(fh)
        assert (golden["config"]["horizon"], golden["config"]["ensemble"]) == (200, 4)
        cfg_path = write_config(tmp_path, golden["config"])
        out = tmp_path / "out"
        assert main(["verify", cfg_path, "--check", "all", "--out", str(out),
                     "--seed", "20240613"]) == 0
        assert_same_json(out / "verify_all.json", golden)

    helpers = 0  # the processes a full-size op forks, on two CPUs

    @pytest.mark.parametrize("workload", list(FULL_SIZE))
    def test_full_size_benchmark_output_is_exact(self, tmp_path, monkeypatch, fork_spy,
                                                 workload):
        # 200 trials x 2000 steps for verify, 20 trials for simulate, on two
        # CPUs: neither pass is long enough on iid regressors to fork
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        options, written = FULL_SIZE[workload]
        with open(os.path.join(BENCH_REFERENCE, f"{workload}.json")) as fh:
            golden = json.load(fh)
        out = tmp_path / "out"
        assert main([options[0], REFERENCE_PATH, *options[1:], "--out", str(out)]) == 0
        assert_same_json(out / written, golden)
        assert len(fork_spy) == self.helpers


@pytest.mark.parametrize("cpus", [{0, 1}, {0}], ids=["two-cpus", "one-cpu"])
def test_full_size_decrement_report_is_exact(tmp_path, monkeypatch, fork_spy, cpus):
    # verify --check decrement alone on configs/reference.json: its section
    # of the full-size verify report, probed in-process on one CPU or two
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)
    with open(os.path.join(BENCH_REFERENCE, "verify-reference.json")) as fh:
        golden = json.load(fh)
    out = tmp_path / "out"
    assert main(["verify", REFERENCE_PATH, "--check", "decrement", "--out", str(out)]) == 0
    with open(out / "verify_decrement.json", encoding="utf-8") as fh:
        got = json.load(fh)
    assert (json.dumps(got["checks"]["decrement"], sort_keys=True)
            == json.dumps(golden["checks"]["decrement"], sort_keys=True))
    assert fork_spy == []


@pytest.mark.parametrize("cpus", [{0, 1}, {0}], ids=["two-cpus", "one-cpu"])
def test_full_size_long_random_report_is_exact(tmp_path, monkeypatch, fork_spy, cpus):
    # 200 trials x 5e4 steps on iid regressors: its ensemble pass forks its
    # input producer where the process may use two CPUs, and not on one
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)
    with open(os.path.join(BENCH_REFERENCE, "verify-long-random.json")) as fh:
        golden = json.load(fh)
    out = tmp_path / "out"
    assert main(["verify", write_config(tmp_path, golden["config"]), "--check", "all",
                 "--out", str(out), "--seed", "20240613"]) == 0
    assert_same_json(out / "verify_all.json", golden)
    assert len(fork_spy) == (len(cpus) > 1 and hasattr(os, "fork"))


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


def fork_every_pass(cfg, horizon, width):
    """A verify._forks that forks every multi-chunk pass."""
    return horizon > verify.CHUNK_STEPS


@pytest.fixture
def fork_spy(monkeypatch):
    """The pids that os.fork returns in the test.  Afterwards no child is left."""
    pids = []
    if not hasattr(os, "fork"):  # no child to spy on or to reap
        yield pids
        return
    fork = os.fork

    def spy():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", spy)
    yield pids
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def forked(monkeypatch, fork_spy):
    """Every multi-chunk kernel pass forks its input producer, whatever its
    regressor and size, on any machine; gives the pids forked."""
    monkeypatch.setattr(verify, "_forks", fork_every_pass)
    return fork_spy


def open_fds():
    """This process's open fds, where /proc/self/fd lists them, else None."""
    return sorted(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else None


needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork")


@needs_fork
class TestGoldenReportsForked(TestGoldenReports):
    """The exact reports again, every pass's inputs made by a forked child."""

    helpers = 1  # every op forks its input producer

    @pytest.fixture(autouse=True)
    def through_the_child(self, forked):
        yield
        assert forked


@needs_fork
class TestGoldenSimulateForked(TestGoldenSimulate):
    """The exact simulate outputs again, every pass's inputs made by a forked child."""

    @pytest.fixture(autouse=True)
    def through_the_child(self, forked):
        yield
        assert forked


@needs_fork
class TestForkedProducer:
    def test_divergence_exits_3(self, tmp_path, capfd, monkeypatch, forked):
        # the parent stops in chunk 0 with the child waiting to fill chunk 2,
        # and says what the in-process pass says
        d = small_dict(mode="unrestricted", gains={"gamma": 1e8, "beta": 0.5, "mu": 0.9},
                       theta0=[5.0, 5.0], horizon=1000)
        cfg_path = write_config(tmp_path, d)
        assert main(["simulate", cfg_path, "--out", str(tmp_path / "forked")]) == 3
        assert len(forked) == 1
        err = capfd.readouterr().err
        assert err.startswith("warning: gamma > 1/16: ")
        assert "error: tuner state became non-finite at step " in err
        monkeypatch.setattr(verify, "_forks", lambda cfg, horizon, width: False)
        assert main(["simulate", cfg_path, "--out", str(tmp_path / "in-process")]) == 3
        assert len(forked) == 1
        assert capfd.readouterr().err == err

    def test_producer_error_exits_4_on_one_line(self, tmp_path, capfd, forked, monkeypatch):
        generate = model.IidBounded.generate_batch

        def generate_until_128(self, k0, k1, seeds):
            if k0 >= 128:
                raise ValueError("no rows from 128 on")
            return generate(self, k0, k1, seeds)

        monkeypatch.setattr(model.IidBounded, "generate_batch", generate_until_128)
        value = verify.lyapunov_value_arrays

        def slow_value(*args):
            time.sleep(0.2)  # the child has failed and gone before a slot is freed
            return value(*args)

        monkeypatch.setattr(verify, "lyapunov_value_arrays", slow_value)
        d = small_dict(horizon=1000, regressor={"kind": "iid_bounded", "bound": 2.0})
        assert main(["verify", write_config(tmp_path, d), "--check", "bound",
                     "--out", str(tmp_path / "o")]) == 4
        assert len(forked) == 1
        captured = capfd.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: internal error: RuntimeError(\"the kernel's input "
                                "producer failed: ValueError('no rows from 128 on')\")\n")

    def test_a_producer_that_dies_exits_4_on_one_line(self, tmp_path, capfd, forked,
                                                      monkeypatch):
        # the child dies without a word, killed in chunk 1, and leaves no fd
        # or process behind
        generate, parent = model.IidBounded.generate_batch, os.getpid()

        def die_at_128(self, k0, k1, seeds):
            if k0 >= 128 and os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            return generate(self, k0, k1, seeds)

        monkeypatch.setattr(model.IidBounded, "generate_batch", die_at_128)
        fds = open_fds()
        d = small_dict(horizon=1000, regressor={"kind": "iid_bounded", "bound": 2.0})
        assert main(["verify", write_config(tmp_path, d), "--check", "bound",
                     "--out", str(tmp_path / "o")]) == 4
        assert len(forked) == 1
        captured = capfd.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: internal error: RuntimeError(\"the kernel's input "
                                "producer died\")\n")
        assert open_fds() == fds

    def test_forked_passes_leave_no_fd_open(self, tmp_path, capsys, forked):
        # a verify pass that completes, then a simulate pass that diverges
        fds = open_fds()
        d = small_dict(horizon=1000, regressor={"kind": "iid_bounded", "bound": 2.0})
        assert main(["verify", write_config(tmp_path, d), "--check", "bound",
                     "--out", str(tmp_path / "verify")]) == 0
        assert len(forked) == 1
        assert open_fds() == fds
        d = small_dict(mode="unrestricted", gains={"gamma": 1e8, "beta": 0.5, "mu": 0.9},
                       theta0=[5.0, 5.0], horizon=1000)
        assert main(["simulate", write_config(tmp_path, d, "diverges.json"),
                     "--out", str(tmp_path / "simulate")]) == 3
        assert len(forked) == 2
        assert open_fds() == fds

    def test_a_failed_fork_exits_4_and_closes_its_pipes(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(verify, "_forks", fork_every_pass)

        def no_fork():
            raise BlockingIOError(11, "Resource temporarily unavailable")

        monkeypatch.setattr(os, "fork", no_fork)
        fds = sorted(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else None
        assert main(["verify", write_config(tmp_path, small_dict(horizon=1000)),
                     "--check", "bound", "--out", str(tmp_path / "o")]) == 4
        assert capsys.readouterr().err == ("error: internal error: RuntimeError(\"cannot start "
                                           "the kernel's input producer: [Errno 11] Resource "
                                           "temporarily unavailable\")\n")
        if fds is not None:
            assert sorted(os.listdir("/proc/self/fd")) == fds

    def test_a_consumer_that_stops_early_reaps_the_child(self, forked):
        cfg = RunConfig.from_dict(small_dict(horizon=1000))
        seeds = [cfg.trial_seed(t) for t in range(cfg.ensemble)]
        blocks = verify._lockstep(cfg, seeds, cfg.horizon, cfg.initial_state())
        assert next(blocks).V.shape == (cfg.ensemble, verify.CHUNK_STEPS)
        # the child is alive: it fills chunk 1, then waits for a free slot
        assert os.waitpid(forked[0], os.WNOHANG) == (0, 0)
        blocks.close()
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_a_full_last_chunk_carries_the_final_state(self, monkeypatch, forked):
        # 14 steps in chunks of 7: the child fills both chunks, and the second
        # block also holds row 14
        monkeypatch.setattr(verify, "CHUNK_STEPS", 7)
        cfg = RunConfig.from_dict(small_dict(
            horizon=14, regressor={"kind": "iid_bounded", "bound": 2.0}))
        seeds = [cfg.trial_seed(t) for t in range(cfg.ensemble)]

        def blocks():
            return [(b.k, len(b.theta), len(b.eta), b.V)
                    for b in verify._lockstep(cfg, seeds, 14, cfg.initial_state())]

        through_child = blocks()
        assert len(forked) == 1
        monkeypatch.setattr(verify, "_forks", lambda cfg, horizon, width: False)
        in_process = blocks()
        assert len(forked) == 1
        # (k, rows, observations): rows 0..6, then 7..14, each row once
        assert [blk[:3] for blk in through_child] == [(0, 7, 7), (7, 8, 7)]
        assert [blk[:3] for blk in in_process] == [blk[:3] for blk in through_child]
        assert all(np.array_equal(a[3], b[3]) for a, b in zip(through_child, in_process))

    def test_one_cpu_runs_in_process(self, monkeypatch, fork_spy):
        # the real gate, at any size: two CPUs fork, one does not
        monkeypatch.setattr(verify, "PIPE_MIN_TRIAL_STEPS", 0)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        cfg = RunConfig.from_dict(small_dict(
            horizon=1000, regressor={"kind": "iid_bounded", "bound": 2.0},
            noise={"kind": "state_dependent_bias", "d_amplitude": 0.1, "sd": 0.45}))
        V = verify.run_ensemble(cfg).V
        assert len(fork_spy) == 1
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})

        def no_fork():
            raise AssertionError("forked on one CPU")

        monkeypatch.setattr(os, "fork", no_fork)
        assert np.array_equal(verify.run_ensemble(cfg).V, V)

    def test_a_shared_sinusoid_runs_in_process(self, monkeypatch):
        # at any size: a shared sinusoid leaves its child too little to do
        monkeypatch.setattr(verify, "PIPE_MIN_TRIAL_STEPS", 0)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)

        def no_fork():
            raise AssertionError("forked on a shared sinusoid")

        monkeypatch.setattr(os, "fork", no_fork)
        cfg = RunConfig.from_dict(small_dict(horizon=1000))
        assert isinstance(cfg.regressor, model.Sinusoid)
        assert verify.run_ensemble(cfg).V.shape == (cfg.ensemble, 1001)

    IID = {"kind": "iid_bounded", "bound": 2.0}

    @pytest.mark.parametrize("regressor, horizon, width, cpus, has_fork, forks", [
        # verify-long-random's pass, at exactly PIPE_MIN_TRIAL_STEPS
        pytest.param(IID, 50_000, 200, {0, 1}, True, True, id="iid-at-the-gate"),
        pytest.param(IID, 49_999, 200, {0, 1}, True, False, id="iid-one-step-short"),
        pytest.param(IID, verify.CHUNK_STEPS, 100_000, {0, 1}, True, False, id="iid-one-chunk"),
        pytest.param({"kind": "piecewise_constant", "bound": 2.0, "dwell": 5}, 50_000, 200,
                     {0, 1}, True, False, id="piecewise-constant"),
        pytest.param(None, 50_000, 200, {0, 1}, True, False, id="sinusoid"),
        pytest.param(IID, 50_000, 200, {0}, True, False, id="iid-one-cpu"),
        pytest.param(IID, 50_000, 200, {0, 1}, False, False, id="iid-no-fork"),
    ])
    def test_fork_gate_edges(self, monkeypatch, regressor, horizon, width, cpus, has_fork,
                             forks):
        # the gate alone, which starts no process: only a long, multi-chunk
        # pass on per-trial iid regressors forks, and only where it can
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)
        if not has_fork:
            monkeypatch.delattr(os, "fork", raising=False)
        cfg = RunConfig.from_dict(small_dict(regressor=regressor) if regressor else small_dict())
        assert verify._forks(cfg, horizon, width) is (forks and hasattr(os, "fork"))


class TestKernelOSErrors:
    """An OSError of the kernel's own is an internal error, not an --out one."""

    def test_a_failed_second_pipe_exits_4_and_closes_the_first(self, tmp_path, capsys,
                                                                monkeypatch, fork_spy):
        monkeypatch.setattr(verify, "_forks", fork_every_pass)
        pipe, calls = os.pipe, []

        def second_fails():
            calls.append(None)
            if len(calls) == 2:
                raise OSError(24, "Too many open files")
            return pipe()

        monkeypatch.setattr(os, "pipe", second_fails)
        fds = open_fds()
        assert main(["verify", write_config(tmp_path, small_dict(horizon=1000)),
                     "--check", "bound", "--out", str(tmp_path / "o")]) == 4
        error = RuntimeError("cannot start the kernel's input producer: "
                             "[Errno 24] Too many open files")
        assert capsys.readouterr().err == f"error: internal error: {error!r}\n"
        assert len(calls) == 2 and fork_spy == []
        assert open_fds() == fds

    @pytest.mark.parametrize("cpus", [{0, 1}, {0}], ids=["two-cpus", "one-cpu"])
    @pytest.mark.parametrize("check", ["bound", "all"])
    def test_a_failed_slot_mapping_exits_4(self, tmp_path, capsys, monkeypatch, fork_spy,
                                           check, cpus):
        # an in-process pass's one slot, on one CPU or two
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)

        def no_memory(*args, **kwargs):
            raise OSError(12, "Cannot allocate memory")

        monkeypatch.setattr(mmap, "mmap", no_memory)
        fds = open_fds()
        assert main(["verify", write_config(tmp_path, small_dict()), "--check", check,
                     "--out", str(tmp_path / "o")]) == 4
        assert capsys.readouterr().err == ("error: internal error: RuntimeError(\"cannot map "
                                           "the kernel's input slot: [Errno 12] Cannot "
                                           "allocate memory\")\n")
        assert fork_spy == []
        assert open_fds() == fds


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
        # omega * k overflows at the last step drawn, k = horizon - 1
        ("regressor.omega", dict(horizon=3, regressor={"kind": "sinusoid",
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
        ("gains.gamma", dict(gains={"gamma": 0.0, "beta": 0.5, "mu": 0.1})),
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

    def test_omega_is_checked_at_the_last_step_drawn(self, tmp_path, capsys):
        # omega * k overflows at k = 2, the last step of horizon 3, and at no
        # step of horizon 2
        regressor = {"kind": "sinusoid", "amplitude": [1.0, 1.0], "omega": 1e308}
        cfg_path = write_config(tmp_path, small_dict(horizon=3, regressor=regressor))
        assert main(["verify", cfg_path, "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == (
            "error: config field 'regressor.omega': omega * k + phase overflows a float"
            " at step k = 2\n")
        cfg_path = write_config(tmp_path, small_dict(horizon=2, regressor=regressor), "h2.json")
        assert main(["verify", cfg_path, "--check", "all", "--out", str(tmp_path / "p")]) == 0


class TestDuplicateKeys:
    @pytest.mark.parametrize("field, first, second", [
        ("horizon", '"horizon": 2000', '"horizon": 7'),
        ("gains.gamma", '"gamma": 0.04', '"gamma": 0.9'),
        ("regressor.omega", '"omega": 0.5', '"omega": 0.25'),
        ("noise.sd", '"sd": 0.48', '"sd": 0.3'),
    ], ids=["horizon", "gains.gamma", "regressor.omega", "noise.sd"])
    def test_usage_error_names_key(self, tmp_path, capsys, field, first, second):
        # json.load alone keeps the second value: a 7-step run, or an out-of-range gamma
        with open(REFERENCE_PATH, encoding="utf-8") as fh:
            text = fh.read()
        assert text.count(first) == 1
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(text.replace(first, f"{first}, {second}"))
        assert main(["verify", str(cfg_path), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == f"error: config field '{field}': duplicated key\n"

    def test_reference_config_loads_unchanged(self):
        with open(REFERENCE_PATH, encoding="utf-8") as fh:
            data = json.load(fh)
        cfg = load_config(REFERENCE_PATH)
        assert cfg.raw == data and repr(cfg) == repr(RunConfig.from_dict(data))


class TestUndecodableConfig:
    @pytest.mark.parametrize("text", [
        b"[" * 100_000 + b"]" * 100_000,
        b'{"mode": "cert\xffified"}',
        b'{"horizon": ' + b"9" * 5000 + b"}",
    ], ids=["nested-100000-deep", "byte-0xff", "5000-digit-integer"])
    def test_usage_error_names_file(self, tmp_path, capsys, text):
        # json raises RecursionError, UnicodeDecodeError and ValueError on these
        path = tmp_path / "config.json"
        path.write_bytes(text)
        assert main(["constants", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: config field '(file)': invalid JSON in {path}: ")
        assert captured.out == "" and len(captured.err.splitlines()) == 1

    @pytest.mark.parametrize("text", ["[1, 2]", "5"])
    def test_top_level_value_must_be_an_object(self, tmp_path, capsys, text):
        path = tmp_path / "config.json"
        path.write_text(text)
        assert main(["constants", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err == ("error: config field '(file)': "
                                "top-level JSON value must be an object\n")
        assert captured.out == ""


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


def test_perfbench_finds_every_name_it_reads(monkeypatch):
    # perfbench's tracer looks up each name it wraps as owner.__dict__[attr]
    # and its harness imports and calls cli names, so a rename fails here
    monkeypatch.syspath_prepend(os.path.join(HERE, "..", "perfbench"))
    for name in ("harness", "spans", "checks", "workloads"):  # imported afresh, dropped after
        monkeypatch.delitem(sys.modules, name, raising=False)
    importlib.import_module("harness")
    spans = importlib.import_module("spans")
    with spans.Tracer().installed():
        pass
    assert cli._thread_count() >= 1


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
