"""Timed and traced runs of the hot-tuner workloads, and their metrics.

End-to-end metrics (`--trace 0`), per workload:
  setup_s      median over fresh processes of `import hot_tuner.cli`,
               `load_config` and `cfg.constants()`: what every CLI call pays
               before any work.
  op_s         median wall time of one op in this warmed process.
  cpu_s        median user+sys CPU time of one op (all threads of the process).
  peak_rss_mb  peak RSS of this process, which ran the ops (getrusage, self).
Ops that exit non-zero or fail the output check are counted in `failed`;
`failed_frac` is failed / attempted. It is reported beside the metrics and as
a per-layer metric, since a metric that reads 0 cannot carry a relative bound.

Per-layer metrics (`--trace 1`) come from a separate run that alternates
untraced and traced ops; each is the median over the traced ops unless noted.
Counts marked "computed" are exact work counts, not timings.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, process_time

import numpy as np
import scipy

from hot_tuner import cli
from hot_tuner.config import load_config
from hot_tuner.tuner import TunerState, hot_step

import checks
import spans
from workloads import DEFAULT_SEED, WORKLOADS, write_config

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE_DIR = HERE / "reference"
WORK_DIR = ".perfbench_out"
SETUP_REPEATS = 3
MIN_TIMED_OPS = 2  # untraced ops per --trace 0 run, however long each takes
MICRO_WIDTHS = (1, 200, 10000)

END_TO_END_UNITS = {"op_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}

# name -> (unit, note printed beside the value)
PER_LAYER_UNITS = {
    "config.import_s": ("s", "fresh process, import hot_tuner.config"),
    "config.load_config_s": ("s", "fresh process"),
    "lyapunov.constants_s": ("s", "fresh process"),
    "lyapunov.value_s": ("s", "folded per-step calls"),
    "lyapunov.value.calls": ("count", "computed"),
    "model.generate_batch_s": ("s", "folded"),
    "model.generate_batch.rows": ("count", "computed, regressor rows generated"),
    "model.innovation_s": ("s", "folded"),
    "model.innovation.draws": ("count", "computed"),
    "model.conditional_mean_s": ("s", "folded"),
    "model.conditional_mean.calls": ("count", "computed"),
    "tuner.hot_step.ns_per_trial_step.w1": ("ns", "microbenchmark, (1, N) arrays"),
    "tuner.hot_step.ns_per_trial_step.w200": ("ns", "microbenchmark, (200, N) arrays"),
    "tuner.hot_step.ns_per_trial_step.w10000": ("ns", "microbenchmark, (10000, N) arrays"),
    "verify.run_trajectory.self_s": ("s", "summed over calls"),
    "verify.run_trajectory.calls": ("count", "computed"),
    "verify.run_ensemble.self_s": ("s", ""),
    "verify.run_ensemble.ns_per_trial_step": ("ns", "span time / trials x horizon"),
    "verify.decrement_report.self_s": ("s", ""),
    "verify.decrement.resample_evals": ("count", "computed, probes x M"),
    "verify.boundedness_check_s": ("s", ""),
    "verify.rate_check_s": ("s", ""),
    "verify.ensemble.computed_bytes": ("B", "computed, V + innovations + regressor chunks"),
    "cli.write_trace_csv_s": ("s", "summed over trials"),
    "cli.bytes_written": ("B", "computed, files in the op's output directory"),
    "cli.self_s": ("s", "cli.main minus its child spans"),
    "cli.simulate.trial_concurrency": ("ratio", "summed per-trial span time / op wall"),
    "op.trial_steps": ("count", "computed, tuner updates per op outside resampling"),
    "op_s.untraced": ("s", "median of the untraced ops of this run"),
    "op_s.traced": ("s", "median of the traced ops"),
    "trace.overhead_s": ("s", "op_s.traced - op_s.untraced"),
    "failed_frac": ("ratio", "failed / attempted ops, warm-up included"),
}


@dataclass
class Op:
    wall: float
    cpu: float
    problems: list
    bytes_written: int
    spans: list = field(default_factory=list)


class Target:
    """One op of a workload at one size and seed, with its output check."""

    def __init__(self, workload, root, work, seed, shrunk, reference):
        self.workload = workload
        self.seed = seed
        self.config_path, self.cfg = write_config(workload, root, work, shrunk=shrunk)
        self.out_dir = Path(work) / ("op-shrunk" if shrunk else "op")
        self.reference = reference
        self.digest = None

    def run(self, tracer=None, op_id=0, after_op=None):
        shutil.rmtree(self.out_dir, ignore_errors=True)
        argv = self.workload.argv(self.config_path, self.out_dir, self.seed, self.cfg)
        stdout = io.StringIO()
        with contextlib.ExitStack() as stack:
            if tracer is not None:
                stack.enter_context(tracer.installed())
                stack.enter_context(tracer.op(op_id))
            stack.enter_context(contextlib.redirect_stdout(stdout))
            t0, c0 = perf_counter(), process_time()
            try:
                rc = cli.main(argv)
            except SystemExit as exc:
                rc = exc.code
            except Exception:  # a crashing op is a failed op, not a crashed benchmark
                traceback.print_exc()
                rc = "uncaught exception"
            wall, cpu = perf_counter() - t0, process_time() - c0
        if after_op is not None:
            after_op(self.out_dir)
        problems, digest = self.check(rc, stdout.getvalue())
        if digest is not None:
            if self.digest is None:
                self.digest = digest
            elif digest != self.digest:
                problems.append("output differs from the first op at this seed")
        for p in problems[:5]:
            print(f"perfbench: {self.workload.name} seed {self.seed}: {p}", file=sys.stderr)
        written = sum(f.stat().st_size for f in self.out_dir.iterdir()) \
            if self.out_dir.is_dir() else 0
        return Op(wall=wall, cpu=cpu, problems=problems, bytes_written=written,
                  spans=[s for s in tracer.spans if s["op"] == op_id] if tracer else [])

    def check(self, rc, stdout):
        if self.workload.command == "verify":
            return checks.check_verify(self.out_dir, rc, stdout, self.reference)
        return checks.check_simulate(
            self.out_dir, rc, self.workload.trial_count(self.cfg), self.cfg["horizon"],
            self.cfg["theta_star"], self.cfg["gains"]["gamma"], self.reference)


def reference_path(workload, shrunk):
    return REFERENCE_DIR / f"{workload.name}{'.shrunk' if shrunk else ''}.json"


def load_reference(workload, shrunk, seed):
    """The seed commit's report for this op; references exist for DEFAULT_SEED only."""
    if seed != DEFAULT_SEED:
        return None
    with open(reference_path(workload, shrunk), encoding="utf-8") as fh:
        return json.load(fh)


def measure_setup(config_path, repeats):
    """Set-up timings from `repeats` fresh processes.

    This process has imported the same modules first, so their bytecode is
    compiled and their files are in the page cache, as for a user who runs
    the CLI repeatedly.
    """
    probe = [sys.executable, str(HERE / "setup_probe.py"), str(Path(cli.__file__).parents[1]),
             str(config_path)]
    samples = []
    for _ in range(repeats):
        out = subprocess.run(probe, capture_output=True, text=True, timeout=120, check=True)
        samples.append(json.loads(out.stdout.splitlines()[-1]))
    return samples


def hot_step_ns(width, gains, budget_s, repeats=5):
    """Median ns per trial-step of tuner.hot_step on (width, N) arrays."""
    rng = np.random.default_rng(width)
    n = gains.theta0.size
    state0 = TunerState(theta=rng.standard_normal((width, n)),
                        vartheta=rng.standard_normal((width, n)))
    phi = rng.uniform(-1.0, 1.0, (width, n))
    y = rng.standard_normal(width)
    t0 = perf_counter()
    hot_step(state0, phi, y, gains)
    calls = max(1, int(budget_s / max(perf_counter() - t0, 1e-7)))
    samples = []
    for _ in range(repeats):
        state = state0
        t0 = perf_counter()
        for _ in range(calls):
            state = hot_step(state, phi, y, gains)
        samples.append((perf_counter() - t0) / (calls * width) * 1e9)
    return statistics.median(samples)


def _git_commit():
    git = ROOT / ".git"
    if not git.exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", f"--git-dir={git}", "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip()


def run_context(workload, seed, seconds, trace):
    return {
        "workload": workload.name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "nproc": len(os.sched_getaffinity(0)),
        "os_cpu_count": os.cpu_count(),
        "HOT_TUNER_THREADS": os.environ.get("HOT_TUNER_THREADS", "unset (default)"),
        "simulate_threads": cli._thread_count(),
        "git_commit": _git_commit(),
    }


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def run_benchmark(name, seed, seconds, trace, shrunk=False, after_op=None):
    """Run one workload; return (result dict for the last line, report lines).

    A shrunk op at DEFAULT_SEED warms the process first and is checked
    against its recorded reference. Timed ops then repeat for about
    `seconds`: untraced ops for `trace=False` (at least MIN_TIMED_OPS),
    alternating untraced and traced ops for `trace=True`. `after_op` is
    called with each op's output directory before the check (the self-test
    uses it to corrupt a report).
    """
    workload = WORKLOADS[name]
    work = ROOT / WORK_DIR / name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    warm = Target(workload, ROOT, work, DEFAULT_SEED, True,
                  load_reference(workload, True, DEFAULT_SEED))
    timed = warm if shrunk and seed == DEFAULT_SEED else Target(
        workload, ROOT, work, seed, shrunk, load_reference(workload, shrunk, seed))
    context = run_context(workload, seed, seconds, trace)
    setup = measure_setup(timed.config_path, 1 if shrunk else SETUP_REPEATS)

    ops = [warm.run(after_op=after_op)]
    untraced, traced = [], []
    tracer = spans.Tracer() if trace else None
    start = perf_counter()
    min_ops = 1 if trace else MIN_TIMED_OPS
    while True:
        untraced.append(timed.run(after_op=after_op))
        if trace:
            traced.append(timed.run(tracer, op_id=len(traced), after_op=after_op))
        elapsed = perf_counter() - start
        # Stop at the round whose end lies nearest to `seconds`.
        if len(untraced) >= min_ops and elapsed + elapsed / len(untraced) / 2 >= seconds:
            break
    ops += untraced + traced
    failed = sum(1 for op in ops if op.problems)
    result = {"correct": failed == 0, "attempted": len(ops), "failed": failed}
    walls = [op.wall for op in untraced]

    lines = [f"# context {json.dumps(context)}",
             f"# {name}: {len(untraced)} untraced and {len(traced)} traced timed ops "
             f"after 1 shrunk warm-up op; {failed} of {len(ops)} ops failed "
             f"(failed_frac {failed / len(ops):g})"]
    if not trace:
        metrics = {
            "op_s": statistics.median(walls),
            "cpu_s": statistics.median(op.cpu for op in untraced),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "setup_s": statistics.median(s["setup_s"] for s in setup),
        }
        units = END_TO_END_UNITS
        q1, q3 = _quartiles(walls)
        notes = {"op_s": f"median of {len(walls)} ops, quartiles {q1:.4f} / {q3:.4f}",
                 "cpu_s": f"median of {len(walls)} ops",
                 "setup_s": f"median of {len(setup)} fresh processes",
                 "peak_rss_mb": "this process, getrusage(RUSAGE_SELF)"}
    else:
        (work / "spans.json").write_text(json.dumps(tracer.spans))
        gains = load_config(timed.config_path).gains
        budget = 0.01 if shrunk else 0.1
        layers = [spans.layer_metrics(op.spans) for op in traced]
        metrics = {
            "config.import_s": statistics.median(s["import_config_s"] for s in setup),
            "config.load_config_s": statistics.median(s["load_config_s"] for s in setup),
            "lyapunov.constants_s": statistics.median(s["constants_s"] for s in setup),
            **{k: statistics.median(m[k] for m in layers) for k in layers[0]},
            **{f"tuner.hot_step.ns_per_trial_step.w{w}": hot_step_ns(w, gains, budget)
               for w in MICRO_WIDTHS},
            "cli.bytes_written": statistics.median(op.bytes_written for op in untraced),
            "op_s.untraced": statistics.median(walls),
            "op_s.traced": statistics.median(op.wall for op in traced),
            "failed_frac": failed / len(ops),
        }
        metrics["trace.overhead_s"] = metrics["op_s.traced"] - metrics["op_s.untraced"]
        units = {k: u for k, (u, _) in PER_LAYER_UNITS.items()}
        notes = {k: n for k, (_, n) in PER_LAYER_UNITS.items()}
    for key in units:
        lines.append(f"# {key:42s} {metrics[key]:>16.6g} {units[key]:6s} {notes.get(key, '')}")
    result["metrics"] = {k: {"value": metrics[k], "unit": units[k]} for k in units}
    return result, lines
