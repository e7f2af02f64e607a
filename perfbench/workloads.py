"""The benchmark's workloads: one `hot-tuner` command each.

Every workload starts from `configs/reference.json`. The harness writes the
config an op reads into its own work directory, so a workload that overrides
fields never touches the repository's configs.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

DEFAULT_SEED = 20240613  # base_seed in configs/reference.json

# A shrunk op runs the same code path at a size that takes well under a second.
SHRUNK_HORIZON = 200
SHRUNK_TRIALS = 4


@dataclass(frozen=True)
class Workload:
    name: str
    command: str                      # "verify" or "simulate"
    overrides: dict = field(default_factory=dict)
    trials: int | None = None         # simulate --trials

    def config(self, reference, shrunk=False):
        cfg = dict(reference, **self.overrides)
        if shrunk:
            cfg.update(horizon=SHRUNK_HORIZON, ensemble=SHRUNK_TRIALS)
        return cfg

    def trial_count(self, cfg):
        """Trials one op runs: simulate's --trials (capped by a shrunk
        ensemble), or verify's ensemble."""
        if self.trials is None:
            return cfg["ensemble"]
        return min(self.trials, cfg["ensemble"])

    def argv(self, config_path, out_dir, seed, cfg):
        argv = [self.command, str(config_path), "--out", str(out_dir), "--seed", str(seed)]
        if self.command == "verify":
            return argv + ["--check", "all"]
        return argv + ["--trials", str(self.trial_count(cfg)), "--emit-plot-data"]


WORKLOADS = {w.name: w for w in (
    # The verdict users ask for: decrement probes plus the 200-wide lockstep
    # ensemble on the shared sinusoid regressor.
    Workload("verify-reference", "verify"),
    # 20 one-wide trajectories behind the thread pool, each written as CSV;
    # no lockstep ensemble and no decrement check. Runnable by hand, but not
    # listed in BENCHMARK.json: its wall time is too noisy (see README.md).
    Workload("simulate-reference", "simulate", trials=20),
    # 200 x 5e4 lockstep ensemble with per-trial random regressors and
    # state-dependent noise, which keeps it off any affine/scan shortcut.
    Workload("verify-long-random", "verify", overrides={
        "horizon": 50000,
        "regressor": {"kind": "iid_bounded", "bound": 2.0},
        "noise": {"kind": "state_dependent_bias", "d_amplitude": 0.1, "sd": 0.45},
    }),
)}


def write_config(workload, root, work_dir, shrunk=False):
    """Write the workload's config into work_dir; return (path, config dict).

    An unshrunk workload without overrides reads the repository's reference
    config itself, exactly as a user would run it.
    """
    ref_path = Path(root) / "configs" / "reference.json"
    with open(ref_path, encoding="utf-8") as fh:
        reference = json.load(fh)
    cfg = workload.config(reference, shrunk=shrunk)
    if cfg == reference:
        return ref_path, cfg
    path = Path(work_dir) / f"{workload.name}{'.shrunk' if shrunk else ''}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(cfg, fh, indent=2)
    return path, cfg
