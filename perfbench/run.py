#!/usr/bin/env python3
"""hot-tuner benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from a checkout: the package is imported from its `src/` directory and
the workloads start from `configs/reference.json`. Each run times whole
`hot-tuner` commands ("ops") driven through `hot_tuner.cli.main` in this
process, checks every op's output, and prints one JSON object as the last
line of standard output. `--trace 0` gives the end-to-end metrics; `--trace 1`
gives the per-layer metrics of a separate traced run. Outputs and spans go to
`.perfbench_out/` in the checkout. See harness.py for the metric definitions.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from workloads import DEFAULT_SEED, WORKLOADS

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def nproc():
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else (
        os.cpu_count() or 1)


def bootstrap():
    """Import hot_tuner from the checkout and start nothing wider than nproc."""
    for need in (SRC / "hot_tuner" / "__init__.py", ROOT / "configs" / "reference.json"):
        if not need.is_file():
            raise SystemExit(f"perfbench: {need} not found; run from a full checkout")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, str(nproc()))
    # simulate's pool defaults to os.cpu_count(), which can exceed the CPUs
    # this process may use; only then is HOT_TUNER_THREADS set.
    if (os.cpu_count() or 1) > nproc():
        os.environ.setdefault("HOT_TUNER_THREADS", str(nproc()))
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    bootstrap()
    import harness
    result, lines = harness.run_benchmark(args.workload, args.seed, args.seconds,
                                          bool(args.trace))
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
