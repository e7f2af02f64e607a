"""`hot-tuner` command-line front end.

Exit codes: 0 success, 1 verification failure, 2 a bad option, a ConfigError
or an --out that cannot be created or written, 3 numeric divergence, 4 internal
error (any other exception, a stdout that cannot be written among them,
reported on one line).  A warning is printed as one `warning: ...` line on
stderr, once, and leaves the exit code as it is, where a -W or PYTHONWARNINGS
filter would raise it; a filter that ignores it holds.

`simulate` advances all its trials in one lockstep kernel pass and writes the
CSVs afterwards, so a divergence in any trial exits 3 before any trace is
written.  HOT_TUNER_THREADS is accepted and has no effect.

A command forks at most one helper process, the kernel's input producer,
and only on long iid passes, as hot_tuner.verify sets out, with
bit-identical outputs; a producer that cannot start or dies, like any other
OSError of the kernel's own, exits 4.
"""
from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import os
import sys
import time
import warnings

import numpy as np

from . import __version__, lyapunov, verify
from .config import ConfigError, check_seed, load_config
from .tuner import NonFiniteError

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_NONFINITE = 3
EXIT_INTERNAL = 4


# No longer used by the CLI: simulate runs every trial in one lockstep pass.
# Kept because the benchmark harness records it in each run's context.
def _thread_count():
    env = os.environ.get("HOT_TUNER_THREADS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            pass
    return os.cpu_count() or 1


def _jsonable(obj):
    """Plain JSON values; NaN and +-inf anywhere, numpy scalars and arrays too, become null."""
    if isinstance(obj, (np.ndarray, np.generic)):
        return _jsonable(obj.tolist())
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    return obj


def _write_json(path, payload):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(_jsonable(payload), fh, sort_keys=True, indent=2, allow_nan=False)
        fh.write("\n")


def _constants_payload(cfg, consts):
    payload = dataclasses.asdict(consts)  # a degenerate K and T are NaN, written as null
    payload["gamma_max"] = (lyapunov.gamma_max(cfg.gains.beta, cfg.gains.mu)
                            if 0 < cfg.gains.mu < 1 else None)
    if not consts.degenerate:
        alpha = cfg.effective_alpha(consts)
        payload["alpha"] = alpha
        payload["theorem4_radius"] = lyapunov.theorem4_radius(alpha, consts)
    return payload


def _write_csv(path, header, ks, columns):
    """One row per k: str(k), then each float of the stacked columns as its
    shortest round-trip decimal (repr)."""
    rows = np.column_stack(columns).tolist()
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows([str(k), *map(repr, row)] for k, row in zip(ks, rows))


def _write_trace_csv(path, trace, K):
    """The trace as CSV, with V-hat clipped at K (all NaN for degenerate constants)."""
    n = trace.theta.shape[1]
    header = (["k"] + [f"theta_{i}" for i in range(n)]
              + [f"vartheta_{i}" for i in range(n)]
              + ["V", "Vhat", "e_y", "eta", "phi_norm"])
    _write_csv(path, header, trace.k.tolist(),
               (trace.theta, trace.vartheta, trace.V, lyapunov.clipped_V(trace.V, K),
                trace.e_y, trace.eta, trace.phi_norm))


def _print(text):
    """Print text to stdout now.  A stdout that cannot be written is not --out,
    so its error leaves as an internal one; stdout is then dropped, which
    keeps the interpreter from failing to flush it again on exit."""
    try:
        print(text, flush=True)
    except OSError as exc:
        sys.stdout = None
        raise RuntimeError(f"cannot write stdout: {exc}") from None


def _setup(args, needs_c1):
    """The config with --seed applied, its constants and their payload; then --out
    is made.  A command that needs c1 > 0 (bound, rate, plot data) rejects degenerate ones."""
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg.base_seed = check_seed(args.seed)
    consts = cfg.constants()
    constants = _constants_payload(cfg, consts)
    if consts.degenerate and needs_c1:
        raise ConfigError("gains", "degenerate constants (mu*gamma*beta = 0)")
    os.makedirs(args.out, exist_ok=True)
    return cfg, consts, constants


def _report(cfg, constants, **fields):
    """A report: the header every command writes, then the command's fields."""
    return {"version": __version__, "generated_at": time.strftime("%Y-%m-%dT%H:%M:%S"),
            "config": cfg.raw, "base_seed": cfg.base_seed, "constants": constants, **fields}


def cmd_simulate(args):
    cfg, consts, constants = _setup(args, args.emit_plot_data)
    trials = args.trials if args.trials is not None else cfg.ensemble

    traces = verify.run_trajectories(cfg, [cfg.trial_seed(t) for t in range(trials)])
    for t, trace in enumerate(traces):
        _write_trace_csv(os.path.join(args.out, f"trace_{t}.csv"), trace, consts.K)
    with np.errstate(over="ignore", invalid="ignore"):  # a huge finite state: inf
        errors = [float(np.linalg.norm(t.theta[-1] - cfg.theta_star)) for t in traces]
    _write_json(os.path.join(args.out, "summary.json"), _report(
        cfg, constants, trials=trials, sup_V_per_trial=[float(np.max(t.V)) for t in traces],
        terminal_error_per_trial=errors))

    if args.emit_plot_data:
        mean, _, envelope, _ = verify.rate_check(np.stack([t.V for t in traces]),
                                                 cfg.effective_alpha(consts), consts)
        step = max(1, mean.size // 1000)
        _write_csv(os.path.join(args.out, "plotdata.csv"), ["k", "mean_Vhat", "envelope"],
                   range(0, mean.size, step), (mean[::step], envelope[::step]))
    return EXIT_OK


def cmd_verify(args):
    checks = ("decrement", "bound", "rate") if args.check == "all" else (args.check,)
    cfg, consts, constants = _setup(args, "bound" in checks or "rate" in checks)

    results = verify.run_checks(cfg, consts, checks)
    all_ok = all(res["passed"] for res in results.values())

    _write_json(os.path.join(args.out, f"verify_{args.check}.json"),
                _report(cfg, constants, checks=results, passed=all_ok))
    for name, res in results.items():
        _print(f"{name}: {'PASS' if res['passed'] else 'FAIL'}")
    return EXIT_OK if all_ok else EXIT_CHECK_FAILED


def cmd_constants(args):
    cfg = load_config(args.config)
    consts = cfg.constants()
    payload = _constants_payload(cfg, consts)
    if args.out:  # written first: a failed --out leaves stdout empty
        os.makedirs(args.out, exist_ok=True)
        _write_json(os.path.join(args.out, "constants.json"), payload)
    _print(json.dumps(_jsonable(payload), sort_keys=True, indent=2))
    return EXIT_OK


def _trial_count(text):
    """A --trials value: an int of at least 1."""
    try:
        trials = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if trials < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {trials}")
    return trials


def build_parser():
    parser = argparse.ArgumentParser(
        prog="hot-tuner",
        description="Noise-robust high-order tuner: simulation and stability checks")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run trajectories and write CSV traces")
    p.add_argument("config")
    p.add_argument("--out", required=True)
    p.add_argument("--trials", type=_trial_count, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--emit-plot-data", action="store_true")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("verify", help="run the stochastic stability checks")
    p.add_argument("config")
    p.add_argument("--check", choices=["decrement", "bound", "rate", "all"],
                   default="all")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("constants", help="print the decrement-bound constants")
    p.add_argument("config")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_constants)
    return parser


def _print_warning(message, category, filename, lineno, file=None, line=None):
    """A warning as one `warning: ...` line on stderr, without its source line."""
    print(f"warning: {message}", file=sys.stderr)


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        with warnings.catch_warnings():  # restores the filters and showwarning on the way out
            filters = warnings.filters  # -W error prints once instead; ignore filters hold
            filters[:] = [("default", *f[1:]) if f[0] == "error" else f for f in filters]
            warnings.showwarning = _print_warning
            return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NonFiniteError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NONFINITE
    except OSError as exc:
        # load_config raises ConfigError for the config, _print a RuntimeError
        # for stdout and the kernel RuntimeError for its pipes, forks and
        # mappings, so this is from --out
        print(f"error: cannot write --out {args.out}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:
        print(f"error: internal error: {exc!r}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
