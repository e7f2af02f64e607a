"""Spans around hot_tuner's public entry points, for the traced run.

While a Tracer is installed it replaces module attributes and class methods
of the imported package with wrappers, and restores them afterwards. A span
records name, start, end, parent and thread; spans of one op share the op id.
Calls made once per step (the Lyapunov value, regressor batches, innovations,
conditional means) are folded into a call count, total time and a unit count
under the span that made them, instead of one span each.
"""
from __future__ import annotations

import contextlib
import functools
import itertools
import threading
from time import perf_counter

import numpy as np

from hot_tuner import cli, lyapunov, model, verify

REGRESSOR_CLASSES = (model.Constant, model.Sinusoid, model.IidBounded,
                     model.PiecewiseConstant)
NOISE_CLASSES = (model.Zero, model.BiasedGaussianTruncated, model.UniformBiased,
                 model.StateDependentBias)


def _nbytes(result):
    return int(np.asarray(result).nbytes)


class Tracer:
    """Holds the spans of one traced run in memory."""

    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._root = None

    # -- recording --------------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _current(self):
        """The innermost open span of this thread; pool threads start at the op root."""
        stack = self._stack()
        return stack[-1] if stack else self._root

    def _open(self, name, op=None):
        parent = self._current()
        span = {"id": next(self._ids), "op": op if parent is None else parent["op"],
                "name": name, "parent": None if parent is None else parent["id"],
                "thread": threading.get_ident(), "start": perf_counter(),
                "end": None, "units": 0, "bytes": 0, "folded": {}}
        self._stack().append(span)
        return span

    def _close(self, span):
        span["end"] = perf_counter()
        self._stack().pop()
        with self._lock:
            self.spans.append(span)

    @contextlib.contextmanager
    def op(self, op_id):
        """The root span of one op: everything `cli.main` does."""
        root = self._root = self._open("cli.main", op=op_id)
        try:
            yield root
        finally:
            self._close(root)
            self._root = None

    def span(self, name, fn, units=None, nbytes=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
                span["units"] = units(result) if units else 0
                span["bytes"] = nbytes(result) if nbytes else 0
                return result
            finally:
                self._close(span)
        return wrapper

    def fold(self, name, fn, units, nbytes=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            result = fn(*args, **kwargs)
            dt = perf_counter() - t0
            owner = self._current()
            if owner is not None:
                with self._lock:
                    f = owner["folded"].setdefault(
                        name, {"calls": 0, "seconds": 0.0, "units": 0, "bytes": 0})
                    f["calls"] += 1
                    f["seconds"] += dt
                    f["units"] += units(args, result)
                    f["bytes"] += nbytes(result) if nbytes else 0
            return result
        return wrapper

    # -- installation -----------------------------------------------------

    def _targets(self):
        span, fold = self.span, self.fold
        yield cli, "load_config", span("config.load_config", cli.load_config)
        yield lyapunov, "constants", span("lyapunov.constants", lyapunov.constants)
        yield verify, "run_trajectory", span(
            "verify.run_trajectory", verify.run_trajectory,
            units=lambda tr: tr.k.size - 1)
        yield verify, "run_ensemble", span(
            "verify.run_ensemble", verify.run_ensemble,
            units=lambda ens: ens.V.shape[0] * ens.horizon,
            nbytes=lambda ens: ens.V.nbytes)
        yield verify, "decrement_report", span(
            "verify.decrement_report", verify.decrement_report,
            units=lambda rep: len(rep.probes) * rep.resamples)
        yield verify, "boundedness_check", span(
            "verify.boundedness_check", verify.boundedness_check)
        yield verify, "rate_check", span("verify.rate_check", verify.rate_check)
        yield cli, "_write_trace_csv", span("cli.write_trace_csv", cli._write_trace_csv)
        yield verify, "lyapunov_value_arrays", fold(
            "lyapunov.value", verify.lyapunov_value_arrays, units=lambda a, r: 1)
        for cls in REGRESSOR_CLASSES:
            yield cls, "generate_batch", fold(
                "model.generate_batch", cls.generate_batch,
                units=lambda a, r: len(r), nbytes=_nbytes)
        for cls in NOISE_CLASSES:
            yield cls, "innovation", fold(
                "model.innovation", cls.innovation,
                units=lambda a, r: int(np.size(r)), nbytes=_nbytes)
            yield cls, "conditional_mean", fold(
                "model.conditional_mean", cls.conditional_mean, units=lambda a, r: 1)

    @contextlib.contextmanager
    def installed(self):
        """Patch the wrappers in for the duration of the block."""
        saved = []
        try:
            for owner, attr, wrapper in self._targets():
                saved.append((owner, attr, owner.__dict__[attr]))
                setattr(owner, attr, wrapper)
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)


# -- per-op layer metrics ---------------------------------------------------

def _covered(span, children):
    """Seconds of span's interval covered by the union of its children."""
    intervals = sorted((max(c["start"], span["start"]), min(c["end"], span["end"]))
                       for c in children)
    total, cur_start, cur_end = 0.0, None, None
    for start, end in intervals:
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_time(span, children):
    """Span duration minus what child spans and folded calls cover."""
    folded = sum(f["seconds"] for f in span["folded"].values())
    return max(0.0, span["end"] - span["start"] - _covered(span, children) - folded)


def layer_metrics(spans):
    """Per-layer numbers of one op from its spans (one root named cli.main)."""
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    root = next(s for s in spans if s["parent"] is None)
    wall = root["end"] - root["start"]

    def named(name):
        return [s for s in spans if s["name"] == name]

    def total(name, key="seconds"):
        return sum(f.get(name, {}).get(key, 0) for f in (s["folded"] for s in spans))

    def dur(name):
        return sum(s["end"] - s["start"] for s in named(name))

    def self_sum(name):
        return sum(self_time(s, children.get(s["id"], [])) for s in named(name))

    ens = named("verify.run_ensemble")
    ens_steps = sum(s["units"] for s in ens)
    ens_bytes = sum(s["bytes"] + sum(f["bytes"] for k, f in s["folded"].items()
                                     if k in ("model.innovation", "model.generate_batch"))
                    for s in ens)
    per_trial = sum(s["end"] - s["start"] for s in spans if s["parent"] == root["id"]
                    and s["name"] in ("verify.run_trajectory", "cli.write_trace_csv"))
    return {
        "lyapunov.value_s": total("lyapunov.value"),
        "lyapunov.value.calls": total("lyapunov.value", "calls"),
        "model.generate_batch_s": total("model.generate_batch"),
        "model.generate_batch.rows": total("model.generate_batch", "units"),
        "model.innovation_s": total("model.innovation"),
        "model.innovation.draws": total("model.innovation", "units"),
        "model.conditional_mean_s": total("model.conditional_mean"),
        "model.conditional_mean.calls": total("model.conditional_mean", "calls"),
        "verify.run_trajectory.self_s": self_sum("verify.run_trajectory"),
        "verify.run_trajectory.calls": len(named("verify.run_trajectory")),
        "verify.run_ensemble.self_s": self_sum("verify.run_ensemble"),
        "verify.run_ensemble.ns_per_trial_step":
            dur("verify.run_ensemble") / ens_steps * 1e9 if ens_steps else 0.0,
        "verify.decrement_report.self_s": self_sum("verify.decrement_report"),
        "verify.decrement.resample_evals":
            sum(s["units"] for s in named("verify.decrement_report")),
        "verify.boundedness_check_s": dur("verify.boundedness_check"),
        "verify.rate_check_s": dur("verify.rate_check"),
        "verify.ensemble.computed_bytes": ens_bytes,
        "cli.write_trace_csv_s": dur("cli.write_trace_csv"),
        "cli.self_s": self_time(root, children.get(root["id"], [])),
        "cli.simulate.trial_concurrency": per_trial / wall,
        "op.trial_steps": sum(s["units"] for s in named("verify.run_trajectory")) + ens_steps,
    }
