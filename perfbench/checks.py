"""Output correctness gate: every op's output is checked before it counts.

Each check returns a list of problems; an op with any problem counts as failed.
Numeric report fields are compared against references recorded from the seed
commit at the default seed with a relative tolerance of REFERENCE_RTOL, so a
kernel that agrees to about 1e-12 passes and a wrong one fails.
"""
from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

from hot_tuner.lyapunov import lyapunov_value
from hot_tuner.tuner import TunerState

REFERENCE_RTOL = 1e-9
# V recomputed from the trace columns against the V column, and the trace
# maxima against summary.json; both are computed from the same doubles.
TRACE_RTOL = 1e-12
VOLATILE_KEYS = ("generated_at",)
CHECK_NAMES = ("decrement", "bound", "rate")


def stable(payload):
    """The report without the keys that change from run to run."""
    return {k: v for k, v in payload.items() if k not in VOLATILE_KEYS}


def compare(actual, expected, path="$"):
    """Mismatches between two parsed JSON values; numbers compare by rtol."""
    if isinstance(expected, bool) or expected is None or isinstance(expected, str):
        return [] if actual == expected and type(actual) is type(expected) else [
            f"{path}: {actual!r} != {expected!r}"]
    if isinstance(expected, (int, float)):
        if isinstance(actual, bool) or not isinstance(actual, (int, float)):
            return [f"{path}: {actual!r} is not a number"]
        if math.isclose(actual, expected, rel_tol=REFERENCE_RTOL, abs_tol=0.0):
            return []
        return [f"{path}: {actual!r} != {expected!r} (rtol {REFERENCE_RTOL:g})"]
    if isinstance(expected, list):
        if not isinstance(actual, list) or len(actual) != len(expected):
            return [f"{path}: list of {len(expected)} expected"]
        out = []
        for i, (a, e) in enumerate(zip(actual, expected)):
            out += compare(a, e, f"{path}[{i}]")
        return out
    if not isinstance(actual, dict) or set(actual) != set(expected):
        return [f"{path}: keys differ"]
    out = []
    for key in expected:
        out += compare(actual[key], expected[key], f"{path}.{key}")
    return out


def _load_json(path, problems):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        problems.append(f"cannot read {path.name}: {exc}")
        return None


def check_verify(out_dir, rc, stdout, reference=None):
    """Problems with one `verify --check all` op; returns (problems, digest).

    The digest identifies the report, so ops repeated at one seed can be
    required to agree exactly.
    """
    problems = [] if rc == 0 else [f"exit code {rc}"]
    payload = _load_json(Path(out_dir) / "verify_all.json", problems)
    if payload is None:
        return problems, None
    checks = payload.get("checks", {})
    if payload.get("passed") is not True:
        problems.append("report passed is not true")
    for name in CHECK_NAMES:
        if checks.get(name, {}).get("passed") is not True:
            problems.append(f"check {name} did not pass")
        if f"{name}: PASS" not in stdout.splitlines():
            problems.append(f"stdout lacks '{name}: PASS'")
    try:
        problems += _inconsistencies(checks)
    except (KeyError, TypeError) as exc:
        problems.append(f"malformed report ({exc!r})")
    if reference is not None:
        problems += compare(stable(payload), reference)
    return problems, _digest(stable(payload))


def _inconsistencies(checks):
    """Pass flags that do not follow from the reported numbers."""
    out = []
    dec = checks["decrement"]
    for i, p in enumerate(dec["probes"]):
        if not p["mean_V_next"] <= p["bound"] + dec["z"] * p["stderr"]:
            out.append(f"decrement probe {i} ({p['label']}) exceeds its bound")
    if not checks["bound"]["max_sup_V"] <= checks["bound"]["threshold"]:
        out.append("bound: max_sup_V exceeds the threshold")
    if checks["rate"]["failing_steps"]:
        out.append("rate: failing steps reported")
    return out


def check_simulate(out_dir, rc, trials, horizon, theta_star, gamma, reference=None):
    """Problems with one `simulate --emit-plot-data` op; returns (problems, digest).

    Each trace is re-parsed, V is recomputed from its theta/vartheta columns
    with lyapunov.lyapunov_value, and summary.json's sup_V_per_trial must
    match the traces.
    """
    out_dir = Path(out_dir)
    problems = [] if rc == 0 else [f"exit code {rc}"]
    summary = _load_json(out_dir / "summary.json", problems)
    if summary is None:
        return problems, None
    sup = summary.get("sup_V_per_trial", [])
    if summary.get("trials") != trials or len(sup) != trials:
        problems.append(f"summary.json does not describe {trials} trials")
        return problems, None
    n = len(theta_star)
    hasher = hashlib.sha256()
    for t in range(trials):
        path = out_dir / f"trace_{t}.csv"
        try:
            raw = path.read_bytes()
        except OSError as exc:
            problems.append(f"cannot read {path.name}: {exc}")
            continue
        hasher.update(raw)
        lines = raw.decode("utf-8").splitlines()
        header = lines[0].split(",") if lines else []
        try:
            data = np.loadtxt(lines[1:], delimiter=",", ndmin=2)
            cols = {name: data[:, header.index(name)] for name in
                    [f"theta_{i}" for i in range(n)]
                    + [f"vartheta_{i}" for i in range(n)] + ["V"]}
        except ValueError as exc:
            problems.append(f"{path.name}: unparsable ({exc})")
            continue
        if data.shape[0] != horizon + 1:
            problems.append(f"{path.name}: {data.shape[0]} rows, expected {horizon + 1}")
        state = TunerState(
            theta=np.stack([cols[f"theta_{i}"] for i in range(n)], axis=1),
            vartheta=np.stack([cols[f"vartheta_{i}"] for i in range(n)], axis=1))
        v = lyapunov_value(state, theta_star, gamma)
        if not np.allclose(cols["V"], v, rtol=TRACE_RTOL, atol=0.0):
            problems.append(f"{path.name}: V column disagrees with lyapunov_value")
        if not math.isclose(float(np.max(cols["V"])), sup[t], rel_tol=TRACE_RTOL):
            problems.append(f"summary sup_V_per_trial[{t}] disagrees with {path.name}")
    if not (out_dir / "plotdata.csv").is_file():
        problems.append("plotdata.csv missing")
    if reference is not None:
        problems += compare(stable(summary), reference)
    hasher.update(_digest(stable(summary)).encode())
    return problems, hasher.hexdigest()


def _digest(payload):
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()
