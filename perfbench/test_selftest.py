"""Self-test of the benchmark harness.

    python3 -m pytest -q perfbench/test_selftest.py

Each workload runs shrunk (horizon 200, 4 trials) through the same harness
path as a real run. The tests check that every metric of BENCHMARK.json is
printed with its unit, and that a corrupted report counts as a failed op.
"""
import json
import re

import pytest

import run

run.bootstrap()
import harness  # noqa: E402  (needs the checkout's src on sys.path)

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
OTHER_SEED = 7


def _shrunk(workload, trace, seed=harness.DEFAULT_SEED, after_op=None):
    return harness.run_benchmark(workload, seed, 0.5, trace, shrunk=True, after_op=after_op)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", list(harness.WORKLOADS))
def test_every_metric_is_printed_with_its_unit(workload, trace):
    result, lines = _shrunk(workload, trace)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    expected = {m["name"]: m["unit"] for m in BENCHMARK["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    text = "\n".join(lines)
    for name, unit in expected.items():
        value = result["metrics"][name]["value"]
        assert isinstance(value, (int, float)) and value == value
        assert re.search(rf"^# {re.escape(name)}\s+\S+\s+{re.escape(unit)}\b", text, re.M), name
    assert "failed_frac 0)" in text
    assert json.loads(json.dumps(result)) == result


def test_other_seed_passes_without_reference():
    result, _ = _shrunk("verify-reference", False, seed=OTHER_SEED)
    assert result["correct"] and result["failed"] == 0


def _rewrite_json(path, edit):
    payload = json.loads(path.read_text(encoding="utf-8"))
    edit(payload)
    path.write_text(json.dumps(payload), encoding="utf-8")


def _nudge_probe_mean(out_dir):
    """A change far below any check's slack, caught only by the reference."""
    def edit(payload):
        payload["checks"]["decrement"]["probes"][0]["mean_V_next"] *= 1.0 + 1e-6
    _rewrite_json(out_dir / "verify_all.json", edit)


def _break_probe_bound(out_dir):
    def edit(payload):
        probe = payload["checks"]["decrement"]["probes"][-1]
        probe["mean_V_next"] = probe["bound"] + 1.0
    _rewrite_json(out_dir / "verify_all.json", edit)


def _corrupt_trace_v(out_dir):
    path = out_dir / "trace_0.csv"
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    row = lines[5].split(",")
    col = header.index("V")
    row[col] = repr(float(row[col]) * 1.001)
    lines[5] = ",".join(row)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


@pytest.mark.parametrize("workload, seed, corrupt", [
    ("verify-reference", harness.DEFAULT_SEED, _nudge_probe_mean),
    ("verify-long-random", OTHER_SEED, _break_probe_bound),
    ("simulate-reference", OTHER_SEED, _corrupt_trace_v),
])
def test_corrupted_output_counts_as_failed(workload, seed, corrupt):
    result, _ = _shrunk(workload, True, seed=seed, after_op=corrupt)
    assert not result["correct"]
    assert result["failed"] == result["attempted"]
    assert result["metrics"]["failed_frac"]["value"] == 1.0
