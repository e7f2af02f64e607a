"""Fuzzed configs: every malformed input is a ConfigError and exit 2, never a crash;
`verify` and `simulate` on a mutated config never exit 4, and every JSON they
write is strict (no NaN or Infinity tokens)."""
import contextlib
import copy
import functools
import io
import json
import operator
import os
import tempfile
from dataclasses import fields

import pytest
from hypothesis import given, settings, strategies as st

from hot_tuner.cli import main
from hot_tuner.config import _KINDS, ConfigError, RunConfig

from conftest import reference_dict

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner,
                                                                  max_size=3),
    max_leaves=6)

# numbers get their own branch: extreme magnitudes are what reach the arithmetic
NUMBERS = st.integers() | st.floats(allow_nan=False, allow_infinity=False)

# (operation, which path, new key, new value)
MUTATIONS = st.lists(st.tuples(
    st.sampled_from(("drop", "replace", "add")), st.integers(0, 63), st.text(max_size=6),
    NUMBERS | JSON_VALUES), min_size=1, max_size=3)


# one spec per regressor and noise kind, each setting every key its model class takes
REGRESSORS = (
    {"kind": "constant", "value": [1.0, -1.0], "phi_bound": 2.0},
    {"kind": "sinusoid", "amplitude": [1.0, 1.0], "omega": 0.5, "phase": [0.0, 1.5],
     "phi_bound": 2.0},
    {"kind": "iid_bounded", "bound": 2.0},
    {"kind": "piecewise_constant", "bound": 2.0, "dwell": 7,
     "levels": [[1.0, 0.5], [-1.5, 1.0]]},
)
NOISES = (
    {"kind": "zero"},
    {"kind": "biased_gaussian", "bias": 0.1, "sd": 0.48, "truncation": 2.5},
    {"kind": "uniform_biased", "center": 0.1, "halfwidth": 0.5},
    {"kind": "state_dependent_bias", "d_amplitude": 0.1, "sd": 0.45},
)
# the reference config with every optional top-level key set, over each pair of kinds
BASES = [reference_dict(regressor=r, noise=n, vartheta0=[0.5, -0.25], alpha=5e-4)
         for r in REGRESSORS for n in NOISES]
BASE_CONFIGS = st.sampled_from(BASES)


@pytest.mark.parametrize("base", BASES)
def test_every_base_loads_and_sets_every_key_of_its_kinds(base):
    RunConfig.from_dict(base)
    for section in ("regressor", "noise"):
        spec = base[section]
        cls = _KINDS[section][spec["kind"]]
        assert set(spec) == {"kind"} | {f.name for f in fields(cls)} - {"dimension"}


def paths(node, prefix=()):
    """The path of every value under node, into nested dicts and lists."""
    for key, value in node.items() if isinstance(node, dict) else enumerate(node):
        yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from paths(value, prefix + (key,))


def mutate(d, mutations):
    """d with values replaced, and keys dropped or added beside them."""
    d = copy.deepcopy(d)
    for op, index, new_key, value in mutations:
        every = list(paths(d))
        if not every:
            break
        path = every[index % len(every)]
        parent = functools.reduce(operator.getitem, path[:-1], d)
        if op == "replace":
            parent[path[-1]] = value
        elif isinstance(parent, dict):
            if op == "drop":
                del parent[path[-1]]
            else:
                parent[new_key] = value
    return d


@settings(max_examples=200, deadline=None)
@given(BASE_CONFIGS, MUTATIONS)
def test_from_dict_returns_a_config_or_raises_config_error(base, mutations):
    try:
        assert isinstance(RunConfig.from_dict(mutate(base, mutations)), RunConfig)
    except ConfigError:
        pass


@settings(max_examples=100, deadline=None)
@given(BASE_CONFIGS, MUTATIONS)
def test_constants_command_exits_0_or_2(base, mutations):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "config.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(mutate(base, mutations), fh)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            rc = main(["constants", path])
    assert rc in (0, 2), err.getvalue()
    assert "Traceback" not in err.getvalue()


def reject_constant(token):
    raise ValueError(f"non-JSON constant {token}")


def run_on_mutated(base, mutations, *argv):
    """(exit code, stderr) of a command on a mutated base config at 60 steps,
    3 trials and 100 resamples; every JSON it writes must parse strictly."""
    d = mutate(base, mutations)
    d.update(horizon=60, ensemble=3, resamples=100)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "config.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(d, fh)
        out = os.path.join(tmp, "out")
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            rc = main([argv[0], path, *argv[1:], "--out", out])
        for name in os.listdir(out) if os.path.isdir(out) else ():
            if name.endswith(".json"):
                with open(os.path.join(out, name), encoding="utf-8") as fh:
                    json.load(fh, parse_constant=reject_constant)
    return rc, err.getvalue()


@settings(max_examples=60, deadline=None)
@given(BASE_CONFIGS, MUTATIONS)
def test_verify_command_never_exits_4(base, mutations):
    # small enough that the whole check runs
    rc, err = run_on_mutated(base, mutations, "verify", "--check", "all")
    assert rc in (0, 1, 2, 3), err
    assert "Traceback" not in err


@settings(max_examples=60, deadline=None)
@given(BASE_CONFIGS, MUTATIONS)
def test_simulate_command_never_exits_4(base, mutations):
    rc, err = run_on_mutated(base, mutations, "simulate", "--trials", "2", "--emit-plot-data")
    assert rc in (0, 2, 3), err
    assert "Traceback" not in err
