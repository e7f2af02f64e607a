"""Fuzzed configs: every malformed input is a ConfigError and exit 2, never a crash."""
import contextlib
import copy
import functools
import io
import json
import operator
import os
import tempfile

from hypothesis import given, settings, strategies as st

from hot_tuner.cli import main
from hot_tuner.config import ConfigError, RunConfig

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
@given(MUTATIONS)
def test_from_dict_returns_a_config_or_raises_config_error(mutations):
    try:
        assert isinstance(RunConfig.from_dict(mutate(reference_dict(), mutations)), RunConfig)
    except ConfigError:
        pass


@settings(max_examples=100, deadline=None)
@given(MUTATIONS)
def test_constants_command_exits_0_or_2(mutations):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "config.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(mutate(reference_dict(), mutations), fh)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            rc = main(["constants", path])
    assert rc in (0, 2), err.getvalue()
    assert "Traceback" not in err.getvalue()
