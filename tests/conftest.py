import json
import os

import pytest

from hot_tuner import cli, verify
from hot_tuner.config import RunConfig

REFERENCE_PATH = os.path.join(os.path.dirname(__file__), "..", "configs",
                              "reference.json")


def reference_dict(**overrides):
    with open(REFERENCE_PATH, "r", encoding="utf-8") as fh:
        d = json.load(fh)
    d.update(overrides)
    return d


@pytest.fixture(autouse=True)
def no_stray_cli_warning(monkeypatch):
    """Fail a test in which a command prints a warning other than gamma > 1/16.

    cli.main prints a warning even where -W error would raise it, so the
    suite's -W error flags cannot fail a command's exit code; this does.
    """
    printed = []

    def record(message, *args, **kwargs):
        printed.append(str(message))
        show(message, *args, **kwargs)

    show = cli._print_warning
    monkeypatch.setattr(cli, "_print_warning", record)
    yield
    assert [m for m in printed if not m.startswith("gamma > 1/16: ")] == []


def rows(src, k0, k1, seed):
    """Regressor rows k0..k1-1 of one seed, (k1-k0, N), from a one-seed batch."""
    return src.generate_batch(k0, k1, [seed])[:, :, 0]


def harvest_alone(cfg):
    """A verify.Harvest fed by the one-wide pass of trial 0 over the harvest's
    horizon, as verify --check decrement runs it."""
    harvest = verify.Harvest(cfg)
    for blk in verify._lockstep(cfg, [cfg.trial_seed(0)], harvest.horizon,
                                cfg.initial_state()):
        harvest.add(blk)
    return harvest


@pytest.fixture
def reference_config():
    return RunConfig.from_dict(reference_dict())


@pytest.fixture
def small_config():
    """Reference config shrunk for fast unit tests."""
    return RunConfig.from_dict(reference_dict(horizon=200, ensemble=8,
                                              resamples=500))


@pytest.fixture
def zero_noise_config():
    d = reference_dict(horizon=200, ensemble=4, resamples=500,
                       noise={"kind": "zero"}, d_max=0.0, sigma_max=0.0)
    return RunConfig.from_dict(d)
