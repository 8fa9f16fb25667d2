"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings

# `--hypothesis-profile weekly` (the weekly workflow) gives every property
# test that does not pin its own max_examples ten times the default budget.
settings.register_profile("weekly", max_examples=1000)


def pytest_configure(config) -> None:
    # The socket/cluster tests carry @pytest.mark.timeout(...) so a wedged
    # process cannot hang CI (pytest-timeout is in the dev requirements).
    # When the plugin is absent the marker must still be registered — the
    # timeouts then simply don't enforce, they never break collection.
    config.addinivalue_line(
        "markers",
        "timeout(seconds): per-test timeout, enforced by pytest-timeout")

from repro.data import make_blobs_dataset
from repro.nn import build_model
from repro.nn.schedules import ConstantSchedule
from repro.obs import MetricsRegistry, use_registry


@pytest.fixture()
def rng() -> np.random.Generator:
    """A deterministic random generator."""
    return np.random.default_rng(1234)


@pytest.fixture()
def no_fallbacks():
    """Run the test under a live registry and require that no implicit
    one-lane run was re-run on the sequential simulator — an engine bug
    must fail the test, not hide as a correct-but-slower scenario."""
    registry = MetricsRegistry()
    with use_registry(registry):
        yield registry
    assert registry.counter("repro_runtime_fallback_total").series == {}


@pytest.fixture(scope="session")
def blobs_split():
    """A small, easy classification task shared across integration tests."""
    dataset = make_blobs_dataset(num_samples=600, num_classes=3, num_features=4,
                                 cluster_std=0.8, seed=7)
    return dataset.split(0.8, seed=7)


@pytest.fixture()
def softmax_model_fn():
    """Factory producing identically-initialised linear classifiers."""
    return lambda: build_model("softmax", in_features=4, num_classes=3, seed=11)


@pytest.fixture()
def mlp_model_fn():
    """Factory producing identically-initialised small MLPs."""
    return lambda: build_model("mlp", in_features=4, hidden=(16,), num_classes=3, seed=11)


@pytest.fixture()
def fast_schedule():
    """A learning rate large enough for quick convergence on toy data."""
    return ConstantSchedule(0.05)
