"""Shared fixtures for the paper-shape suite.

Every test here reproduces one table or figure of the paper on a
scaled-down workload and checks the *shape* of the paper's result (who
wins, by roughly what factor).  Each calls its experiment once: an
"iteration" is a complete multi-node training experiment, and how fast the
repository computes it is the perf ledger's question (``bench/README.md``),
not this suite's.
"""

from __future__ import annotations

import pytest

from repro.campaign.spec import ScenarioSpec
from repro.experiments import paper_like


@pytest.fixture(scope="session")
def bench_base() -> ScenarioSpec:
    """The base scenario shared by the experiment benchmarks."""
    # Enough data that every worker shard holds a full 128-sample batch.
    return ScenarioSpec(dataset_size=2400, num_steps=60, eval_every=10)


@pytest.fixture(scope="session")
def paper_like_base() -> ScenarioSpec:
    """The paper's 18-worker / 6-server cluster shape (still a small model)."""
    return paper_like().replace(num_steps=40, eval_every=10,
                                dataset_size=1500, dataset="blobs",
                                model="softmax")
