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

from repro.experiments import ExperimentScale


@pytest.fixture(scope="session")
def bench_scale() -> ExperimentScale:
    """The workload scale shared by the experiment benchmarks."""
    scale = ExperimentScale.small()
    # Enough data that every worker shard holds a full 128-sample batch.
    scale.dataset_size = 2400
    scale.num_steps = 60
    scale.eval_every = 10
    return scale


@pytest.fixture(scope="session")
def paper_like_scale() -> ExperimentScale:
    """The paper's 18-worker / 6-server cluster shape (still a small model)."""
    scale = ExperimentScale.paper_like()
    scale.num_steps = 40
    scale.eval_every = 10
    scale.dataset_size = 1500
    scale.dataset = "blobs"
    scale.model = "softmax"
    return scale

