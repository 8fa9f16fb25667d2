"""Execution runtimes and cost models for the distributed protocol.

:func:`repro.runtime.run` is the front door: it validates a
:class:`~repro.campaign.spec.ScenarioSpec`, resolves the runtime the spec
describes and executes it, returning a :class:`ScenarioResult`.  Four
runtimes sit behind it:

* the **batched runtime** (:mod:`repro.batch`) — replica lanes stacked and
  vectorised in one process; the default for every dense-model GuanYu
  scenario, a lone one being an R = 1 lane;
* the **simulated runtime** (driven by :mod:`repro.core.trainer` over
  :class:`repro.network.NetworkSimulator`) — deterministic, seeded, with a
  simulated clock used for the time-axis of the Figure 3 reproduction;
  bit-identical per seed to the batched runtime, its reference, and the
  only engine for conv models and the single-server baselines;
* the **threaded runtime** (:mod:`repro.runtime.threads`) — every node runs
  in its own Python thread and exchanges messages over real queues, which
  exercises genuine concurrency, out-of-order delivery and wall-clock timing;
* the **cluster runtime** (:mod:`repro.runtime.cluster`) — one OS process
  per node over real sockets, under a supervising daemon.

Every runtime derives its nodes from one :mod:`repro.core.wiring`; the two
wall-clock ones run them on one loop, :mod:`repro.runtime.live`.

:class:`repro.runtime.cost.CostModel` accounts for local computation time
(gradient computation, robust aggregation, model updates and the
tensor↔numpy serialisation overhead the paper discusses in Section 4).
"""

from repro.runtime.cost import CostModel, GRID5000_LIKE, INSTANT
from repro.runtime.facade import (
    RUNTIME_KINDS,
    ScenarioResult,
    resolve_runtime,
    run,
)

__all__ = [
    "CostModel",
    "GRID5000_LIKE",
    "INSTANT",
    "RUNTIME_KINDS",
    "ScenarioResult",
    "ThreadedClusterRuntime",
    "ThreadedNodeHandle",
    "resolve_runtime",
    "run",
]


def __getattr__(name: str):
    # Lazy: a cluster node process never loads the threaded runtime.
    if name in ("ThreadedClusterRuntime", "ThreadedNodeHandle"):
        from repro.runtime import threads

        return getattr(threads, name)
    raise AttributeError(f"module 'repro.runtime' has no attribute {name!r}")
