"""GuanYu: Byzantine-resilient SGD with replicated, untrusted parameter servers.

This package contains the paper's primary contribution:

* :class:`ClusterConfig` — the ``(n, f, n̄, f̄, q, q̄)`` arithmetic of
  Section 3.2, with every constraint checked;
* :class:`WorkerNode` / :class:`ServerNode` — the per-node state machines
  (model aggregation with the coordinate-wise median, gradient computation,
  Multi-Krum aggregation, local SGD update, inter-server model exchange);
* :class:`GuanYuTrainer` — the sequential simulator: the three-phase
  protocol of Section 3.3 over the asynchronous network simulator, and the
  single-trusted-server baselines of Section 5.3 ("vanilla TF", "vanilla
  GuanYu", single-server Multi-Krum) as its first two phases, reached
  through ``repro.run(ScenarioSpec(trainer=...))``.
"""

from repro.core.config import ClusterConfig
from repro.core.nodes import ServerNode, WorkerNode
from repro.core.trainer import GuanYuTrainer

__all__ = [
    "ClusterConfig",
    "WorkerNode",
    "ServerNode",
    "GuanYuTrainer",
]
