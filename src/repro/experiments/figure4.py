"""Figure 4: impact of Byzantine players on convergence.

Three systems run under attack:

* **vanilla TF** with no Byzantine node (reference);
* **vanilla TF (Byzantine)** — the same deployment with one Byzantine worker
  sending corrupted gradients: convergence collapses;
* **GuanYu (f̄, f)** — Byzantine workers *and* a Byzantine parameter server
  actively attacking: convergence is preserved.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.campaign.engine import run_campaign
from repro.campaign.spec import ScenarioSpec
from repro.campaign.store import ResultStore
from repro.experiments.figure3 import accuracy_summary
from repro.obs.history import TrainingHistory


def run_figure4(base: Optional[ScenarioSpec] = None,
                store: Optional[ResultStore] = None,
                processes: Optional[int] = None
                ) -> Tuple[List[Dict], Dict[str, TrainingHistory]]:
    """Run the Figure 4 comparison; rows from :func:`accuracy_summary`.

    The attacks are the base's ``worker_attack`` / ``server_attack``, by
    default the paper's "totally corrupted data" worker attack and the
    "different bad models to different workers" equivocating server.
    GuanYu faces the base's ``num_attacking_workers`` (default: every
    declared Byzantine worker) and ``num_attacking_servers`` (default: one),
    capped at the declared counts the guarantees cover.
    """
    base = base if base is not None else ScenarioSpec()
    worker_attack = base.worker_attack or {"name": "random_gradient",
                                           "kwargs": {"scale": 100.0}}
    server_attack = base.server_attack or {"name": "equivocation",
                                           "kwargs": {"magnitude": 50.0}}
    workers, servers = base.num_attacking_workers, base.num_attacking_servers
    clean = base.replace(worker_attack=None, num_attacking_workers=None,
                         server_attack=None, num_attacking_servers=None)
    vanilla = clean.replace(trainer="vanilla", gradient_rule="mean")
    scenarios = [
        # Reference: vanilla TF without any Byzantine node.
        vanilla.replace(name="vanilla_tf"),
        # Vanilla TF with a single Byzantine worker: averaging has breakdown 0.
        vanilla.replace(name="vanilla_tf_byzantine",
                        worker_attack=worker_attack, num_attacking_workers=1),
        # GuanYu under simultaneous worker and server attacks.
        clean.replace(
            name="guanyu_byzantine", trainer="guanyu",
            worker_attack=worker_attack,
            num_attacking_workers=base.declared_byzantine_workers
            if workers is None else min(workers,
                                        base.declared_byzantine_workers),
            server_attack=server_attack,
            num_attacking_servers=min(1 if servers is None else servers,
                                      base.declared_byzantine_servers)),
    ]
    histories = run_campaign(scenarios, name="figure4", store=store,
                             processes=processes).raise_on_failure().histories()
    return accuracy_summary(histories), histories
