"""Figure 4: impact of Byzantine players on convergence.

Three systems run under attack:

* **vanilla TF** with no Byzantine node (reference);
* **vanilla TF (Byzantine)** — the same deployment with one Byzantine worker
  sending corrupted gradients: convergence collapses;
* **GuanYu (f̄, f)** — Byzantine workers *and* a Byzantine parameter server
  actively attacking: convergence is preserved.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.adversary import EquivocationAttack, RandomGradientAttack, ServerAttack, WorkerAttack
from repro.campaign.engine import run_campaign
from repro.campaign.spec import AttackSpec, CampaignSpec, ScenarioSpec
from repro.metrics import TrainingHistory

FIGURE4_SYSTEMS = ("vanilla_tf", "vanilla_tf_byzantine", "guanyu_byzantine")


@dataclass
class Figure4Result:
    """Histories of the three Figure 4 curves."""

    histories: Dict[str, TrainingHistory] = field(default_factory=dict)

    def final_accuracies(self) -> Dict[str, float]:
        return {name: history.final_accuracy()
                for name, history in self.histories.items()}


def run_figure4(base: Optional[ScenarioSpec] = None,
                worker_attack: Optional[WorkerAttack] = None,
                server_attack: Optional[ServerAttack] = None,
                num_attacking_workers: Optional[int] = None,
                num_attacking_servers: int = 1,
                store=None, processes: Optional[int] = None) -> Figure4Result:
    """Run the Figure 4 comparison.

    By default the attacks are the paper's "totally corrupted data" worker
    attack and the "different bad models to different workers" equivocating
    server; both can be swapped for any *registered* attack instance (the
    attack-sweep ablation does exactly that) — the run is expressed as
    campaign scenarios, which must be serialisable.
    """
    base = base if base is not None else ScenarioSpec()
    worker_attack = worker_attack if worker_attack is not None else \
        RandomGradientAttack(scale=100.0)
    server_attack = server_attack if server_attack is not None else \
        EquivocationAttack(magnitude=50.0)
    if num_attacking_workers is None:
        num_attacking_workers = base.declared_byzantine_workers
    # The guarantees (and the trainer's validation) only cover attacks within
    # the declared Byzantine counts.
    num_attacking_workers = min(num_attacking_workers,
                                base.declared_byzantine_workers)
    num_attacking_servers = min(num_attacking_servers,
                                base.declared_byzantine_servers)

    worker_attack_spec = AttackSpec.from_attack(worker_attack)
    server_attack_spec = AttackSpec.from_attack(server_attack)
    scenarios = [
        # Reference: vanilla TF without any Byzantine node.
        base.replace(name="vanilla_tf", trainer="vanilla",
                     gradient_rule="mean"),
        # Vanilla TF with a single Byzantine worker: averaging has breakdown 0.
        base.replace(name="vanilla_tf_byzantine", trainer="vanilla",
                     gradient_rule="mean", worker_attack=worker_attack_spec,
                     num_attacking_workers=1),
        # GuanYu under simultaneous worker and server attacks.
        base.replace(name="guanyu_byzantine", trainer="guanyu",
                     worker_attack=worker_attack_spec,
                     num_attacking_workers=num_attacking_workers,
                     server_attack=server_attack_spec,
                     num_attacking_servers=num_attacking_servers),
    ]
    campaign_result = run_campaign(CampaignSpec(name="figure4",
                                                scenarios=scenarios),
                                   store=store, processes=processes)
    campaign_result.raise_on_failure()
    return Figure4Result(histories=campaign_result.histories())
