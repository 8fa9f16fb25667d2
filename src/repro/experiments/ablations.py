"""Ablation studies for the protocol's design choices.

* :func:`run_gar_ablation` — swap the gradient aggregation rule at the
  parameter servers (Multi-Krum vs. median vs. mean, ...) under attack;
* :func:`run_attack_sweep` — GuanYu against every registered attack;
* :func:`run_quorum_ablation` — effect of the quorum size ``q̄`` on
  throughput and per-update quality (the paper's §5.3 observation);
* :func:`run_scaling_study` — throughput as cluster size grows.

Every harness is a thin *campaign definition*: it builds a list of
:class:`~repro.campaign.spec.ScenarioSpec` and hands them to
:func:`~repro.campaign.engine.run_campaign`, so all of them inherit the
engine's result caching (pass ``store=``) and parallel execution (pass
``processes=``) for free.  Outputs are unchanged from the pre-campaign
sequential loops for a fixed seed.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.adversary import (
    CorruptedModelAttack,
    EquivocationAttack,
    LabelFlipPoisoning,
    LittleIsEnoughAttack,
    RandomGradientAttack,
    ReversedGradientAttack,
    SignFlipAttack,
    SilentWorker,
)
from repro.campaign.engine import run_campaign
from repro.campaign.spec import AttackSpec, CampaignSpec, ScenarioSpec
from repro.campaign.store import ResultStore
from repro.core import ClusterConfig
from repro.experiments.common import ExperimentScale, build_workload
from repro.metrics import TrainingHistory, throughput_updates_per_second


def _execute(name: str, scenarios: List[ScenarioSpec],
             store: Optional[ResultStore],
             processes: Optional[int]) -> Dict[str, TrainingHistory]:
    """Run a harness campaign; failures propagate as they did pre-campaign."""
    result = run_campaign(CampaignSpec(name=name, scenarios=scenarios),
                          store=store, processes=processes)
    result.raise_on_failure()
    return result.histories()


def run_gar_ablation(scale: Optional[ExperimentScale] = None,
                     rules: Sequence[str] = ("multi_krum", "median",
                                             "trimmed_mean", "mean"),
                     store: Optional[ResultStore] = None,
                     processes: Optional[int] = None,
                     ) -> Dict[str, TrainingHistory]:
    """Compare server-side gradient aggregation rules under a worker attack.

    The robust rules should converge; the arithmetic mean should not — this
    is the ablation backing the paper's choice of Multi-Krum for phase 2.
    """
    scale = scale if scale is not None else ExperimentScale.small()
    base = ScenarioSpec.from_scale(scale)
    scenarios = [
        base.replace(
            name=f"gar-{rule}", gradient_rule=rule,
            worker_attack=AttackSpec("random_gradient", {"scale": 100.0}),
            num_attacking_workers=scale.declared_byzantine_workers)
        for rule in rules
    ]
    histories = _execute("gar-ablation", scenarios, store, processes)
    return {rule: histories[f"gar-{rule}"] for rule in rules}


def default_attack_suite(num_classes: int = 4) -> Dict[str, Dict]:
    """The attack matrix used by :func:`run_attack_sweep`."""
    return {
        "random_gradient": {"worker_attack": RandomGradientAttack(scale=100.0)},
        "reversed_gradient": {"worker_attack": ReversedGradientAttack(factor=10.0)},
        "sign_flip": {"worker_attack": SignFlipAttack()},
        "little_is_enough": {"worker_attack": LittleIsEnoughAttack(z_factor=1.5)},
        "label_flip": {"worker_attack": LabelFlipPoisoning(num_classes=num_classes)},
        "silent_worker": {"worker_attack": SilentWorker()},
        "corrupted_model": {"server_attack": CorruptedModelAttack(noise_scale=100.0)},
        "equivocation": {"server_attack": EquivocationAttack(magnitude=50.0)},
    }


def run_attack_sweep(scale: Optional[ExperimentScale] = None,
                     attacks: Optional[Dict[str, Dict]] = None,
                     store: Optional[ResultStore] = None,
                     processes: Optional[int] = None,
                     ) -> Dict[str, TrainingHistory]:
    """Run GuanYu against every attack in the suite (workers and servers).

    Suite entries may carry extra scenario fields (``gradient_rule``,
    ``num_workers``, ...) next to the attack instance.  Attack instances
    must come from the Byzantine registry so the sweep can be expressed as
    (serialisable, cacheable) campaign scenarios.
    """
    scale = scale if scale is not None else ExperimentScale.small()
    _, _, _, num_classes = build_workload(scale)
    attacks = attacks if attacks is not None else default_attack_suite(num_classes)
    base = ScenarioSpec.from_scale(scale)
    scenarios = []
    for name, suite_entry in attacks.items():
        entry = dict(suite_entry)
        overrides: Dict[str, object] = {"name": f"attack-{name}"}
        if "worker_attack" in entry:
            overrides["worker_attack"] = \
                AttackSpec.from_attack(entry.pop("worker_attack"))
            overrides["num_attacking_workers"] = entry.pop(
                "num_attacking_workers", scale.declared_byzantine_workers)
        if "server_attack" in entry:
            overrides["server_attack"] = \
                AttackSpec.from_attack(entry.pop("server_attack"))
            overrides["num_attacking_servers"] = entry.pop(
                "num_attacking_servers", scale.declared_byzantine_servers)
        # Remaining suite keys are scenario fields (e.g. ``gradient_rule``);
        # unknown keys raise instead of being silently dropped.
        if "name" in entry:
            raise ValueError("attack suite entries cannot override 'name'; "
                             "the sweep derives it from the suite key")
        overrides.update(entry)
        scenarios.append(base.replace(**overrides))
    histories = _execute("attack-sweep", scenarios, store, processes)
    return {name: histories[f"attack-{name}"] for name in attacks}


def run_quorum_ablation(scale: Optional[ExperimentScale] = None,
                        quorums: Optional[Sequence[int]] = None,
                        store: Optional[ResultStore] = None,
                        processes: Optional[int] = None,
                        ) -> Dict[int, TrainingHistory]:
    """Vary the gradient quorum ``q̄`` between its minimum and maximum.

    Larger quorums make every step slower (more waiting) but aggregate more
    gradients, improving per-update progress — the trade-off discussed in
    the paper's Section 5.3.
    """
    scale = scale if scale is not None else ExperimentScale.small()
    config = ClusterConfig(num_servers=scale.num_servers,
                           num_workers=scale.num_workers,
                           num_byzantine_servers=scale.declared_byzantine_servers,
                           num_byzantine_workers=scale.declared_byzantine_workers)
    if quorums is None:
        quorums = sorted({config.min_gradient_quorum, config.max_gradient_quorum})
    base = ScenarioSpec.from_scale(scale)
    scenarios = [base.replace(name=f"quorum-{quorum}", gradient_quorum=quorum)
                 for quorum in quorums]
    histories = _execute("quorum-ablation", scenarios, store, processes)
    return {quorum: histories[f"quorum-{quorum}"] for quorum in quorums}


def run_scaling_study(scale: Optional[ExperimentScale] = None,
                      worker_counts: Sequence[int] = (6, 9, 12, 18),
                      num_steps: int = 20,
                      store: Optional[ResultStore] = None,
                      processes: Optional[int] = None,
                      ) -> List[Dict[str, float]]:
    """Throughput (updates per simulated second) as the worker pool grows."""
    scale = scale if scale is not None else ExperimentScale.small()
    base = ScenarioSpec.from_scale(scale, num_steps=num_steps,
                                   eval_every=num_steps)
    declared_counts = {
        num_workers: min(scale.declared_byzantine_workers,
                         ClusterConfig.max_admissible_byzantine(num_workers))
        for num_workers in worker_counts
    }
    scenarios = [
        base.replace(name=f"scaling-{num_workers}", num_workers=num_workers,
                     declared_byzantine_workers=declared_counts[num_workers])
        for num_workers in worker_counts
    ]
    histories = _execute("scaling-study", scenarios, store, processes)
    rows = []
    for num_workers in worker_counts:
        history = histories[f"scaling-{num_workers}"]
        rows.append({
            "num_workers": num_workers,
            "declared_byzantine_workers": declared_counts[num_workers],
            "throughput": throughput_updates_per_second(history),
            "final_accuracy": history.final_accuracy(),
        })
    return rows
