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
engine's result caching (pass ``store``) and parallel execution (pass
``processes``) for free.  Each returns ``(rows, histories)``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.campaign.engine import run_campaign
from repro.campaign.spec import ScenarioSpec
from repro.campaign.store import ResultStore
from repro.core import ClusterConfig
from repro.experiments.common import workload_attack_kwargs
from repro.experiments.figure3 import accuracy_summary
from repro.metrics import throughput_updates_per_second
from repro.obs.history import TrainingHistory

Result = Tuple[List[Dict], Dict[str, TrainingHistory]]


def _execute(name: str, scenarios: List[ScenarioSpec],
             store: Optional[ResultStore],
             processes: Optional[int]) -> Dict[str, TrainingHistory]:
    """Run a harness campaign; any failed scenario raises."""
    return run_campaign(scenarios, name=name, store=store,
                        processes=processes).raise_on_failure().histories()


def run_gar_ablation(base: Optional[ScenarioSpec] = None,
                     store: Optional[ResultStore] = None,
                     processes: Optional[int] = None, *,
                     rules: Sequence[str] = ("multi_krum", "median",
                                             "trimmed_mean", "mean"),
                     ) -> Result:
    """Compare server-side gradient aggregation rules under a worker attack.

    The robust rules should converge; the arithmetic mean should not — this
    is the ablation backing the paper's choice of Multi-Krum for phase 2.
    Rows (one per rule, ``system`` = rule) from :func:`accuracy_summary`.
    """
    base = base if base is not None else ScenarioSpec()
    scenarios = [
        base.replace(
            name=rule, gradient_rule=rule,
            worker_attack={"name": "random_gradient",
                           "kwargs": {"scale": 100.0}},
            num_attacking_workers=base.declared_byzantine_workers)
        for rule in rules
    ]
    histories = _execute("gar-ablation", scenarios, store, processes)
    return accuracy_summary(histories), histories


def default_attack_suite(dataset: str) -> Dict[str, Dict]:
    """The attack sweep's suite: name → scenario fields setting the attack."""
    worker = {"random_gradient": {"scale": 100.0},
              "reversed_gradient": {"factor": 10.0},
              "sign_flip": {},
              "little_is_enough": {"z_factor": 1.5},
              "label_flip": workload_attack_kwargs("label_flip", dataset),
              "silent_worker": {}}
    server = {"corrupted_model": {"noise_scale": 100.0},
              "equivocation": {"magnitude": 50.0}}
    suite = {name: {"worker_attack": {"name": name, "kwargs": kwargs}}
             for name, kwargs in worker.items()}
    suite.update({name: {"server_attack": {"name": name, "kwargs": kwargs}}
                  for name, kwargs in server.items()})
    return suite


def run_attack_sweep(base: Optional[ScenarioSpec] = None,
                     store: Optional[ResultStore] = None,
                     processes: Optional[int] = None, *,
                     attacks: Optional[Dict[str, Dict]] = None) -> Result:
    """Run GuanYu against every attack in the suite (workers and servers).

    A suite entry is a patch of scenario fields (``worker_attack``,
    ``server_attack``, ``gradient_rule``, ...).  An attacked side defaults
    to every declared Byzantine node attacking.  Rows (``system`` = suite
    name) from :func:`accuracy_summary`.
    """
    base = base if base is not None else ScenarioSpec()
    if attacks is None:
        attacks = default_attack_suite(base.dataset)
    scenarios = []
    for name, entry in attacks.items():
        # The sweep names the scenario after the suite key.
        if "name" in entry:
            raise ValueError("attack suite entries cannot override 'name'; "
                             "the sweep derives it from the suite key")
        overrides: Dict[str, object] = {"name": name}
        if "worker_attack" in entry:
            overrides["num_attacking_workers"] = base.declared_byzantine_workers
        if "server_attack" in entry:
            overrides["num_attacking_servers"] = base.declared_byzantine_servers
        scenarios.append(base.replace(**{**overrides, **entry}))
    histories = _execute("attack-sweep", scenarios, store, processes)
    return accuracy_summary(histories), histories


def run_quorum_ablation(base: Optional[ScenarioSpec] = None,
                        store: Optional[ResultStore] = None,
                        processes: Optional[int] = None, *,
                        quorums: Optional[Sequence[int]] = None) -> Result:
    """Vary the gradient quorum ``q̄`` between its minimum and maximum.

    Larger quorums make every step slower (more waiting) but aggregate more
    gradients, improving per-update progress — the trade-off discussed in
    the paper's Section 5.3.  Rows: :func:`accuracy_summary` plus the
    ``gradient_quorum`` of each run.
    """
    base = base if base is not None else ScenarioSpec()
    if quorums is None:
        config = base.cluster_config()
        quorums = sorted({config.min_gradient_quorum, config.max_gradient_quorum})
    scenarios = [base.replace(name=f"q={quorum}", gradient_quorum=quorum)
                 for quorum in quorums]
    histories = _execute("quorum-ablation", scenarios, store, processes)
    return [{"gradient_quorum": quorum, **row} for quorum, row
            in zip(quorums, accuracy_summary(histories))], histories


def run_scaling_study(base: Optional[ScenarioSpec] = None,
                      store: Optional[ResultStore] = None,
                      processes: Optional[int] = None, *,
                      worker_counts: Sequence[int] = (6, 9, 12, 18)
                      ) -> Result:
    """Throughput (updates per simulated second) as the worker pool grows.

    The declared Byzantine workers shrink where a small pool cannot hold
    the base's ``f̄`` (``n̄ ≥ 3f̄ + 3``).
    """
    base = base if base is not None else ScenarioSpec()
    declared = {
        num_workers: min(base.declared_byzantine_workers,
                         ClusterConfig.max_admissible_byzantine(num_workers))
        for num_workers in worker_counts
    }
    scenarios = [
        base.replace(name=f"workers={num_workers}", num_workers=num_workers,
                     declared_byzantine_workers=declared[num_workers])
        for num_workers in worker_counts
    ]
    histories = _execute("scaling-study", scenarios, store, processes)
    return [{
        "num_workers": num_workers,
        "declared_byzantine_workers": declared[num_workers],
        "throughput": throughput_updates_per_second(history),
        "final_accuracy": history.final_accuracy(),
    } for num_workers, history in zip(worker_counts, histories.values())
    ], histories
