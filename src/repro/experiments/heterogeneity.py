"""Heterogeneity study: accuracy vs. data skew × GAR × adversary.

The paper's convergence guarantees (and the GARs it builds on) assume the
honest workers' gradients are i.i.d. estimates of one true gradient.  As
the honest data distribution fragments — Dirichlet label skew, pathological
shard splits, sample imbalance — the honest gradient spread widens and a
Byzantine vector no longer has to leave the honest cloud to steer the
aggregate: the *empirical* breakdown point of every distance-based rule
degrades.  This harness makes that degradation a reproducible table:

* rows: ``gradient_rule × adversary`` (adversary ``-`` is the honest
  baseline row for the rule);
* columns: heterogeneity levels, from ``iid`` through increasingly skewed
  partitions (``dirichlet=10 … dirichlet=0.1``, ``shards=K``, ...);
* cells: final test accuracy (the histories carry the final training
  loss of the same cells).

Everything runs through the campaign engine, so the study is
content-addressed: given a ``store`` the table is reproduced from cache,
and seed-replica cells batch onto the vectorised runtime.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.campaign.engine import run_campaign
from repro.campaign.spec import AttackSpec, ScenarioSpec
from repro.campaign.store import ResultStore
from repro.experiments.common import workload_attack_kwargs
from repro.hetero import HeteroSpec
from repro.obs.history import TrainingHistory

#: default skew axis: i.i.d. through near-single-class workers
DEFAULT_SKEWS = ("iid", "dirichlet=10", "dirichlet=1", "dirichlet=0.1")


def hetero_axis(skews: Sequence[str],
                min_samples: Optional[int] = None
                ) -> List[Tuple[str, Optional[HeteroSpec]]]:
    """Parse skew tokens into ``(label, hetero)`` pairs.

    ``min_samples`` (typically the scenario's batch size) floors every
    worker's shard so extreme skews cannot starve a worker below one full
    mini-batch — which would silently shrink its batches and conflate
    batch-size effects with the label skew under study.
    """
    axis: List[Tuple[str, Optional[HeteroSpec]]] = []
    for token in skews:
        hetero = HeteroSpec.from_token(token)
        if hetero is not None and min_samples is not None \
                and hetero.partition != "shards":
            hetero.min_samples = max(hetero.min_samples, min_samples)
        axis.append((token, hetero))
    if not axis:
        raise ValueError("need at least one skew token")
    return axis


def run_heterogeneity_study(base: Optional[ScenarioSpec] = None,
                            store: Optional[ResultStore] = None,
                            processes: Optional[int] = None, *,
                            skews: Sequence[str] = DEFAULT_SKEWS,
                            gars: Sequence[str] = ("mean", "median",
                                                   "multi_krum"),
                            adversaries: Sequence[Optional[str]] = (
                                None, "collusion"),
                            seeds: Optional[Sequence[int]] = None,
                            batch_seeds: bool = False,
                            ) -> Tuple[List[Dict[str, object]],
                                       Dict[str, TrainingHistory]]:
    """Sweep skew × GAR × adversary (× seed); returns ``(rows, histories)``.

    ``adversaries`` entries are adversary-registry names (stateless attack
    names are lifted); ``None`` (or ``"none"``) rows run honestly
    and anchor each rule's skew tolerance before any attack is applied.
    The attacking count is the declared Byzantine worker count, i.e. the
    strongest in-model adversary.

    One row per ``(gradient_rule, adversary)``; skew labels become
    columns, so the degradation reads left-to-right and rules/adversaries
    compare top-to-bottom.  ``seeds`` replicates every cell and a cell is
    the **mean** final accuracy over its completed replicas (``None`` when
    none completed) — with ``batch_seeds=True`` the replicas of one cell
    run as a single vectorised multi-replica execution.  Default: the
    base's one seed.
    """
    base = base if base is not None else ScenarioSpec()
    axis = hetero_axis(skews, min_samples=base.batch_size)
    seed_list = list(seeds) if seeds else [base.seed]

    scenarios = []
    cell_labels = []
    for label, hetero in axis:
        for gar in gars:
            for adversary in adversaries:
                adversary = None if adversary in (None, "none") else adversary
                for seed in seed_list:
                    name = f"{label}-{gar}-{adversary or 'honest'}"
                    if len(seed_list) > 1:
                        name += f"-seed={seed}"
                    spec = base.replace(
                        name=name, gradient_rule=gar, hetero=hetero,
                        seed=seed,
                        adversary=(AttackSpec(
                            name=adversary,
                            kwargs=workload_attack_kwargs(adversary,
                                                          base.dataset))
                                   if adversary else None))
                    scenarios.append(spec)
                    cell_labels.append(label)
    result = run_campaign(scenarios, name="heterogeneity", store=store,
                          processes=processes, batch_seeds=batch_seeds)

    rows: Dict[Tuple[str, str], Dict[str, object]] = {}
    samples: Dict[Tuple[str, str, str], List[float]] = {}
    histories: Dict[str, TrainingHistory] = {}
    for outcome, label in zip(result.outcomes, cell_labels):
        spec = outcome.spec
        adversary = spec.adversary.name if spec.adversary else "-"
        row = rows.setdefault((spec.gradient_rule, adversary), {
            "gradient_rule": spec.gradient_rule, "adversary": adversary})
        row.setdefault(label, None)
        if outcome.history is not None:
            histories[spec.name] = outcome.history
            accuracy = outcome.history.final_accuracy()
            if accuracy == accuracy:  # threaded runs report NaN
                samples.setdefault((spec.gradient_rule, adversary, label),
                                   []).append(accuracy)
    for (gar, adversary, label), values in samples.items():
        rows[(gar, adversary)][label] = float(sum(values) / len(values))
    return list(rows.values()), histories
