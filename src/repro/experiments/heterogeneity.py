"""Heterogeneity study: accuracy vs. data skew × GAR × adversary.

The paper's convergence guarantees (and the GARs it builds on) assume the
honest workers' gradients are i.i.d. estimates of one true gradient.  As
the honest data distribution fragments — Dirichlet label skew, pathological
shard splits, sample imbalance — the honest gradient spread widens and a
Byzantine vector no longer has to leave the honest cloud to steer the
aggregate: the *empirical* breakdown point of every distance-based rule
degrades.  This harness makes that degradation a reproducible table:

* rows: ``gradient_rule × adversary`` (``adversary=None`` is the honest
  baseline row for the rule);
* columns: heterogeneity levels, from ``iid`` through increasingly skewed
  partitions (``dirichlet=10 … dirichlet=0.1``, ``shards=K``, ...);
* cells: final test accuracy (the companion ``losses`` map carries the
  final training loss for the same cells).

Everything runs through the campaign engine, so the study is
content-addressed: given a ``store`` the table is reproduced from cache,
and seed-replica cells batch onto the vectorised runtime.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.campaign.engine import run_campaign
from repro.campaign.spec import AttackSpec, ScenarioSpec
from repro.campaign.store import ResultStore
from repro.experiments.common import ExperimentScale, workload_attack_kwargs
from repro.hetero import HeteroSpec
from repro.obs.history import TrainingHistory

#: default skew axis: i.i.d. through near-single-class workers
DEFAULT_SKEWS = ("iid", "dirichlet=10", "dirichlet=1", "dirichlet=0.1")


@dataclass
class HeterogeneityResult:
    """Accuracy-vs-skew curve of one ``(gradient_rule, adversary)`` pair."""

    gradient_rule: str
    adversary: Optional[str]
    #: skew label → final test accuracy (``None`` for a failed cell)
    accuracies: Dict[str, Optional[float]] = field(default_factory=dict)
    #: skew label → final training loss (``None`` for a failed cell)
    losses: Dict[str, Optional[float]] = field(default_factory=dict)


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


def run_heterogeneity_study(scale: Optional[ExperimentScale] = None,
                            skews: Sequence[str] = DEFAULT_SKEWS,
                            gars: Sequence[str] = ("mean", "median",
                                                   "multi_krum"),
                            adversaries: Sequence[Optional[str]] = (
                                None, "collusion"),
                            seeds: Optional[Sequence[int]] = None,
                            num_steps: Optional[int] = None,
                            store: Optional[ResultStore] = None,
                            processes: Optional[int] = None,
                            batch_seeds: bool = False,
                            ) -> Tuple[List[HeterogeneityResult],
                                       Dict[str, TrainingHistory]]:
    """Sweep skew × GAR × adversary (× seed); returns ``(results, histories)``.

    ``adversaries`` entries are adversary-registry names (stateless attack
    names are lifted); ``None`` (or ``"none"``) rows run honestly
    and anchor each rule's skew tolerance before any attack is applied.
    The attacking count is the declared Byzantine worker count, i.e. the
    strongest in-model adversary.

    ``seeds`` replicates every cell and reports the per-cell **mean**
    final accuracy/loss over the completed replicas — with
    ``batch_seeds=True`` the replicas of one cell run as a single
    vectorised multi-replica execution.  Default: the scale's one seed.
    """
    scale = scale if scale is not None else ExperimentScale.small()
    base = ScenarioSpec.from_scale(scale)
    if num_steps is not None:
        base = base.replace(num_steps=num_steps)
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

    by_pair: Dict[Tuple[str, Optional[str]], HeterogeneityResult] = {}
    accuracy_samples: Dict[Tuple[str, Optional[str], str], List[float]] = {}
    loss_samples: Dict[Tuple[str, Optional[str], str], List[float]] = {}
    histories: Dict[str, TrainingHistory] = {}
    for outcome, label in zip(result.outcomes, cell_labels):
        spec = outcome.spec
        adversary = spec.adversary.name if spec.adversary else None
        pair = by_pair.setdefault(
            (spec.gradient_rule, adversary),
            HeterogeneityResult(gradient_rule=spec.gradient_rule,
                                adversary=adversary))
        cell = (spec.gradient_rule, adversary, label)
        pair.accuracies.setdefault(label, None)
        pair.losses.setdefault(label, None)
        if outcome.history is not None:
            histories[spec.name] = outcome.history
            accuracy = outcome.history.final_accuracy()
            if accuracy == accuracy:  # threaded runs report NaN
                accuracy_samples.setdefault(cell, []).append(accuracy)
            final = outcome.history.records[-1]
            if final.train_loss is not None:
                loss_samples.setdefault(cell, []).append(final.train_loss)
    for (gar, adversary, label), samples in accuracy_samples.items():
        by_pair[(gar, adversary)].accuracies[label] = \
            float(sum(samples) / len(samples))
    for (gar, adversary, label), samples in loss_samples.items():
        by_pair[(gar, adversary)].losses[label] = \
            float(sum(samples) / len(samples))
    return list(by_pair.values()), histories


def heterogeneity_table(results: Sequence[HeterogeneityResult]
                        ) -> List[Dict[str, object]]:
    """Rows for :func:`repro.plotting.format_table`: one per (rule, adversary).

    Skew labels become columns, so the degradation reads left-to-right and
    rules/adversaries compare top-to-bottom.
    """
    rows = []
    for result in results:
        row: Dict[str, object] = {
            "gradient_rule": result.gradient_rule,
            "adversary": result.adversary or "-",
        }
        row.update(result.accuracies)
        rows.append(row)
    return rows
