"""The paper's experiments as one table.

:data:`EXPERIMENTS` maps a name to an :class:`Experiment`: a title and a
runner.  Every runner takes ``(base, store, processes)`` — a
:class:`~repro.campaign.spec.ScenarioSpec` that sets the workload, an
optional :class:`~repro.campaign.store.ResultStore` and a pool size — and
returns ``(rows, histories)``: the table as a list of dict rows and the
runs behind it by name.  ``repro reproduce [NAME ...]`` prints them, and
the benchmark suite (``benchmarks/``) asserts the paper's shapes on the
same rows.

==================  =========================================================
``table1``          the Table 1 CNN architecture check
``figure3``         overhead in a non-Byzantine environment (Fig. 3a–d)
``figure4``         impact of Byzantine players on convergence (Fig. 4)
``table2``          alignment of parameter-difference vectors (Table 2)
``overhead``        the §5.3 overhead breakdown (65 % / ~30 % numbers)
``attack-sweep``    GuanYu against every registered attack
``gars``            server-side GAR ablation under attack
``quorums``         gradient-quorum size vs. throughput
``scaling``         cluster size vs. throughput
``crash-quorum``    crash count × model quorum (liveness boundary)
``partition-heal``  partition-heal recovery (median re-contraction)
``breakdown``       empirical breakdown-point search per (GAR, adversary)
``hetero``          accuracy vs. data skew × GAR × adversary (non-i.i.d.)
==================  =========================================================

The experiments run on a scaled-down workload (synthetic data, small models,
fewer steps) so that they complete in minutes on a CPU.  The ``base`` sets
those knobs (``ScenarioSpec()`` is the small preset, :func:`paper_like` the
paper's cluster shape); each runner replaces the fields it sweeps.  The
harness functions behind the runners take keyword arguments for custom
grids (``run_gar_ablation(base, rules=...)``), which the tests use.
"""

from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

from repro.campaign.spec import ScenarioSpec
from repro.campaign.store import ResultStore
from repro.experiments.common import build_workload, make_model_factory, paper_like
from repro.experiments.figure3 import (
    accuracy_summary,
    reproduce_figure3,
    run_figure3,
)
from repro.experiments.figure4 import run_figure4
from repro.experiments.table1 import run_table1
from repro.experiments.table2 import run_table2
from repro.experiments.overhead import overhead_rows, run_overhead
from repro.experiments.ablations import (
    run_attack_sweep,
    run_gar_ablation,
    run_quorum_ablation,
    run_scaling_study,
)
from repro.experiments.breakdown import run_breakdown_search
from repro.experiments.resilience import (
    run_crash_quorum_study,
    run_partition_heal_study,
    schedule_for_crashes,
)
from repro.experiments.heterogeneity import run_heterogeneity_study
from repro.obs.history import TrainingHistory

#: what every runner returns: the table's rows and the runs behind them
Result = Tuple[List[Dict[str, object]], Dict[str, TrainingHistory]]


class Experiment(NamedTuple):
    """One row of :data:`EXPERIMENTS`."""

    title: str
    run: Callable[[ScenarioSpec, Optional[ResultStore], Optional[int]], Result]
    #: x axes of the accuracy charts drawn from the histories ("steps",
    #: "time"); a history named ``panel/system`` plots in chart ``panel``
    charts: Tuple[str, ...] = ()


EXPERIMENTS: Dict[str, Experiment] = {
    "table1": Experiment(
        "Table 1 — CNN model parameters (paper: ~1.75 M)", run_table1),
    "figure3": Experiment(
        "Figure 3 — overhead in a non-Byzantine environment, batch 128 "
        "(a, b) and 32 (c, d)", reproduce_figure3, ("steps", "time")),
    "figure4": Experiment(
        "Figure 4 — impact of Byzantine players on convergence",
        run_figure4, ("steps",)),
    "table2": Experiment(
        "Table 2 — alignment of parameter-difference vectors, every 20 "
        "steps", run_table2),
    "overhead": Experiment(
        "Section 5.3 — overhead breakdown of Figure 3's batch-128 runs "
        "(paper: ~65 % runtime, up to ~33 % Byzantine)", run_overhead),
    "attack-sweep": Experiment(
        "Attack sweep — GuanYu under every registered attack",
        run_attack_sweep),
    "gars": Experiment(
        "GAR ablation — server-side aggregation rule under attack",
        run_gar_ablation),
    "quorums": Experiment(
        "Quorum ablation — gradient quorum vs. throughput",
        run_quorum_ablation),
    "scaling": Experiment(
        "Scaling study — workers vs. throughput", run_scaling_study),
    "crash-quorum": Experiment(
        "Resilience — crash count × model quorum (liveness boundary: "
        "crashed ≤ n − q)", run_crash_quorum_study),
    "partition-heal": Experiment(
        "Resilience — partition-heal recovery (phase-3 median "
        "re-contracts the stale replica)", run_partition_heal_study),
    "breakdown": Experiment(
        "Breakdown-point search — largest attacker count each GAR "
        "survives (admissible_f: the n̄ ≥ 3f̄ + 3 ceiling)",
        run_breakdown_search),
    "hetero": Experiment(
        "Heterogeneity study — final accuracy per skew level (Byzantine "
        "vectors hide inside a wider honest spread)",
        run_heterogeneity_study),
}

__all__ = [
    "EXPERIMENTS",
    "Experiment",
    "Result",
    "accuracy_summary",
    "build_workload",
    "make_model_factory",
    "overhead_rows",
    "paper_like",
    "run_attack_sweep",
    "run_breakdown_search",
    "run_crash_quorum_study",
    "run_figure3",
    "run_figure4",
    "run_gar_ablation",
    "run_heterogeneity_study",
    "run_overhead",
    "run_partition_heal_study",
    "run_quorum_ablation",
    "run_scaling_study",
    "run_table1",
    "run_table2",
    "schedule_for_crashes",
]
