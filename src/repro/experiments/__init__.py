"""Experiment harnesses reproducing every table and figure of the paper.

Each module packages one experiment from Section 5 (or the supplementary
material) as a plain function returning structured results, so that the
benchmark suite (``benchmarks/``) and the example scripts (``examples/``)
share exactly the same code:

=====================  ===========================================================
``table1``             the Table 1 CNN architecture check
``figure3``            overhead in a non-Byzantine environment (Fig. 3a–d)
``figure4``            impact of Byzantine players on convergence (Fig. 4)
``table2``             alignment of parameter-difference vectors (Table 2)
``overhead``           the §5.3 overhead breakdown (65 % / ~30 % numbers)
``ablations``          GAR ablation, attack sweep, cluster-size scaling
``resilience``         crash-vs-quorum and partition-heal fault studies
``breakdown``          empirical breakdown-point search per (GAR, adversary)
``heterogeneity``      accuracy vs. data skew × GAR × adversary (non-i.i.d.)
=====================  ===========================================================

The experiments run on a scaled-down workload (synthetic data, small models,
fewer steps) so that they complete in minutes on a CPU.  Every harness takes
a ``base`` :class:`~repro.campaign.spec.ScenarioSpec` — the one description
of a run — that sets those knobs (``ScenarioSpec()`` is the small preset,
:func:`paper_like` the paper's cluster shape) and replaces the fields it
sweeps; the assertions under ``benchmarks/`` state how the measured shapes
compare with the paper.
"""

from repro.experiments.common import build_workload, make_model_factory, paper_like
from repro.experiments.figure3 import Figure3Result, run_figure3
from repro.experiments.figure4 import Figure4Result, run_figure4
from repro.experiments.table1 import table1_report
from repro.experiments.table2 import run_table2
from repro.experiments.overhead import OverheadReport, overhead_report
from repro.experiments.ablations import (
    run_attack_sweep,
    run_gar_ablation,
    run_quorum_ablation,
    run_scaling_study,
)
from repro.experiments.breakdown import (
    BreakdownResult,
    breakdown_table,
    run_breakdown_search,
)
from repro.experiments.resilience import (
    run_crash_quorum_study,
    run_partition_heal_study,
    schedule_for_crashes,
)
from repro.experiments.heterogeneity import (
    HeterogeneityResult,
    heterogeneity_table,
    run_heterogeneity_study,
)

__all__ = [
    "build_workload",
    "make_model_factory",
    "paper_like",
    "table1_report",
    "Figure3Result",
    "run_figure3",
    "Figure4Result",
    "run_figure4",
    "run_table2",
    "OverheadReport",
    "overhead_report",
    "run_gar_ablation",
    "run_attack_sweep",
    "run_quorum_ablation",
    "run_scaling_study",
    "BreakdownResult",
    "breakdown_table",
    "run_breakdown_search",
    "run_crash_quorum_study",
    "run_partition_heal_study",
    "schedule_for_crashes",
    "HeterogeneityResult",
    "heterogeneity_table",
    "run_heterogeneity_study",
]
