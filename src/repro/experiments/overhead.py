"""Section 5.3 overhead breakdown.

The paper quantifies two overheads on the time axis:

* **65 %** — the cost of leaving TensorFlow's distributed runtime and
  handling communication externally (vanilla TF → vanilla GuanYu);
* **~30 %** (up to 33 %) — the additional cost of Byzantine resilience
  (vanilla GuanYu → GuanYu with declared Byzantine nodes): server
  replication, quorum waiting and robust aggregation.

This reducer derives the same two ratios from Figure 3's batch-128 runs,
using the time needed to first reach a common target accuracy (the paper
uses the time to 60 % accuracy on CIFAR-10).  Those runs are Figure 3's
scenarios, so with a result store the two experiments share them.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.campaign.spec import ScenarioSpec
from repro.campaign.store import ResultStore
from repro.experiments.figure3 import BATCH_SIZES, reference_accuracy, run_figure3
from repro.metrics import overhead_percent, time_to_accuracy
from repro.obs.history import TrainingHistory

#: the Figure 3 systems the two ratios compare
OVERHEAD_SYSTEMS = ("vanilla_tf", "guanyu_vanilla", "guanyu_f_workers_s1")


def overhead_rows(histories: Dict[str, TrainingHistory]
                  ) -> List[Dict[str, float]]:
    """The one-row table of the two §5.3 percentages and their inputs.

    Times are to the shared :func:`reference_accuracy` of ``histories``
    (a run that never reaches it counts its whole duration).
    """
    missing = [name for name in OVERHEAD_SYSTEMS if name not in histories]
    if missing:
        raise ValueError(f"figure 3 runs are missing systems: {missing}")
    target = reference_accuracy(histories)

    def _time(name: str) -> float:
        reached = time_to_accuracy(histories[name], target)
        return reached if reached is not None else histories[name].total_time()

    time_tf, time_vanilla, time_byzantine = map(_time, OVERHEAD_SYSTEMS)
    return [{
        "target_accuracy": target,
        "time_vanilla_tf": time_tf,
        "time_guanyu_vanilla": time_vanilla,
        "time_guanyu_byzantine": time_byzantine,
        "runtime_overhead_percent": overhead_percent(time_tf, time_vanilla),
        "byzantine_overhead_percent": overhead_percent(time_vanilla,
                                                       time_byzantine),
    }]


def run_overhead(base: Optional[ScenarioSpec] = None,
                 store: Optional[ResultStore] = None,
                 processes: Optional[int] = None
                 ) -> Tuple[List[Dict], Dict[str, TrainingHistory]]:
    """Run (or read back) the three systems at batch 128 and reduce them."""
    base = base if base is not None else ScenarioSpec()
    _, histories = run_figure3(base.replace(batch_size=BATCH_SIZES[0]), store,
                               processes, systems=OVERHEAD_SYSTEMS)
    return overhead_rows(histories), histories
