"""Section 5.3 overhead breakdown.

The paper quantifies two overheads on the time axis:

* **65 %** — the cost of leaving TensorFlow's distributed runtime and
  handling communication externally (vanilla TF → vanilla GuanYu);
* **~30 %** (up to 33 %) — the additional cost of Byzantine resilience
  (vanilla GuanYu → GuanYu with declared Byzantine nodes): server
  replication, quorum waiting and robust aggregation.

This harness derives the same two ratios from a Figure 3 run, using the
time needed to first reach a common target accuracy (the paper uses the time
to 60 % accuracy on CIFAR-10).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.campaign.spec import ScenarioSpec
from repro.experiments.figure3 import Figure3Result, run_figure3
from repro.metrics import overhead_percent, time_to_accuracy


@dataclass
class OverheadReport:
    """The two §5.3 overhead percentages plus the underlying measurements."""

    target_accuracy: float
    time_vanilla_tf: float
    time_guanyu_vanilla: float
    time_guanyu_byzantine: float
    runtime_overhead_percent: float
    byzantine_overhead_percent: float

    def as_rows(self) -> Dict[str, float]:
        return {
            "target_accuracy": self.target_accuracy,
            "time_vanilla_tf": self.time_vanilla_tf,
            "time_guanyu_vanilla": self.time_guanyu_vanilla,
            "time_guanyu_byzantine": self.time_guanyu_byzantine,
            "runtime_overhead_percent": self.runtime_overhead_percent,
            "byzantine_overhead_percent": self.byzantine_overhead_percent,
        }


def overhead_report(result: Optional[Figure3Result] = None,
                    base: Optional[ScenarioSpec] = None,
                    target_accuracy: Optional[float] = None) -> OverheadReport:
    """Compute the overhead breakdown from a Figure 3 result.

    Parameters
    ----------
    result:
        An existing :class:`Figure3Result`; when omitted the three systems
        required for the breakdown are run on the given ``base``.
    target_accuracy:
        Accuracy threshold for the time-to-accuracy measurements (defaults
        to the shared reference target of the Figure 3 result).
    """
    if result is None:
        result = run_figure3(base=base, systems=[
            "vanilla_tf", "guanyu_vanilla", "guanyu_f_workers_s1"])
    required = ("vanilla_tf", "guanyu_vanilla", "guanyu_f_workers_s1")
    missing = [name for name in required if name not in result.histories]
    if missing:
        raise ValueError(f"figure 3 result is missing systems: {missing}")

    target = target_accuracy if target_accuracy is not None \
        else result.reference_accuracy()

    def _time(name: str) -> float:
        history = result.histories[name]
        reached = time_to_accuracy(history, target)
        return reached if reached is not None else history.total_time()

    time_tf = _time("vanilla_tf")
    time_vanilla_guanyu = _time("guanyu_vanilla")
    time_byzantine = _time("guanyu_f_workers_s1")
    return OverheadReport(
        target_accuracy=target,
        time_vanilla_tf=time_tf,
        time_guanyu_vanilla=time_vanilla_guanyu,
        time_guanyu_byzantine=time_byzantine,
        runtime_overhead_percent=overhead_percent(time_tf, time_vanilla_guanyu),
        byzantine_overhead_percent=overhead_percent(time_vanilla_guanyu,
                                                    time_byzantine),
    )
