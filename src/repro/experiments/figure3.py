"""Figure 3: overhead of GuanYu in a non-Byzantine environment.

The paper compares five systems on accuracy-vs-updates (Fig. 3a/3c) and
accuracy-vs-time (Fig. 3b/3d), for mini-batch sizes 128 and 32:

1. **vanilla TF** — single trusted server, mean aggregation, optimised
   in-framework communication;
2. **GuanYu (vanilla)** — same computation, communication handled outside
   the framework (serialisation overhead);
3. **GuanYu (f̄=0, f=0)** — replicated servers, robust rules, but zero
   declared Byzantine nodes (minimum quorums);
4. **GuanYu (f̄=5, f=0)** — Byzantine workers declared;
5. **GuanYu (f̄=5, f=1)** — Byzantine workers and servers declared.

All five run in a *non-Byzantine environment* (no actual attack); the
declared counts only change quorums and aggregation rules.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.campaign.engine import run_campaign
from repro.campaign.spec import ScenarioSpec
from repro.metrics import (
    TrainingHistory,
    throughput_updates_per_second,
    time_to_accuracy,
)
from repro.metrics.throughput import steps_to_accuracy

#: the five systems of Figure 3, in the paper's legend order
FIGURE3_SYSTEMS = (
    "vanilla_tf",
    "guanyu_vanilla",
    "guanyu_f0_s0",
    "guanyu_f_workers_s0",
    "guanyu_f_workers_s1",
)


@dataclass
class Figure3Result:
    """Histories of the five systems plus derived summary rows."""

    batch_size: int
    histories: Dict[str, TrainingHistory] = field(default_factory=dict)

    def accuracy_summary(self) -> List[Dict[str, object]]:
        """One row per system: final accuracy, throughput, time-to-target."""
        target = self.reference_accuracy()
        rows = []
        for name, history in self.histories.items():
            rows.append({
                "system": name,
                "final_accuracy": history.final_accuracy(),
                "best_accuracy": history.best_accuracy(),
                "total_time": history.total_time(),
                "throughput": throughput_updates_per_second(history),
                "time_to_target": time_to_accuracy(history, target),
                "steps_to_target": steps_to_accuracy(history, target),
            })
        return rows

    def reference_accuracy(self) -> float:
        """A target accuracy every system reaches (80 % of the best final)."""
        finals = [h.final_accuracy() for h in self.histories.values()]
        return 0.8 * max(finals)


def run_figure3(base: Optional[ScenarioSpec] = None,
                systems: Optional[List[str]] = None) -> Figure3Result:
    """Run the Figure 3 comparison (one batch size).

    Parameters
    ----------
    base:
        The workload (default: ``ScenarioSpec()``).  Its ``batch_size`` is
        the figure's: the paper runs 128 (Fig. 3a/b) and 32 (Fig. 3c/d).
    systems:
        Subset of :data:`FIGURE3_SYSTEMS` to run (all by default).
    """
    base = base if base is not None else ScenarioSpec()
    systems = systems if systems is not None else FIGURE3_SYSTEMS
    # The two single-server baselines average gradients; the GuanYu systems
    # differ only in the declared (f̄, f), which sets quorums and rules.
    vanilla = base.replace(trainer="vanilla", gradient_rule="mean")
    guanyu = base.replace(trainer="guanyu")
    scenarios = {
        "vanilla_tf": vanilla,
        "guanyu_vanilla": vanilla.replace(external_communication=True),
        "guanyu_f0_s0": guanyu.replace(declared_byzantine_workers=0,
                                       declared_byzantine_servers=0),
        "guanyu_f_workers_s0": guanyu.replace(declared_byzantine_servers=0),
        "guanyu_f_workers_s1": guanyu,
    }
    result = run_campaign(
        [scenarios[name].replace(name=name) for name in FIGURE3_SYSTEMS
         if name in systems], name="figure3").raise_on_failure()
    return Figure3Result(batch_size=base.batch_size,
                         histories=result.histories())
