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

from typing import Dict, List, Optional, Sequence, Tuple

from repro.campaign.engine import run_campaign
from repro.campaign.spec import ScenarioSpec
from repro.campaign.store import ResultStore
from repro.metrics import throughput_updates_per_second, time_to_accuracy
from repro.metrics.throughput import steps_to_accuracy
from repro.obs.history import TrainingHistory

#: the five systems of Figure 3, in the paper's legend order
FIGURE3_SYSTEMS = (
    "vanilla_tf",
    "guanyu_vanilla",
    "guanyu_f0_s0",
    "guanyu_f_workers_s0",
    "guanyu_f_workers_s1",
)
#: the paper's mini-batch sizes: Fig. 3a/b, then Fig. 3c/d
BATCH_SIZES = (128, 32)


def reference_accuracy(histories: Dict[str, TrainingHistory]) -> float:
    """A target accuracy every run reaches (80 % of the best final)."""
    return 0.8 * max(history.final_accuracy() for history in histories.values())


def accuracy_summary(histories: Dict[str, TrainingHistory]
                     ) -> List[Dict[str, object]]:
    """One row per run: final accuracy, throughput, time and steps to the
    shared :func:`reference_accuracy` target."""
    target = reference_accuracy(histories)
    return [{
        "system": name,
        "final_accuracy": history.final_accuracy(),
        "best_accuracy": history.best_accuracy(),
        "total_time": history.total_time(),
        "throughput": throughput_updates_per_second(history),
        "time_to_target": time_to_accuracy(history, target),
        "steps_to_target": steps_to_accuracy(history, target),
    } for name, history in histories.items()]


def run_figure3(base: Optional[ScenarioSpec] = None,
                store: Optional[ResultStore] = None,
                processes: Optional[int] = None, *,
                systems: Sequence[str] = FIGURE3_SYSTEMS
                ) -> Tuple[List[Dict], Dict[str, TrainingHistory]]:
    """Run one panel pair of Figure 3 at the base's ``batch_size``.

    ``systems`` is a subset of :data:`FIGURE3_SYSTEMS` (all by default).
    Returns ``(rows, histories)``, the rows from :func:`accuracy_summary`.
    """
    base = base if base is not None else ScenarioSpec()
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
    histories = run_campaign(
        [scenarios[name].replace(name=name) for name in FIGURE3_SYSTEMS
         if name in systems], name="figure3", store=store,
        processes=processes).raise_on_failure().histories()
    return accuracy_summary(histories), histories


def reproduce_figure3(base: ScenarioSpec, store: Optional[ResultStore],
                      processes: Optional[int]
                      ) -> Tuple[List[Dict], Dict[str, TrainingHistory]]:
    """Figure 3 at both of the paper's batch sizes.

    Rows gain a ``batch_size`` column; a history is named
    ``batch=<size>/<system>``, one chart panel per batch size.
    """
    rows: List[Dict] = []
    histories: Dict[str, TrainingHistory] = {}
    for batch_size in BATCH_SIZES:
        panel_rows, panel = run_figure3(base.replace(batch_size=batch_size),
                                        store, processes)
        rows += [{"batch_size": batch_size, **row} for row in panel_rows]
        histories.update({f"batch={batch_size}/{name}": history
                          for name, history in panel.items()})
    return rows, histories
