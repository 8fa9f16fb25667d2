"""Resilience studies: crash-vs-quorum tables and partition-heal curves.

The paper proves liveness as long as every receiver can eventually hear
from a full quorum, and safety from the quorum intersection arithmetic of
Section 3.2.  These harnesses probe the *time-varying* edge of that claim
with the fault-schedule engine:

* :func:`run_crash_quorum_study` — crash ``c`` parameter servers for a
  window of steps, for every combination of crash count and model-quorum
  size ``q``.  The protocol keeps learning while ``c ≤ n − q`` (the
  remaining servers still fill the quorum); beyond that boundary every
  worker is starved and training *freezes* until the servers recover —
  liveness degrades to a stall, never to divergence.  The resulting table
  makes the ``c ≤ n − q`` boundary visible as a jump in stalled steps.
* :func:`run_partition_heal_study` — cut one parameter server away from
  the rest of the cluster for increasingly long windows and measure the
  inter-server spread when the partition heals and at the end of training:
  the phase-3 median contracts the stale replica back, so the final spread
  returns to (near) zero for every heal time.

Both run through the campaign engine, so results are content-addressed:
given a ``store`` the tables are reproduced from cache on re-runs.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.campaign.engine import run_campaign
from repro.campaign.spec import ScenarioSpec
from repro.campaign.store import ResultStore
from repro.faults import FaultEvent, FaultSchedule
from repro.obs.history import TrainingHistory


def _stalled_steps(history: TrainingHistory) -> int:
    """Steps in which no correct worker computed (training was frozen)."""
    return sum(1 for record in history.records if record.train_loss is None)


def schedule_for_crashes(spec: ScenarioSpec, num_crashed: int, crash_step: int,
                         recover_step: Optional[int]) -> Optional[FaultSchedule]:
    """Crash the last ``num_crashed`` servers for ``[crash_step, recover_step)``.

    The *last* server ids are chosen so the crash set coincides with the
    Byzantine set when both are in play (the adversary controls which of
    its nodes fail).  Returns ``None`` for zero crashes.
    """
    if num_crashed <= 0:
        return None
    server_ids = spec.cluster_config().server_ids()
    if num_crashed > len(server_ids):
        raise ValueError(f"cannot crash {num_crashed} of {len(server_ids)} "
                         f"servers")
    crashed = server_ids[len(server_ids) - num_crashed:]
    return FaultSchedule.crash_window(crashed, crash_step, recover_step)


# --------------------------------------------------------------------------- #
# Crash-vs-quorum study
# --------------------------------------------------------------------------- #
def run_crash_quorum_study(base: Optional[ScenarioSpec] = None,
                           store: Optional[ResultStore] = None,
                           processes: Optional[int] = None, *,
                           crash_counts: Sequence[int] = (0, 1, 2, 3),
                           quorum_sizes: Optional[Sequence[int]] = None,
                           crash_step: Optional[int] = None,
                           recover_step: Optional[int] = None,
                           ) -> Tuple[List[Dict], Dict[str, TrainingHistory]]:
    """Sweep crash count × model quorum; returns ``(rows, histories)``.

    Every scenario declares ``f = 0`` Byzantine servers so the model quorum
    ``q`` can range over ``[3, n]`` freely — crashes are benign silence,
    not Byzantine behaviour, and the liveness boundary under study is
    ``c ≤ n − q``.  The crash window defaults to the middle third of the
    run.
    """
    base = (base if base is not None else ScenarioSpec()).replace(
        declared_byzantine_servers=0)
    config = base.cluster_config()
    if quorum_sizes is None:
        quorum_sizes = range(config.min_model_quorum,
                             config.max_model_quorum + 1)
    crash_at = crash_step if crash_step is not None else base.num_steps // 3
    recover_at = (recover_step if recover_step is not None
                  else 2 * base.num_steps // 3)

    scenarios = []
    for quorum in quorum_sizes:
        for crashed in crash_counts:
            scenarios.append(base.replace(
                name=f"q={quorum}-crashed={crashed}",
                model_quorum=quorum,
                faults=schedule_for_crashes(base, crashed, crash_at,
                                            recover_at)))
    result = run_campaign(scenarios, name="crash_quorum", store=store,
                          processes=processes)

    rows: List[Dict] = []
    histories: Dict[str, TrainingHistory] = {}
    for outcome in result.outcomes:
        spec = outcome.spec
        row: Dict[str, object] = {
            "model_quorum": spec.model_quorum,
            "crashed_servers": sum(
                len(e.nodes) for e in (spec.faults.events if spec.faults else [])
                if e.kind == "crash"),
            "crash_window": (f"[{crash_at}, {recover_at})"
                             if spec.faults else "-"),
            "completed": outcome.status != "failed",
        }
        if outcome.history is not None:
            histories[spec.name] = outcome.history
            final = outcome.history.records[-1]
            row.update({
                "stalled_steps": _stalled_steps(outcome.history),
                "final_accuracy": outcome.history.final_accuracy(),
                "final_spread": final.max_server_spread,
            })
        else:
            row.update({"stalled_steps": None, "final_accuracy": None,
                        "final_spread": None, "error": outcome.error})
        rows.append(row)
    return rows, histories


# --------------------------------------------------------------------------- #
# Partition-heal study
# --------------------------------------------------------------------------- #
def run_partition_heal_study(base: Optional[ScenarioSpec] = None,
                             store: Optional[ResultStore] = None,
                             processes: Optional[int] = None, *,
                             partition_step: Optional[int] = None,
                             heal_steps: Optional[Sequence[int]] = None,
                             ) -> Tuple[List[Dict], Dict[str, TrainingHistory]]:
    """Partition one server away for varying windows; measure re-contraction.

    The cut server stalls with stale parameters; after the heal the phase-3
    coordinate-wise median pulls it back toward the pack.  Rows report the
    spread at the heal step (how far the replica drifted) and at the end of
    training (how completely it re-contracted).
    """
    base = base if base is not None else ScenarioSpec()
    config = base.cluster_config()
    cut_at = (partition_step if partition_step is not None
              else base.num_steps // 4)
    if heal_steps is None:
        span = base.num_steps - cut_at
        heal_steps = sorted({cut_at + max(1, span // 4),
                             cut_at + max(2, span // 2),
                             cut_at + max(3, 3 * span // 4)})
    isolated = config.server_ids()[0]
    rest = [node for node in config.server_ids() + config.worker_ids()
            if node != isolated]

    scenarios = []
    for heal_at in heal_steps:
        if not cut_at < heal_at <= base.num_steps:
            raise ValueError(f"heal step {heal_at} outside "
                             f"({cut_at}, {base.num_steps}]")
        schedule = FaultSchedule(events=[
            FaultEvent(step=cut_at, kind="partition",
                       groups=[[isolated], rest], label="cut"),
            FaultEvent(step=heal_at, kind="heal", label="cut"),
        ])
        scenarios.append(base.replace(
            name=f"heal={heal_at}", faults=schedule))
    result = run_campaign(scenarios, name="partition_heal", store=store,
                          processes=processes).raise_on_failure()

    rows: List[Dict] = []
    histories: Dict[str, TrainingHistory] = {}
    for outcome, heal_at in zip(result.outcomes, heal_steps):
        history = outcome.history
        histories[outcome.spec.name] = history
        spreads = {record.step: record.max_server_spread
                   for record in history.records}
        rows.append({
            "isolated": isolated,
            "partition_step": cut_at,
            "heal_step": heal_at,
            "spread_before_heal": spreads.get(heal_at - 1),
            "final_spread": history.records[-1].max_server_spread,
            "final_accuracy": history.final_accuracy(),
        })
    return rows, histories
