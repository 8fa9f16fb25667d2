"""Table 2: alignment of the correct servers' parameter-difference vectors.

The supplementary material validates Assumption 2 of the proof by recording,
every 20 steps late in training, the two largest norms among parameter
difference vectors and the cosine of the angle between those two difference
vectors; the reported cos(φ) values are close to 1.  This harness performs
the same measurement on a GuanYu run by probing the correct servers'
parameters after every step.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.campaign.spec import ScenarioSpec
from repro.campaign.store import ResultStore
from repro.obs.history import TrainingHistory
from repro.runtime.facade import build_trainer
from repro.theory import AlignmentProbe


def run_table2(base: Optional[ScenarioSpec] = None,
               store: Optional[ResultStore] = None,
               processes: Optional[int] = None, *, interval: int = 20,
               warmup_fraction: float = 0.25
               ) -> Tuple[List[Dict], Dict[str, TrainingHistory]]:
    """Run GuanYu and record alignment samples every ``interval`` steps.

    Parameters
    ----------
    base:
        The workload (default: ``ScenarioSpec()``); run as trainer
        ``guanyu``.  With a ``server_attack`` the declared Byzantine servers
        attack throughout, checking that the alignment survives an active
        adversary.  The probe needs the live servers, so the run is not a
        campaign: ``store`` and ``processes`` are accepted and ignored.
    interval:
        Sampling interval in steps (the paper uses 20).
    warmup_fraction:
        Fraction of the run discarded before sampling starts — the assumption
        is only expected to hold "after some large step number".

    Returns one row per sample (``step``, ``cos_phi``, ``max_diff1``,
    ``max_diff2``, and ``distinct``: how many of the correct servers' vectors
    differ, over which the other columns are measured) and no histories.
    """
    spec = (base if base is not None else ScenarioSpec()).replace(
        name="table2", trainer="guanyu")
    trainer = build_trainer(spec.validate())

    probe = AlignmentProbe(interval=interval)
    warmup_steps = int(warmup_fraction * spec.num_steps)
    for step in range(spec.num_steps):
        trainer.step(step)
        if step >= warmup_steps:
            probe.maybe_record(step, [server.current_parameters()
                                      for server in trainer.correct_servers])
    return [{"step": sample.step, "cos_phi": sample.cos_phi,
             "max_diff1": sample.max_diff_1, "max_diff2": sample.max_diff_2,
             "distinct": sample.distinct}
            for sample in probe.samples], {}
