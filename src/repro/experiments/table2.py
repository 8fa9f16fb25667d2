"""Table 2: alignment of the correct servers' parameter-difference vectors.

The supplementary material validates Assumption 2 of the proof by recording,
every 20 steps late in training, the two largest norms among parameter
difference vectors and the cosine of the angle between those two difference
vectors; the reported cos(φ) values are close to 1.  This harness performs
the same measurement on a GuanYu run by probing the correct servers'
parameters after every step.
"""

from __future__ import annotations

from typing import List, Optional

from repro.campaign.spec import ScenarioSpec
from repro.runtime.facade import build_trainer
from repro.theory import AlignmentProbe, AlignmentSample


def run_table2(base: Optional[ScenarioSpec] = None, interval: int = 20,
               warmup_fraction: float = 0.25,
               attack_servers: bool = False) -> List[AlignmentSample]:
    """Run GuanYu and record alignment samples every ``interval`` steps.

    Parameters
    ----------
    base:
        The workload (default: ``ScenarioSpec()``); run as trainer
        ``guanyu``.
    interval:
        Sampling interval in steps (the paper uses 20).
    warmup_fraction:
        Fraction of the run discarded before sampling starts — the assumption
        is only expected to hold "after some large step number".
    attack_servers:
        When ``True`` the declared Byzantine servers send corrupted models
        throughout, checking that the alignment survives an active adversary.
    """
    spec = (base if base is not None else ScenarioSpec()).replace(
        name="table2", trainer="guanyu")
    if attack_servers:
        spec = spec.replace(server_attack={"name": "corrupted_model",
                                           "kwargs": {"noise_scale": 50.0}})
    trainer = build_trainer(spec.validate())

    probe = AlignmentProbe(interval=interval)
    warmup_steps = int(warmup_fraction * spec.num_steps)
    for step in range(spec.num_steps):
        trainer.step(step)
        if step >= warmup_steps:
            probe.maybe_record(step, [server.current_parameters()
                                      for server in trainer.correct_servers])
    return probe.samples
