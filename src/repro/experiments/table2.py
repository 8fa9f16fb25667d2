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

from repro.adversary import CorruptedModelAttack
from repro.core import ClusterConfig, GuanYuTrainer
from repro.experiments.common import (
    ExperimentScale,
    build_workload,
    make_model_factory,
    make_schedule,
)
from repro.theory import AlignmentProbe, AlignmentSample


def run_table2(scale: Optional[ExperimentScale] = None, interval: int = 20,
               warmup_fraction: float = 0.25,
               attack_servers: bool = False) -> List[AlignmentSample]:
    """Run GuanYu and record alignment samples every ``interval`` steps.

    Parameters
    ----------
    scale:
        Workload scale (defaults to :meth:`ExperimentScale.small`).
    interval:
        Sampling interval in steps (the paper uses 20).
    warmup_fraction:
        Fraction of the run discarded before sampling starts — the assumption
        is only expected to hold "after some large step number".
    attack_servers:
        When ``True`` a Byzantine server sends corrupted models throughout,
        checking that the alignment survives an active adversary.
    """
    scale = scale if scale is not None else ExperimentScale.small()
    train, test, in_features, num_classes = build_workload(scale)
    model_fn = make_model_factory(scale, in_features, num_classes)
    schedule = make_schedule(scale)

    config = ClusterConfig(num_servers=scale.num_servers,
                           num_workers=scale.num_workers,
                           num_byzantine_servers=scale.declared_byzantine_servers,
                           num_byzantine_workers=scale.declared_byzantine_workers)
    kwargs = {}
    if attack_servers:
        kwargs.update(server_attack=CorruptedModelAttack(noise_scale=50.0),
                      num_attacking_servers=scale.declared_byzantine_servers)
    trainer = GuanYuTrainer(config=config, model_fn=model_fn, train_dataset=train,
                            test_dataset=test, batch_size=scale.batch_size,
                            schedule=schedule, seed=scale.seed, label="table2",
                            cost_num_parameters=scale.billed_parameters, **kwargs)

    probe = AlignmentProbe(interval=interval)
    warmup_steps = int(warmup_fraction * scale.num_steps)
    for step in range(scale.num_steps):
        trainer.step(step)
        if step >= warmup_steps:
            probe.maybe_record(step, [server.current_parameters()
                                      for server in trainer.correct_servers])
    return probe.samples
