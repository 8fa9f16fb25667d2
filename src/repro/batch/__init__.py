"""Batched multi-replica execution: R lanes of one scenario per process.

The paper's claims are statistical and comparative — every table cell
wants many seeds, every ablation several aggregation rules — yet running
each lane as a separate simulation repays the whole Python protocol
overhead per replica.  This package stacks the lanes (seeds and gradient
and model rules, :data:`~repro.batch.trainer.LANE_FIELDS`) along a leading
axis instead (parameters ``(R, D)``, aggregation inputs ``(R, n, D)``) and
executes them in lock-step, bit-identical per lane to the sequential
:class:`~repro.core.trainer.GuanYuTrainer`.

A lone scenario is the R = 1 case: :func:`repro.runtime.run` sends every
dense-model GuanYu spec here as a one-lane group.

See ``docs/performance.md`` for the memory model, the supported scenario
envelope, and how the campaign engine routes seed and rule sweeps here.
"""

from repro.batch.trainer import (
    LANE_FIELDS,
    BatchedExecutionError,
    BatchedGuanYuTrainer,
    batch_group_key,
    run_batched_scenarios,
    spec_supports_batching,
)
from repro.nn.plan import (
    BATCHABLE_MODELS,
    BatchedDenseStack,
    BatchingUnsupported,
)

__all__ = [
    "BATCHABLE_MODELS",
    "BatchedDenseStack",
    "BatchingUnsupported",
    "BatchedExecutionError",
    "BatchedGuanYuTrainer",
    "LANE_FIELDS",
    "batch_group_key",
    "run_batched_scenarios",
    "spec_supports_batching",
]
