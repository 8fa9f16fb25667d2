"""Batched multi-replica execution: R seeds of one scenario per process.

The paper's claims are statistical — every table cell wants many seeds —
yet running each seed as a separate simulation repays the whole Python
protocol overhead per replica.  This package stacks the replicas along a
leading axis instead (parameters ``(R, D)``, aggregation inputs
``(R, n, D)``) and executes them in lock-step, bit-identical per seed to
the sequential :class:`~repro.core.trainer.GuanYuTrainer`.

A lone scenario is the R = 1 case: :func:`repro.runtime.run` sends every
dense-model GuanYu spec here as a one-lane group.

See ``docs/performance.md`` for the memory model, the supported scenario
envelope, and how the campaign engine routes seed-only sweeps here.
"""

from repro.batch.models import (
    BATCHABLE_MODELS,
    BatchedDenseStack,
    BatchingUnsupported,
)
from repro.batch.trainer import (
    BatchedExecutionError,
    BatchedGuanYuTrainer,
    run_batched_scenarios,
    spec_supports_batching,
)

__all__ = [
    "BATCHABLE_MODELS",
    "BatchedDenseStack",
    "BatchingUnsupported",
    "BatchedExecutionError",
    "BatchedGuanYuTrainer",
    "run_batched_scenarios",
    "spec_supports_batching",
]
