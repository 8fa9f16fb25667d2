"""Metrics: accuracy, throughput and time-to-accuracy.

The per-step record types (``StepRecord``, ``TrainingHistory``) live in
:mod:`repro.obs.history`.
"""

from repro.metrics.accuracy import evaluate_accuracy
from repro.metrics.throughput import (
    overhead_percent,
    throughput_updates_per_second,
    time_to_accuracy,
)

__all__ = [
    "evaluate_accuracy",
    "throughput_updates_per_second",
    "time_to_accuracy",
    "overhead_percent",
]
