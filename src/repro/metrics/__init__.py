"""Metrics: accuracy, loss tracking, throughput and experiment records.

The per-step record types (:class:`StepRecord`, :class:`TrainingHistory`)
live in :mod:`repro.obs.history`; they are re-exported here so the
``repro.metrics`` import path keeps working.
"""

from repro.metrics.accuracy import evaluate_accuracy, evaluate_loss
from repro.metrics.throughput import (
    measure_wall_clock,
    overhead_percent,
    throughput_updates_per_second,
    time_to_accuracy,
)
from repro.obs.history import StepRecord, TrainingHistory

__all__ = [
    "evaluate_accuracy",
    "evaluate_loss",
    "StepRecord",
    "TrainingHistory",
    "throughput_updates_per_second",
    "time_to_accuracy",
    "overhead_percent",
    "measure_wall_clock",
]
