"""Throughput and time-to-accuracy metrics (the paper's Section 5.2).

All rates here are computed over **simulated** time carried by the
histories, or — for real wall-clock measurements — over the monotonic
clocks used by :mod:`repro.obs` and the perf ledger
(``time.monotonic``/``time.perf_counter``).  ``time.time()`` is never used
for durations anywhere in the metrics layer: wall-clock jumps (NTP steps,
manual adjustment) would corrupt rates.
"""

from __future__ import annotations

import time
from typing import Callable, Optional, Tuple, TypeVar

from repro.obs.history import TrainingHistory

T = TypeVar("T")


def throughput_updates_per_second(history: TrainingHistory) -> float:
    """Model updates per (simulated) second — the paper's throughput metric."""
    if len(history) < 2:
        return float("nan")
    total_time = history.total_time()
    if total_time <= 0:
        return float("inf")
    return history.total_steps() / total_time


def time_to_accuracy(history: TrainingHistory, target: float) -> Optional[float]:
    """Simulated time at which ``target`` accuracy is first reached.

    Returns ``None`` when the run never reaches the target (e.g. the vanilla
    baseline under attack in Figure 4).
    """
    for record in history.records:
        if record.test_accuracy is not None and record.test_accuracy >= target:
            return record.simulated_time
    return None


def steps_to_accuracy(history: TrainingHistory, target: float) -> Optional[int]:
    """Number of model updates needed to first reach ``target`` accuracy."""
    for record in history.records:
        if record.test_accuracy is not None and record.test_accuracy >= target:
            return record.step
    return None


def overhead_percent(baseline_time: float, system_time: float) -> float:
    """Relative slowdown of ``system_time`` over ``baseline_time`` in percent.

    The paper reports, e.g., "vanilla TF reaches 60 % accuracy ... 65 % better
    than the vanilla deployment of GuanYu"; this helper computes exactly that
    ratio, ``(system − baseline) / baseline × 100``.
    """
    if baseline_time <= 0:
        return float("nan")
    return 100.0 * (system_time - baseline_time) / baseline_time


def measure_wall_clock(fn: Callable[[], T]) -> Tuple[T, float]:
    """Run ``fn`` and return ``(result, elapsed_seconds)``.

    Uses :func:`time.monotonic`, which never jumps backwards, so the
    returned duration is safe to feed into rate computations even across
    NTP corrections.
    """
    start = time.monotonic()
    result = fn()
    return result, time.monotonic() - start
