"""Averaging-based aggregation rules."""

from __future__ import annotations

import numpy as np

from repro.aggregation.base import GradientAggregationRule
from repro.kernels import active_backend


class ArithmeticMean(GradientAggregationRule):
    """Plain arithmetic mean.

    This is the aggregation used by vanilla (non-Byzantine-resilient)
    TensorFlow deployments; a single Byzantine input can move the output
    arbitrarily far, which is exactly what Figure 4 of the paper
    demonstrates.
    """

    name = "mean"
    byzantine_resilient = False

    def _aggregate_batched(self, stacked: np.ndarray) -> np.ndarray:
        return active_backend().mean(stacked, axis=1)


class TrimmedMean(GradientAggregationRule):
    """Coordinate-wise trimmed mean.

    For each coordinate, the ``num_byzantine`` largest and smallest values
    are discarded and the rest averaged.  Requires ``n > 2f``.
    """

    name = "trimmed_mean"
    byzantine_resilient = True

    def minimum_inputs(self) -> int:
        return 2 * self.num_byzantine + 1

    def _aggregate_batched(self, stacked: np.ndarray) -> np.ndarray:
        return active_backend().trimmed_mean(stacked, self.num_byzantine,
                                             axis=1)
