"""Geometric median via Weiszfeld's algorithm.

An extension GAR (not used by GuanYu) included because the geometric median
is the canonical high-breakdown multivariate location estimator; ablations
compare it against the coordinate-wise median at the model-aggregation
points.
"""

from __future__ import annotations

import warnings

import numpy as np

from repro.aggregation.base import GradientAggregationRule
from repro.kernels import active_backend


class GeometricMedian(GradientAggregationRule):
    """Geometric (spatial) median computed with Weiszfeld iterations.

    Parameters
    ----------
    num_byzantine:
        Tolerated Byzantine inputs; requires a strict majority of correct
        inputs, i.e. ``n ≥ 2f + 1``.
    max_iterations, tolerance:
        Stopping criteria of the Weiszfeld fixed-point iteration.

    Attributes
    ----------
    converged, iterations:
        Diagnostics of the most recent :meth:`aggregate` call: whether the
        fixed-point iteration met ``tolerance`` and how many iterations it
        ran.  A call that exhausts ``max_iterations`` without converging
        also emits a ``RuntimeWarning`` — the returned point is then only an
        approximation of the geometric median, which matters for benchmarks
        comparing aggregation-rule overheads at equal accuracy.
    """

    name = "geometric_median"
    byzantine_resilient = True

    def __init__(self, num_byzantine: int = 0, max_iterations: int = 100,
                 tolerance: float = 1e-8) -> None:
        super().__init__(num_byzantine)
        self.max_iterations = max_iterations
        self.tolerance = tolerance
        #: diagnostics of the most recent aggregation (None before any call)
        self.converged = None
        self.iterations = 0

    def minimum_inputs(self) -> int:
        return 2 * self.num_byzantine + 1

    def _aggregate(self, stacked: np.ndarray) -> np.ndarray:
        estimate = active_backend().median(stacked, axis=0)
        self.converged = False
        self.iterations = 0
        for iteration in range(self.max_iterations):
            self.iterations = iteration + 1
            distances = np.linalg.norm(stacked - estimate, axis=1)
            # Avoid division by zero when the estimate coincides with a point.
            mask = distances > 1e-12
            if not np.any(mask):
                self.converged = True
                return estimate
            weights = np.zeros_like(distances)
            weights[mask] = 1.0 / distances[mask]
            new_estimate = (weights[:, None] * stacked).sum(axis=0) / weights.sum()
            shift = float(np.linalg.norm(new_estimate - estimate))
            estimate = new_estimate
            if shift < self.tolerance:
                self.converged = True
                break
        if not self.converged:
            warnings.warn(
                f"geometric median did not converge within "
                f"{self.max_iterations} Weiszfeld iterations "
                f"(tolerance={self.tolerance}); returning the last iterate",
                RuntimeWarning, stacklevel=3)
        return estimate
