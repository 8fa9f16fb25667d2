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
        Diagnostics of the most recent call: whether **every** slice of
        the stack met ``tolerance``, and the **largest** iteration count
        any slice ran (a single :meth:`aggregate` call is one slice).  A
        call in which some slice exhausts ``max_iterations`` without
        converging emits one ``RuntimeWarning`` saying on how many of its
        slices — the returned point is then only an approximation of the
        geometric median, which matters for benchmarks comparing
        aggregation-rule overheads at equal accuracy.
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

    def _aggregate_batched(self, stacked: np.ndarray) -> np.ndarray:
        """Weiszfeld over the whole ``(S, n, D)`` stack with an active set.

        Every slice sees the arithmetic of the scalar per-slice loop
        (``tests/gar_oracle.py``) on the same reduction axes — distances
        reduce over the contiguous last axis, the weighted sum adds the
        inputs in order, the shift is the 1-D ``dot`` that
        ``np.linalg.norm`` takes — so each row is bit-identical to that
        loop on its slice.  A slice that stops leaves the active set; the
        rest iterate on.
        """
        estimate = active_backend().median(stacked, axis=1)
        result = np.empty_like(estimate)
        active = np.arange(stacked.shape[0])
        self.iterations = 0
        while active.size and self.iterations < self.max_iterations:
            self.iterations += 1
            difference = stacked - estimate[:, None, :]
            np.multiply(difference, difference, out=difference)
            distances = np.sqrt(np.add.reduce(difference, axis=2))
            # Avoid division by zero when an estimate coincides with a point.
            mask = distances > 1e-12
            weights = np.divide(1.0, distances, out=np.zeros_like(distances),
                                where=mask)
            moving = mask.any(axis=1)
            if not moving.all():
                # Coincides with every point: the estimate stands as it is.
                result[active[~moving]] = estimate[~moving]
                active, stacked, estimate, weights = (
                    array[moving] for array in
                    (active, stacked, estimate, weights))
            new_estimate = ((weights[:, :, None] * stacked).sum(axis=1)
                            / weights.sum(axis=1)[:, None])
            step = new_estimate - estimate
            shifts = np.sqrt([row.dot(row) for row in step])
            estimate = new_estimate
            settled = shifts < self.tolerance
            if settled.any():
                result[active[settled]] = estimate[settled]
                active, stacked, estimate = (
                    array[~settled] for array in (active, stacked, estimate))
        result[active] = estimate
        self.converged = active.size == 0
        if not self.converged:
            warnings.warn(
                f"geometric median did not converge within "
                f"{self.max_iterations} Weiszfeld iterations "
                f"(tolerance={self.tolerance}) on {active.size} of "
                f"{result.shape[0]} slices; returning their last iterates",
                RuntimeWarning, stacklevel=3)
        return result
