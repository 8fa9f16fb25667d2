"""Geometric median via Weiszfeld's algorithm.

An extension GAR (not used by GuanYu) included because the geometric median
is the canonical high-breakdown multivariate location estimator; ablations
compare it against the coordinate-wise median at the model-aggregation
points.
"""

from __future__ import annotations

import functools
import warnings
from typing import Tuple

import numpy as np

from repro.aggregation.base import Aggregate, GradientAggregationRule
from repro.kernels import active_backend
from repro.kernels.base import scratch

#: float64 elements of the scratch block a Weiszfeld pass streams a large
#: stack through: 512 KiB, a quarter of a core's L2 (2^15 to 2^19 measured;
#: ``docs/kernels.md``).  The ledger's D = 36 stacks are one block; at
#: D = 30,730 a block is two rows.
CHUNK_ELEMENTS = 1 << 16


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

    def _aggregate_batched(self, stacked: np.ndarray) -> Aggregate:
        """Weiszfeld over the whole ``(S, n, D)`` stack with an active set.

        Every slice sees the arithmetic of the scalar per-slice loop
        (``tests/gar_oracle.py``) on the same reduction axes — distances
        reduce over the contiguous last axis, the weighted sum adds the
        inputs in order, the shift is the 1-D ``dot`` that
        ``np.linalg.norm`` takes (one stacked vector·vector ``np.matmul``,
        which NumPy computes with that ``dot`` per slice) — so each row is
        bit-identical to that loop on its slice.  Both passes run in
        blocks of one scratch buffer of about :data:`CHUNK_ELEMENTS`
        (:func:`_chunks`), which changes neither reduction.  A slice that
        stops leaves the active set; the rest iterate on.
        """
        estimate = active_backend().median(stacked, axis=1)
        result = np.empty_like(estimate)
        active = np.arange(stacked.shape[0])
        self.iterations = 0
        while active.size and self.iterations < self.max_iterations:
            self.iterations += 1
            distances = _distances(stacked, estimate)
            if np.minimum.reduce(distances, axis=None) > 1e-12:
                weights = np.divide(1.0, distances, out=distances)
            else:
                # Avoid division by zero when an estimate coincides with a
                # point.
                mask = distances > 1e-12
                weights = np.divide(1.0, distances,
                                    out=np.zeros_like(distances), where=mask)
                moving = np.logical_or.reduce(mask, axis=1)
                if not np.logical_and.reduce(moving):
                    # Coincides with every point: the estimate stands.
                    result[active[~moving]] = estimate[~moving]
                    active, stacked, estimate, weights = (
                        array[moving] for array in
                        (active, stacked, estimate, weights))
                    if not active.size:
                        break
            new_estimate = _weighted_sum(weights, stacked)
            np.divide(new_estimate, np.add.reduce(weights, axis=1)[:, None],
                      out=new_estimate)
            step = np.subtract(new_estimate, estimate, out=estimate)
            shifts = np.sqrt(np.matmul(step[:, None, :],
                                       step[:, :, None])[:, 0, 0])
            estimate = new_estimate
            settled = shifts < self.tolerance
            if np.logical_or.reduce(settled):
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
        return Aggregate(result)


@functools.lru_cache(maxsize=256)
def _chunks(shape: Tuple[int, int, int], budget: int):
    """How the two passes over an ``(S, n, D)`` stack cut it to ``budget``
    elements: ``(rows, columns, size)``.

    ``rows`` are ``(s0, s1, r0, r1)`` blocks of whole rows (the distance
    pass), ``columns`` are ``(c0, c1)`` blocks of every input (the weighted
    sum), none one column wide unless ``D`` is — NumPy would then sum the
    inputs pairwise — and ``size`` is the largest block's element count.
    """
    slices, inputs, dimension = shape
    if inputs * dimension <= budget:
        step = budget // (inputs * dimension)
        rows = tuple((s, min(s + step, slices), 0, inputs)
                     for s in range(0, slices, step))
    else:
        step = max(1, budget // dimension)
        rows = tuple((s, s + 1, r, min(r + step, inputs))
                     for s in range(slices) for r in range(0, inputs, step))
    width = max(2, budget // (slices * inputs))
    count = max(1, min(-(-dimension // width), dimension // 2))
    bounds = [dimension * k // count for k in range(count + 1)]
    columns = tuple(zip(bounds, bounds[1:]))
    size = max(max((s1 - s0) * (r1 - r0) for s0, s1, r0, r1 in rows)
               * dimension,
               max(c1 - c0 for c0, c1 in columns) * slices * inputs)
    return rows, columns, size


def _distances(stacked: np.ndarray, estimate: np.ndarray) -> np.ndarray:
    """``(S, n)`` Euclidean distances of the rows of ``stacked`` to their
    slice's ``estimate``, over blocks of whole rows.

    Each row's sum of squares is one reduction over its contiguous ``D``
    elements, the same pairwise sum whichever block holds it.
    """
    # One block (every D = 36 stack): the plan, the scratch view and the
    # block loop would add 2-5 µs to a 4-9 µs pass (``docs/kernels.md``).
    if stacked.size <= CHUNK_ELEMENTS:
        difference = stacked - estimate[:, None, :]
        np.multiply(difference, difference, out=difference)
        return np.sqrt(np.add.reduce(difference, axis=2))
    rows, _, size = _chunks(stacked.shape, CHUNK_ELEMENTS)
    chunk = scratch("weiszfeld.chunk", (size,))
    distances = np.empty(stacked.shape[:2])
    for s0, s1, r0, r1 in rows:
        block = chunk[:(s1 - s0) * (r1 - r0) * stacked.shape[2]].reshape(
            s1 - s0, r1 - r0, stacked.shape[2])
        np.subtract(stacked[s0:s1, r0:r1], estimate[s0:s1, None, :],
                    out=block)
        np.multiply(block, block, out=block)
        np.add.reduce(block, axis=2, out=distances[s0:s1, r0:r1])
    return np.sqrt(distances, out=distances)


def _weighted_sum(weights: np.ndarray, stacked: np.ndarray) -> np.ndarray:
    """``(S, D)`` sums of ``weights[:, :, None] * stacked`` over the input
    axis, over blocks of columns.

    Each output adds its ``n`` terms in input order, whatever the block's
    width.
    """
    if stacked.size <= CHUNK_ELEMENTS:  # one block, as in _distances
        return np.add.reduce(weights[:, :, None] * stacked, axis=1)
    _, columns, size = _chunks(stacked.shape, CHUNK_ELEMENTS)
    chunk = scratch("weiszfeld.chunk", (size,))
    slices, inputs, dimension = stacked.shape
    total = np.empty((slices, dimension))
    for c0, c1 in columns:
        block = chunk[:slices * inputs * (c1 - c0)].reshape(
            slices, inputs, c1 - c0)
        np.multiply(weights[:, :, None], stacked[:, :, c0:c1], out=block)
        np.add.reduce(block, axis=1, out=total[:, c0:c1])
    return total
