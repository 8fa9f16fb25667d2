"""Krum and Multi-Krum (Blanchard et al., NeurIPS 2017).

Multi-Krum ``F`` is the gradient aggregation rule GuanYu's parameter servers
apply in phase 2.  With ``n`` input gradients of which at most ``f`` are
Byzantine, it requires ``n ≥ 2f + 3`` and works as follows:

1. each input ``x_i`` is assigned a score equal to the sum of squared
   distances to its ``n − f − 2`` closest other inputs;
2. the output is the arithmetic mean of the ``n − f − 2`` smallest-scoring
   inputs (plain Krum outputs the single smallest-scoring input).

The supplementary material's Lemma 9.2.2 (bounded deviation from the
majority) holds for this construction; the reproduction validates it in
``tests/test_aggregation_properties.py``.
"""

from __future__ import annotations

import numpy as np

from repro.aggregation.base import Aggregate, GradientAggregationRule
from repro.kernels import active_backend


def pairwise_squared_distances_batched(stacked: np.ndarray) -> np.ndarray:
    """Gram kernel: ``(R, n, d)`` stack → ``(R, n, n)`` squared distances.

    One stacked Gram product plus broadcasting — ``||x_i − x_j||² =
    ||x_i||² + ||x_j||² − 2⟨x_i, x_j⟩`` — instead of an ``O(n²)``
    Python-level loop.  Shared by Krum/Multi-Krum/Bulyan scoring and by the
    server-spread metric (:func:`repro.core.nodes.max_pairwise_distance`),
    which pass one ``(n, d)`` stack as ``stacked[None]``.  Computed by the
    active kernel backend (:mod:`repro.kernels`); the result may be a view
    into backend scratch storage, valid until the backend's next
    same-shape call.
    """
    return active_backend().pairwise_squared_distances_batched(stacked)


def krum_scores_batched(stacked: np.ndarray, num_byzantine: int) -> np.ndarray:
    """Krum scores of an ``(R, n, d)`` replica stack, shape ``(R, n)``.

    The score of ``x_i`` is the sum of squared distances from ``x_i`` to its
    ``n − f − 2`` nearest neighbours among the other inputs.
    """
    n = stacked.shape[1]
    num_neighbors = n - num_byzantine - 2
    if num_neighbors < 1:
        raise ValueError(
            f"Krum requires n - f - 2 >= 1 (got n={n}, f={num_byzantine})"
        )
    squared = pairwise_squared_distances_batched(stacked)
    # Exclude the vector itself (distance 0 on the diagonal) from neighbours.
    diagonal = np.arange(n)
    squared[:, diagonal, diagonal] = np.inf
    return active_backend().krum_neighbor_sums_batched(squared, num_neighbors)


class Krum(GradientAggregationRule):
    """Krum: output the single input with the smallest score."""

    name = "krum"
    byzantine_resilient = True

    def minimum_inputs(self) -> int:
        return 2 * self.num_byzantine + 3

    def _aggregate_batched(self, stacked: np.ndarray) -> Aggregate:
        scores = krum_scores_batched(stacked, self.num_byzantine)
        winners = np.argmin(scores, axis=1)
        return Aggregate(stacked[np.arange(stacked.shape[0]), winners],
                         winners[:, None], scores)


class MultiKrum(GradientAggregationRule):
    """Multi-Krum ``F``: mean of the ``n − f − 2`` smallest-scoring inputs.

    Parameters
    ----------
    num_byzantine:
        Declared number of Byzantine inputs ``f``; the rule requires at least
        ``2f + 3`` inputs.
    num_selected:
        Number ``m`` of gradients averaged.  Defaults to ``n − f − 2`` as in
        the paper; any ``1 ≤ m ≤ n − f − 2`` is accepted for ablations.
    """

    name = "multi_krum"
    byzantine_resilient = True

    def __init__(self, num_byzantine: int = 0, num_selected: int = None) -> None:
        super().__init__(num_byzantine)
        self.num_selected = num_selected

    def minimum_inputs(self) -> int:
        return 2 * self.num_byzantine + 3

    def selection_size(self, num_inputs: int) -> int:
        """Number of gradients averaged for ``num_inputs`` inputs."""
        default = num_inputs - self.num_byzantine - 2
        if self.num_selected is None:
            return default
        return max(1, min(self.num_selected, default))

    def _aggregate_batched(self, stacked: np.ndarray) -> Aggregate:
        scores = krum_scores_batched(stacked, self.num_byzantine)
        # each replica's m best-scoring inputs, best first
        indices = np.argsort(scores, axis=1, kind="stable")[
            :, :self.selection_size(stacked.shape[1])]
        # A plain fancy index: ``take_along_axis`` would build an index of
        # size m·d to gather the same m rows.
        chosen = stacked[np.arange(stacked.shape[0])[:, None], indices]
        return Aggregate(active_backend().mean(chosen, axis=1), indices,
                         scores)
