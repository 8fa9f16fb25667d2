"""Median-based aggregation rules.

The coordinate-wise median ``M`` is the rule GuanYu applies to *parameter
vectors*: at the workers (phase 1, aggregating the first ``q`` models
received from the parameter servers) and between parameter servers
(phase 3).  Its contraction property — the median of a cloud of replicas
stays inside the bounding box of the correct replicas as long as they form a
majority — is the backbone of the convergence proof (supplementary
Lemma 9.2.3).
"""

from __future__ import annotations

import numpy as np

from repro.aggregation.base import GradientAggregationRule
from repro.kernels import active_backend


class CoordinateWiseMedian(GradientAggregationRule):
    """Coordinate-wise median ``M`` (paper Section 3.2).

    For every coordinate ``i``, the output's ``i``-th entry is the median of
    the inputs' ``i``-th entries.  With ``n`` inputs of which at most ``f``
    are Byzantine, each output coordinate is guaranteed to lie within the
    range spanned by correct inputs whenever ``n ≥ 2f + 1``.
    """

    name = "median"
    byzantine_resilient = True

    def minimum_inputs(self) -> int:
        return 2 * self.num_byzantine + 1

    def _aggregate_batched(self, stacked: np.ndarray) -> np.ndarray:
        return active_backend().median(stacked, axis=1)


class MarginalMedian(GradientAggregationRule):
    """Coordinate-wise median restricted to the ``n - f`` smallest-norm inputs.

    A conservative variant used in ablations: it first discards the ``f``
    inputs with the largest norms (cheap outlier rejection) and then applies
    the coordinate-wise median to the rest.
    """

    name = "marginal_median"
    byzantine_resilient = True

    def minimum_inputs(self) -> int:
        return 2 * self.num_byzantine + 2

    def _aggregate_batched(self, stacked: np.ndarray) -> np.ndarray:
        if self.num_byzantine:
            norms = np.linalg.norm(stacked, axis=2)
            keep = np.argsort(norms, axis=1)[
                :, : stacked.shape[1] - self.num_byzantine]
            stacked = stacked[np.arange(stacked.shape[0])[:, None], keep]
        return active_backend().median(stacked, axis=1)
