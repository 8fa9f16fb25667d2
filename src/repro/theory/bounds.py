"""Breakdown-point arithmetic and the learning-rate lemma (Sections 3.5, 9.2.1)."""

from __future__ import annotations

from typing import Sequence

import numpy as np


def geometric_learning_rate_sum(learning_rates: Sequence[float], k: float) -> float:
    """Compute ``Σ_{i=0}^{n} k^{n−i} η_i`` for the given learning-rate prefix.

    Lemma 9.2.1 of the supplementary material shows this quantity converges
    to 0 whenever ``k ∈ [0, 1)`` and ``η_i → 0``; the theory tests verify the
    numeric decay for representative schedules.
    """
    if not 0.0 <= k < 1.0:
        raise ValueError("k must lie in [0, 1)")
    learning_rates = np.asarray(list(learning_rates), dtype=np.float64)
    n = learning_rates.size - 1
    if n < 0:
        return 0.0
    powers = k ** (n - np.arange(n + 1))
    return float(np.sum(powers * learning_rates))


def optimal_asynchronous_breakdown() -> float:
    """The 1/3 optimal Byzantine fraction in asynchronous networks.

    Section 3.5: synchronous robust aggregation has a breakdown point of
    1/2 (Rousseeuw, 1985); asynchrony makes slow correct nodes
    indistinguishable from silent Byzantine ones, forcing one extra correct
    node per Byzantine node, hence ``(1/2) / (3/2) = 1/3``.
    """
    synchronous_breakdown = 0.5
    overprovisioning = 1.0 + synchronous_breakdown
    return synchronous_breakdown / overprovisioning


def krum_kappa(num_workers: int, num_byzantine: int) -> float:
    """The constant κ of Assumption 9 in the convergence conditions.

    ``κ = k · sqrt(2 (n − f + f(n − f − 2) + f²(n − f − 1)) / (n − 2f − 2))``
    with ``k > 1``; returned here with ``k = 1`` as the tight value, used by
    the theory tests to check monotonicity in ``f``.
    """
    n, f = num_workers, num_byzantine
    denominator = n - 2 * f - 2
    if denominator <= 0:
        raise ValueError("Krum's condition n >= 2f + 3 is violated")
    numerator = 2 * (n - f + f * (n - f - 2) + f ** 2 * (n - f - 1))
    return float(np.sqrt(numerator / denominator))
