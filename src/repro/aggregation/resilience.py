"""Byzantine-resilience bookkeeping for aggregation rules.

:func:`byzantine_resilience_report` measures how far a rule's output strays
from the correct inputs under attack.  The arithmetic constraints behind it
(Multi-Krum's ``n ≥ 2f + 3``, the 1/3 asynchronous breakdown point of
Section 3.5) live in :mod:`repro.core.config` and :mod:`repro.theory.bounds`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np


@dataclass
class ResilienceReport:
    """Summary of how far an aggregation output deviates under attack."""

    rule_name: str
    num_inputs: int
    num_byzantine: int
    deviation_from_correct_mean: float
    max_correct_spread: float
    within_correct_hull: bool

    def as_dict(self) -> Dict[str, float]:
        return {
            "rule": self.rule_name,
            "n": self.num_inputs,
            "f": self.num_byzantine,
            "deviation_from_correct_mean": self.deviation_from_correct_mean,
            "max_correct_spread": self.max_correct_spread,
            "within_correct_hull": self.within_correct_hull,
        }


def byzantine_resilience_report(rule, correct_vectors: np.ndarray,
                                byzantine_vectors: np.ndarray) -> ResilienceReport:
    """Empirically measure a rule's deviation under a concrete attack.

    Parameters
    ----------
    rule:
        A configured :class:`GradientAggregationRule`.
    correct_vectors:
        Array ``(n - f, d)`` of honest inputs.
    byzantine_vectors:
        Array ``(f, d)`` of adversarial inputs.

    Returns
    -------
    ResilienceReport
        Deviation of the aggregate from the mean of correct inputs, the
        spread of correct inputs, and whether the aggregate stays inside the
        coordinate-wise bounding box of the correct inputs.
    """
    correct_vectors = np.atleast_2d(np.asarray(correct_vectors, dtype=np.float64))
    byzantine_vectors = np.atleast_2d(np.asarray(byzantine_vectors, dtype=np.float64))
    if byzantine_vectors.size == 0:
        all_vectors = correct_vectors
        num_byzantine = 0
    else:
        all_vectors = np.concatenate([correct_vectors, byzantine_vectors])
        num_byzantine = byzantine_vectors.shape[0]

    aggregate = rule(all_vectors)
    correct_mean = correct_vectors.mean(axis=0)
    deviation = float(np.linalg.norm(aggregate - correct_mean))

    if correct_vectors.shape[0] > 1:
        diffs = correct_vectors[:, None, :] - correct_vectors[None, :, :]
        spread = float(np.max(np.linalg.norm(diffs, axis=-1)))
    else:
        spread = 0.0

    lower = correct_vectors.min(axis=0) - 1e-9
    upper = correct_vectors.max(axis=0) + 1e-9
    within = bool(np.all(aggregate >= lower) and np.all(aggregate <= upper))

    return ResilienceReport(
        rule_name=getattr(rule, "name", type(rule).__name__),
        num_inputs=all_vectors.shape[0],
        num_byzantine=num_byzantine,
        deviation_from_correct_mean=deviation,
        max_correct_spread=spread,
        within_correct_hull=within,
    )
