"""Gradient Aggregation Rules (GARs).

A GAR maps ``n`` vectors of dimension ``d`` to a single vector of dimension
``d``.  GuanYu uses two of them:

* the **coordinate-wise median** ``M`` to aggregate parameter vectors (at the
  workers in phase 1 and between parameter servers in phase 3), and
* **Multi-Krum** ``F`` to aggregate gradients at the parameter servers
  (phase 2).

This package also implements the non-robust arithmetic mean (the vanilla
baseline), Krum, the trimmed mean, Bulyan and the geometric median so that
the ablation benchmarks can swap the rules at each aggregation point.
"""

from repro.aggregation.base import (
    GradientAggregationRule,
    check_vectors,
    check_vectors_batched,
)
from repro.aggregation.mean import ArithmeticMean, TrimmedMean
from repro.aggregation.median import CoordinateWiseMedian, MarginalMedian
from repro.aggregation.krum import (
    Krum,
    MultiKrum,
    krum_scores_batched,
    pairwise_squared_distances_batched,
)
from repro.aggregation.bulyan import Bulyan
from repro.aggregation.decision import (
    GarDecision,
    attacker_acceptance_rate,
    decide,
    record_decision,
)
from repro.aggregation.geometric_median import GeometricMedian
from repro.aggregation.registry import available_rules, get_rule, register_rule
from repro.aggregation.resilience import byzantine_resilience_report

__all__ = [
    "GradientAggregationRule",
    "check_vectors",
    "check_vectors_batched",
    "ArithmeticMean",
    "TrimmedMean",
    "CoordinateWiseMedian",
    "MarginalMedian",
    "Krum",
    "MultiKrum",
    "krum_scores_batched",
    "pairwise_squared_distances_batched",
    "Bulyan",
    "GarDecision",
    "decide",
    "record_decision",
    "attacker_acceptance_rate",
    "GeometricMedian",
    "get_rule",
    "register_rule",
    "available_rules",
    "byzantine_resilience_report",
]
