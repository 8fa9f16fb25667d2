"""Numerical companions to the paper's convergence proof.

The supplementary material of the paper rests on three technical pieces,
each of which has an executable counterpart here:

* **Lemma 9.2.1** — ``lim_n Σ_i k^{n-i} η_i = 0`` for ``k ∈ [0,1)`` and
  ``η_i → 0`` (:func:`geometric_learning_rate_sum`);
* **Lemma 9.2.2** — Multi-Krum's output deviates from the honest majority by
  at most a constant times the honest spread
  (:func:`multi_krum_deviation_ratio`);
* **Lemma 9.2.3** — the coordinate-wise median contracts a cloud of roughly
  aligned replicas (:func:`median_contraction_coefficient`,
  :func:`estimate_contraction`);
* **Section 9.4 / Table 2** — alignment of parameter-difference vectors,
  measured as ``cos(φ)`` between the two largest difference vectors
  (:func:`alignment_cosine`, :class:`AlignmentProbe`).

The breakdown-point arithmetic of Section 3.5 (1/2 synchronous, 1/3
asynchronous) lives in :mod:`repro.theory.bounds`.
"""

from repro.theory.contraction import (
    estimate_contraction,
    median_contraction_coefficient,
    multi_krum_deviation_ratio,
)
from repro.theory.alignment import AlignmentProbe, AlignmentSample, alignment_cosine
from repro.theory.bounds import (
    geometric_learning_rate_sum,
    optimal_asynchronous_breakdown,
)

__all__ = [
    "median_contraction_coefficient",
    "estimate_contraction",
    "multi_krum_deviation_ratio",
    "alignment_cosine",
    "AlignmentProbe",
    "AlignmentSample",
    "geometric_learning_rate_sum",
    "optimal_asynchronous_breakdown",
]
