"""Parameter-vector alignment measurements (paper Section 9.4, Table 2).

Assumption 2 of the convergence proof states that, after some step, the
correct parameter vectors are roughly aligned along a common direction.
The authors validate it empirically by recording, every 20 steps, the two
largest norms among all pairwise parameter-difference vectors and the cosine
of the angle between those two difference vectors (their Table 2 shows
values close to 1).  :class:`AlignmentProbe` performs exactly that
measurement on a running :class:`~repro.core.trainer.GuanYuTrainer`.

After a deterministic median over identical quorums several correct
servers hold the *same* vector.  Counted once per server, such a vector
makes the two largest differences one difference counted twice
(``θ_a − θ_c`` and ``θ_b − θ_c`` with ``θ_a = θ_b``), whose cosine is
exactly 1 and says nothing about alignment.  The measurement therefore
runs over the *distinct* vectors, and each sample records how many there
were.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np


def distinct_vectors(parameter_vectors: Sequence[np.ndarray]
                     ) -> List[np.ndarray]:
    """The vectors with exact duplicates dropped, first occurrences first."""
    distinct: List[np.ndarray] = []
    for vector in parameter_vectors:
        vector = np.asarray(vector, dtype=np.float64)
        if not any(np.array_equal(vector, seen) for seen in distinct):
            distinct.append(vector)
    return distinct


def alignment_cosine(parameter_vectors: Sequence[np.ndarray],
                     top_k: int = 2) -> Tuple[float, List[float], int]:
    """Cosine between the two largest parameter-difference vectors.

    Parameters
    ----------
    parameter_vectors:
        The correct servers' parameter vectors θ^(i) at some step.  Exact
        duplicates count once: differences are formed over the distinct
        vectors only.
    top_k:
        How many of the largest-norm difference vectors to report.

    Returns
    -------
    (cos_phi, norms, distinct):
        ``cos_phi`` is ``a·b / (||a|| ||b||)`` for the two largest-norm
        difference vectors ``a`` and ``b`` (``nan`` when fewer than three
        distinct vectors, hence two differences, exist); ``norms`` lists
        the ``top_k`` largest difference norms, matching Table 2's "max
        diff" columns; ``distinct`` counts the distinct vectors.
    """
    vectors = distinct_vectors(parameter_vectors)
    differences = []
    for i in range(len(vectors)):
        for j in range(i + 1, len(vectors)):
            differences.append(vectors[i] - vectors[j])
    norms = np.array([np.linalg.norm(diff) for diff in differences])
    order = np.argsort(norms)[::-1]
    top_norms = [float(norms[k]) for k in order[:top_k]]

    if len(order) < 2 or norms[order[0]] <= 0 or norms[order[1]] <= 0:
        return float("nan"), top_norms, len(vectors)
    a = differences[order[0]]
    b = differences[order[1]]
    cos_phi = float(np.dot(a, b) / (np.linalg.norm(a) * np.linalg.norm(b)))
    # Difference vectors are defined up to sign (θ_i − θ_j vs θ_j − θ_i);
    # alignment is about the spanned direction, so report |cos|.
    return abs(cos_phi), top_norms, len(vectors)


@dataclass
class AlignmentSample:
    """One row of the Table 2 reproduction."""

    step: int
    cos_phi: float
    max_diff_1: float
    max_diff_2: float
    #: how many of the servers' vectors were distinct
    distinct: int


class AlignmentProbe:
    """Record alignment samples from a GuanYu trainer every ``interval`` steps."""

    def __init__(self, interval: int = 20) -> None:
        if interval <= 0:
            raise ValueError("interval must be positive")
        self.interval = interval
        self.samples: List[AlignmentSample] = []

    def maybe_record(self, step: int, parameter_vectors: Sequence[np.ndarray]) -> None:
        """Record a sample when ``step`` falls on the probe's interval."""
        if step % self.interval != 0:
            return
        cos_phi, norms, distinct = alignment_cosine(parameter_vectors, top_k=2)
        norms = norms + [float("nan")] * (2 - len(norms))
        self.samples.append(AlignmentSample(step=step, cos_phi=cos_phi,
                                            max_diff_1=norms[0], max_diff_2=norms[1],
                                            distinct=distinct))

    def as_rows(self) -> List[Tuple[int, float, float, float]]:
        """Rows ``(step, cos_phi, max_diff1, max_diff2)`` — Table 2's format."""
        return [(s.step, s.cos_phi, s.max_diff_1, s.max_diff_2) for s in self.samples]
