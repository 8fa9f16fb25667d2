"""Bulyan (El-Mhamdi et al., ICML 2018).

Bulyan combats the "hidden vulnerability" of distance-based rules in high
dimension by composing a selection rule (Krum here) with a per-coordinate
trimmed average.  It is not used by GuanYu itself but is included as an
ablation comparator for the server-side gradient aggregation.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.aggregation.base import GradientAggregationRule
from repro.aggregation.krum import Krum, pairwise_squared_distances
from repro.kernels import active_backend

_UNIT_ROUNDOFF = np.finfo(np.float64).eps / 2
_TINY = np.finfo(np.float64).tiny
#: Squared norms up to this keep every distance finite on both routes; the
#: error bound assumes no overflow.
_NO_OVERFLOW = np.finfo(np.float64).max / 8


def _gamma(terms: int) -> float:
    """``γ_k = k·u / (1 − k·u)``: the relative error bound of a ``k``-term
    dot product or sum of non-negative terms, in any summation order."""
    return terms * _UNIT_ROUNDOFF / (1.0 - terms * _UNIT_ROUNDOFF)


def certified_krum_choice(distances: np.ndarray, norms: np.ndarray,
                          pool: np.ndarray, num_neighbors: int,
                          dimension: int) -> Optional[int]:
    """Krum's winner among ``pool``, scored from one distance matrix.

    ``distances`` is the pairwise matrix of the whole stack with an
    ``inf`` diagonal and ``norms`` its squared row norms.  Returns the
    position in ``pool`` that the Gram kernel run on ``stacked[pool]``
    would pick, or ``None`` when the sub-block cannot prove it.

    The two routes differ only in rounding: by either, a distance lies
    within ``ε(‖x_i‖² + ‖x_j‖²)`` of the exact one, ``ε = 2γ_D + 4u``,
    whatever the GEMM's blocking, so an input's two scores differ by at
    most about ``2(2ε + γ_k)·score + 6kε‖x_i‖²`` (``docs/kernels.md``
    derives it).  ``tolerance`` is twice that plus an underflow floor.  A
    winner whose score plus tolerance lies strictly below every other
    score minus tolerance is the subset kernel's strict minimum too.  A
    NaN or inf score fails the test, and so does a squared norm past
    ``_NO_OVERFLOW``, where one route could overflow and the other not.
    """
    if not np.all(norms[pool] <= _NO_OVERFLOW):
        return None
    scores = active_backend().krum_neighbor_sums(
        distances[np.ix_(pool, pool)], num_neighbors)
    best = int(np.argmin(scores))
    epsilon = 2 * _gamma(dimension) + 4 * _UNIT_ROUNDOFF
    tolerance = 4 * ((2 * epsilon + _gamma(num_neighbors)) * scores
                     + 3 * num_neighbors * epsilon * norms[pool]
                     + 4 * num_neighbors * dimension * _TINY)
    lower = scores - tolerance
    lower[best] = np.inf
    if np.all(lower > scores[best] + tolerance[best]):
        return best
    return None


class Bulyan(GradientAggregationRule):
    """Bulyan aggregation: iterated Krum selection + trimmed coordinate mean.

    Requires ``n ≥ 4f + 3`` inputs.  The rule repeatedly runs Krum to select
    ``n − 2f`` vectors, then for each coordinate averages the ``n − 4f``
    values closest to the coordinate-wise median of the selection.
    """

    name = "bulyan"
    byzantine_resilient = True

    def minimum_inputs(self) -> int:
        return 4 * self.num_byzantine + 3

    def _select(self, stacked: np.ndarray) -> list:
        """Iterated Krum selection: indices of the ``n − 2f`` chosen inputs.

        One distance matrix serves every round.  A round scores its pool
        from the matrix's sub-block and keeps the winner when
        :func:`certified_krum_choice` proves it is Krum's on the pool; only
        a near tie runs Krum on the pool itself, so the choices are always
        those of one Gram product per round.
        """
        f = self.num_byzantine
        n, dimension = stacked.shape
        # A copy: the backend may hand back scratch that Krum.select reuses.
        distances = np.array(pairwise_squared_distances(stacked))
        np.fill_diagonal(distances, np.inf)
        norms = np.einsum("ij,ij->i", stacked, stacked)
        remaining = list(range(n))
        selected = []
        krum = Krum(num_byzantine=f)
        while len(selected) < n - 2 * f:
            num_neighbors = len(remaining) - f - 2
            # Krum needs n - f - 2 >= 1; fall back to smallest-norm choice when
            # the remaining pool becomes too small for a full Krum round.
            if num_neighbors >= 1:
                choice_local = certified_krum_choice(
                    distances, norms, np.array(remaining), num_neighbors,
                    dimension)
                if choice_local is None:
                    choice_local = krum.select(stacked[remaining])
            else:
                choice_local = int(np.argmin(
                    np.linalg.norm(stacked[remaining], axis=1)))
            selected.append(remaining.pop(choice_local))
        return selected

    @staticmethod
    def _trimmed_coordinate_mean(chosen: np.ndarray, beta: int) -> np.ndarray:
        """Per coordinate, average the ``beta`` values closest to the median."""
        backend = active_backend()
        median = backend.median(chosen, axis=0)
        distances = np.abs(chosen - median)
        closest = np.argsort(distances, axis=0, kind="stable")[:beta]
        columns = np.arange(chosen.shape[1])
        return backend.mean(chosen[closest, columns], axis=0)

    def _beta(self, selection_size: int) -> int:
        return max(selection_size - 2 * self.num_byzantine, 1)

    def _aggregate(self, stacked: np.ndarray) -> np.ndarray:
        f = self.num_byzantine
        if f == 0:
            return active_backend().mean(stacked, axis=0)
        chosen = stacked[self._select(stacked)]
        return self._trimmed_coordinate_mean(chosen, self._beta(chosen.shape[0]))

    def selected_input_indices(self, stacked: np.ndarray):
        if self.num_byzantine == 0:
            return None  # degenerates to the mean: every input contributes
        return np.array(sorted(self._select(np.asarray(stacked, dtype=np.float64))))

    def _aggregate_batched(self, stacked: np.ndarray) -> np.ndarray:
        f = self.num_byzantine
        if f == 0:
            return active_backend().mean(stacked, axis=1)
        # The iterated selection is inherently sequential per replica (each
        # round's pool depends on the previous choice), so it stays a loop;
        # the final per-coordinate trim is vectorised over the replica axis.
        backend = active_backend()
        chosen = np.stack([replica[self._select(replica)] for replica in stacked])
        beta = self._beta(chosen.shape[1])
        median = backend.median(chosen, axis=1)
        distances = np.abs(chosen - median[:, None, :])
        closest = np.argsort(distances, axis=1, kind="stable")[:, :beta]
        gathered = np.take_along_axis(chosen, closest, axis=1)
        return backend.mean(gathered, axis=1)
