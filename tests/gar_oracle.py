"""The per-replica GAR bodies: the oracle the one batched path is held to.

Every registered rule has one implementation in the product,
``_aggregate_batched`` over an ``(R, n, d)`` replica stack, and the single
call is R = 1.  The rules used to carry a second, single-vector body
(``_aggregate``), and the kernel backends a single-stack Gram product and
Krum neighbour sums.  Those bodies live here, unchanged apart from their
home, the way the autograd tape stays beside the dense plan: they are what
``tests/test_aggregation_batched.py`` compares every rule against, bit
for bit.

``aggregate(rule, vectors)`` runs the body for ``rule`` on one ``(n, d)``
stack; ``aggregate_per_replica(rule, stack)`` loops it over the replicas
of an ``(R, n, d)`` stack.  The mean / trimmed-mean / median reductions are
the active backend's, which both backends share; Bulyan's iterated
selection is the product's ``_select``, whose own oracle is
:func:`per_round_selection` (``tests/test_bulyan_selection.py``).
"""

from __future__ import annotations

import warnings

import numpy as np

from repro.aggregation import check_vectors, krum_scores_batched
from repro.kernels import active_backend


# --------------------------------------------------------------------------- #
# Single-stack kernels (the reference backend's bodies)
# --------------------------------------------------------------------------- #
def pairwise_squared_distances(stacked: np.ndarray) -> np.ndarray:
    """``(n, d)`` stack → ``(n, n)`` squared distances, zero diagonal."""
    stacked = np.asarray(stacked, dtype=np.float64)
    norms = np.einsum("ij,ij->i", stacked, stacked)
    squared = (norms[:, None] + norms[None, :]
               - 2.0 * (stacked @ stacked.T))
    np.fill_diagonal(squared, 0.0)
    return np.maximum(squared, 0.0)


def krum_neighbor_sums(squared: np.ndarray, num_neighbors: int) -> np.ndarray:
    nearest = np.sort(squared, axis=1)[:, :num_neighbors]
    return nearest.sum(axis=1)


def krum_scores(stacked: np.ndarray, num_byzantine: int) -> np.ndarray:
    """Compute the Krum score of every input vector.

    The score of ``x_i`` is the sum of squared distances from ``x_i`` to its
    ``n − f − 2`` nearest neighbours among the other inputs.
    """
    n = stacked.shape[0]
    num_neighbors = n - num_byzantine - 2
    if num_neighbors < 1:
        raise ValueError(
            f"Krum requires n - f - 2 >= 1 (got n={n}, f={num_byzantine})"
        )
    squared = pairwise_squared_distances(stacked)
    # Exclude the vector itself (distance 0 on the diagonal) from neighbours.
    np.fill_diagonal(squared, np.inf)
    return krum_neighbor_sums(squared, num_neighbors)


# --------------------------------------------------------------------------- #
# One body per rule; ``self`` is the configured product rule
# --------------------------------------------------------------------------- #
def _mean(self, stacked: np.ndarray) -> np.ndarray:
    return active_backend().mean(stacked, axis=0)


def _trimmed_mean(self, stacked: np.ndarray) -> np.ndarray:
    return active_backend().trimmed_mean(stacked, self.num_byzantine,
                                         axis=0)


def _median(self, stacked: np.ndarray) -> np.ndarray:
    return active_backend().median(stacked, axis=0)


def _marginal_median(self, stacked: np.ndarray) -> np.ndarray:
    if self.num_byzantine == 0:
        return active_backend().median(stacked, axis=0)
    norms = np.linalg.norm(stacked, axis=1)
    keep = np.argsort(norms)[: stacked.shape[0] - self.num_byzantine]
    return active_backend().median(stacked[keep], axis=0)


def _krum(self, stacked: np.ndarray) -> np.ndarray:
    scores = krum_scores(stacked, self.num_byzantine)
    return stacked[int(np.argmin(scores))].copy()


def _multi_krum_selected_indices(self, stacked: np.ndarray) -> np.ndarray:
    """Indices of the inputs that enter the final average."""
    stacked = np.asarray(stacked, dtype=np.float64)
    scores = krum_scores(stacked, self.num_byzantine)
    size = self.selection_size(stacked.shape[0])
    return np.argsort(scores, kind="stable")[:size]


def _multi_krum(self, stacked: np.ndarray) -> np.ndarray:
    indices = _multi_krum_selected_indices(self, stacked)
    return active_backend().mean(stacked[indices], axis=0)


def _trimmed_coordinate_mean(chosen: np.ndarray, beta: int) -> np.ndarray:
    """Per coordinate, average the ``beta`` values closest to the median."""
    backend = active_backend()
    median = backend.median(chosen, axis=0)
    distances = np.abs(chosen - median)
    closest = np.argsort(distances, axis=0, kind="stable")[:beta]
    columns = np.arange(chosen.shape[1])
    return backend.mean(chosen[closest, columns], axis=0)


def per_round_selection(stacked, num_byzantine):
    """Bulyan's selection before the one matrix: Krum, by the active
    backend's kernel, on each round's pool (the oracle of ``_select``)."""
    f = num_byzantine
    remaining = list(range(stacked.shape[0]))
    selected = []
    while len(selected) < stacked.shape[0] - 2 * f:
        subset = stacked[remaining]
        if subset.shape[0] - f - 2 >= 1:
            choice_local = int(np.argmin(krum_scores_batched(subset[None],
                                                             f)[0]))
        else:
            choice_local = int(np.argmin(np.linalg.norm(subset, axis=1)))
        selected.append(remaining.pop(choice_local))
    return selected


def _bulyan(self, stacked: np.ndarray) -> np.ndarray:
    f = self.num_byzantine
    if f == 0:
        return active_backend().mean(stacked, axis=0)
    chosen = stacked[self._select(stacked)]
    return _trimmed_coordinate_mean(chosen, max(chosen.shape[0] - 2 * f, 1))


def _geometric_median(self, stacked: np.ndarray) -> np.ndarray:
    estimate = active_backend().median(stacked, axis=0)
    self.converged = False
    self.iterations = 0
    for iteration in range(self.max_iterations):
        self.iterations = iteration + 1
        distances = np.linalg.norm(stacked - estimate, axis=1)
        # Avoid division by zero when the estimate coincides with a point.
        mask = distances > 1e-12
        if not np.any(mask):
            self.converged = True
            return estimate
        weights = np.zeros_like(distances)
        weights[mask] = 1.0 / distances[mask]
        new_estimate = (weights[:, None] * stacked).sum(axis=0) / weights.sum()
        shift = float(np.linalg.norm(new_estimate - estimate))
        estimate = new_estimate
        if shift < self.tolerance:
            self.converged = True
            break
    if not self.converged:
        warnings.warn(
            f"geometric median did not converge within "
            f"{self.max_iterations} Weiszfeld iterations "
            f"(tolerance={self.tolerance}); returning the last iterate",
            RuntimeWarning, stacklevel=3)
    return estimate


BODIES = {
    "mean": _mean,
    "trimmed_mean": _trimmed_mean,
    "median": _median,
    "marginal_median": _marginal_median,
    "krum": _krum,
    "multi_krum": _multi_krum,
    "bulyan": _bulyan,
    "geometric_median": _geometric_median,
}


def aggregate(rule, vectors) -> np.ndarray:
    """``rule`` on one ``(n, d)`` stack, by its per-replica body."""
    stacked = check_vectors(vectors)
    if stacked.shape[0] < rule.minimum_inputs():
        raise ValueError(
            f"{rule.name} with f={rule.num_byzantine} requires at least "
            f"{rule.minimum_inputs()} inputs, got {stacked.shape[0]}"
        )
    return BODIES[rule.name](rule, stacked)


def aggregate_per_replica(rule, stack: np.ndarray) -> np.ndarray:
    """``rule`` on each replica of an ``(R, n, d)`` stack, stacked."""
    return np.stack([aggregate(rule, replica) for replica in stack])


def selection(rule, stacked: np.ndarray) -> tuple:
    """``(selected, scores)`` that ``rule`` computes on one ``(n, d)``
    stack, each ``None`` where it computes none: Krum's argmin, Multi-Krum's
    best-first picks with their Krum scores, Bulyan's sorted per-round
    selection (none at f = 0, where it is the mean), the marginal median's
    sorted n − f smallest-norm inputs (none at f = 0)."""
    f = rule.num_byzantine
    if rule.name == "krum":
        scores = krum_scores(stacked, f)
        return np.array([np.argmin(scores)]), scores
    if rule.name == "multi_krum":
        return (_multi_krum_selected_indices(rule, stacked),
                krum_scores(stacked, f))
    if rule.name == "bulyan" and f:
        return np.sort(per_round_selection(stacked, f)), None
    if rule.name == "marginal_median" and f:
        norms = np.linalg.norm(stacked, axis=1)
        return np.sort(np.argsort(norms)[: stacked.shape[0] - f]), None
    return None, None
