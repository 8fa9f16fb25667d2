"""Bulyan (El-Mhamdi et al., ICML 2018).

Bulyan combats the "hidden vulnerability" of distance-based rules in high
dimension by composing a selection rule (Krum here) with a per-coordinate
trimmed average.  It is not used by GuanYu itself but is included as an
ablation comparator for the server-side gradient aggregation.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.aggregation.base import Aggregate, GradientAggregationRule
from repro.aggregation.krum import Krum, pairwise_squared_distances_batched
from repro.kernels import active_backend
from repro.kernels.base import scratch
from repro.obs.tracer import get_tracer

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
    scores = active_backend().krum_neighbor_sums_batched(
        distances[np.ix_(pool, pool)][None], num_neighbors)[0]
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
        # A copy: the backend may hand back scratch that Krum's body reuses.
        distances = np.array(
            pairwise_squared_distances_batched(stacked[None])[0])
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
                    choice_local = int(krum._aggregate_batched(
                        stacked[remaining][None]).selected[0, 0])
            else:
                choice_local = int(np.argmin(
                    np.linalg.norm(stacked[remaining], axis=1)))
            selected.append(remaining.pop(choice_local))
        return selected

    def _aggregate_batched(self, stacked: np.ndarray) -> Aggregate:
        f = self.num_byzantine
        if f == 0:  # the mean: every input contributes
            return Aggregate(active_backend().mean(stacked, axis=1))
        # The iterated selection is inherently sequential per replica (each
        # round's pool depends on the previous choice), so it stays a loop;
        # the final per-coordinate trim is vectorised over the replica axis.
        # The rows are trimmed in pick order, their summation order; only
        # the recorded selection is sorted.
        picks = [self._select(replica) for replica in stacked]
        chosen = np.stack([replica[rows]
                           for replica, rows in zip(stacked, picks)])
        return Aggregate(
            trimmed_coordinate_mean(chosen, max(chosen.shape[1] - 2 * f, 1)),
            np.sort(picks, axis=1))


def trimmed_coordinate_mean(chosen: np.ndarray, beta: int) -> np.ndarray:
    """Per replica and coordinate of ``chosen`` ``(R, θ, D)``, the mean of
    the ``beta`` values nearest the median, reduced nearest first.

    Ties in distance go to the lower row, as a stable ``argsort`` orders
    them (:func:`_trim_by_argsort`, the definition).  The window walk
    (:func:`_trim_by_window`) computes the same picks from one sort and
    proves it did; a stack it cannot prove goes to the ``argsort``, and the
    tracer counts ``bulyan.trim_fallback``.
    """
    trimmed = _trim_by_window(chosen, beta)
    if trimmed is None:
        get_tracer().count("bulyan.trim_fallback")
        trimmed = _trim_by_argsort(chosen, beta)
    return trimmed


def _trim_by_argsort(chosen: np.ndarray, beta: int) -> np.ndarray:
    backend = active_backend()
    median = backend.median(chosen, axis=1)
    distances = np.abs(chosen - median[:, None, :])
    closest = np.argsort(distances, axis=1, kind="stable")[:, :beta]
    return backend.mean(np.take_along_axis(chosen, closest, axis=1), axis=1)


def _clash(distance, bits, other_distance, other_bits) -> bool:
    """Whether two candidates tie in distance but differ in bits: the
    ``argsort`` would order them by row, which the sort has lost."""
    tied = distance == other_distance
    return bool(tied.any() and np.any(bits[tied] != other_bits[tied]))


def _trim_by_window(chosen: np.ndarray, beta: int) -> Optional[np.ndarray]:
    """The ``argsort`` trim from one sort along the quorum axis, or ``None``.

    Distances ``|x − m|`` are monotone in ``x`` on each side of the median
    ``m``, so the ``beta`` nearest values are a window of the sorted order
    around it.  The walk grows that window one pick at a time, taking the
    nearer of the two frontier values, and writes the picks into a
    C-contiguous ``(R, β, D)`` stack in pick order — the order, and so the
    summation order, of the ``argsort``'s gathered stack.

    The picks are the ``argsort``'s wherever equal distances carry equal
    bits, since rows are then interchangeable.  Every pair whose order the
    walk decides is checked: each pick against the frontier on either side
    after it (one of them the value it was chosen over), and at the end
    the last pick against every candidate past the window at its distance.
    One pair at equal distance with different bits — a mirror tie, a
    rounding tie, ±0 — returns ``None``.  So does a NaN or infinite median,
    and so does an even θ before any work: its median ``(a + b) / 2`` is
    usually exact, so the two middle values tie at the first step.
    """
    replicas, length, dimension = chosen.shape
    if length % 2 == 0:
        return None
    shape = (replicas, dimension)
    ordered = np.sort(chosen, axis=1)
    if np.isnan(ordered[:, -1]).any():
        return None
    half = length // 2
    median = ordered[:, half]
    if not np.isfinite(median).all():
        return None
    bits = ordered.reshape(-1).view(np.int64)
    # The walk's (R, D) state lives in this thread's scratch: fresh pages
    # for it cost about as much as the walk itself.
    walk = scratch("bulyan.walk", (10,) + shape, np.int64)
    base, low, high, mask = walk[:4]  # flat positions; base is rank 0
    below, above, last = ((walk[row].view(np.float64), walk[row + 1])
                          for row in (4, 6, 8))  # (distance, bits) each
    take_low = scratch("bulyan.take_low", shape, bool)
    picks = np.empty((replicas, beta, dimension))
    np.add(np.arange(0, bits.size, length * dimension)[:, None],
           np.arange(dimension), out=base)

    def candidate(position, clipped, out=None):
        """Distance and bits at each column's ``position`` (into ``out``, a
        pair of buffers, if given); one past either end of its column is
        at distance ``inf`` (with an end's bits)."""
        if clipped:
            rank = (position - base) // dimension
            outside = (rank < 0) | (rank >= length)
            position = base + np.clip(rank, 0, length - 1) * dimension
        distances, found = out or (np.empty(shape), np.empty(shape, np.int64))
        bits.take(position, out=found, mode="clip")  # in range: unbuffered
        np.subtract(found.view(np.float64), median, out=distances)
        np.abs(distances, out=distances)
        if clipped:
            distances[outside] = np.inf
        return distances, found

    np.add(base, (half - 1) * dimension, out=low)
    np.add(base, (half + 1) * dimension, out=high)
    picks[:, 0] = median
    last[0].fill(0.0)
    np.copyto(last[1], median.view(np.int64))
    for k in range(1, beta + 1):
        # past either end only once k picks can have used up a side
        clipped = half - k < 0
        candidate(low, clipped, below)
        candidate(high, clipped, above)
        if _clash(*last, *below) or _clash(*last, *above):
            return None
        if k == beta:
            break
        np.less(below[0], above[0], out=take_low)
        # A branch-free select: mask is -1 (every bit set) where the lower
        # frontier is nearer, else 0.
        np.copyto(mask, take_low)
        np.negative(mask, out=mask)
        np.bitwise_xor(below[1], above[1], out=last[1])
        np.bitwise_and(last[1], mask, out=last[1])
        np.bitwise_xor(last[1], above[1], out=last[1])
        np.minimum(below[0], above[0], out=last[0])
        picks[:, k] = last[1].view(np.float64)
        # now -D where the lower frontier was taken, else 0: the taken
        # side's frontier moves out one rank
        mask *= dimension
        low += mask
        high += mask
        high += dimension
    # Candidates past the window that tie the last pick with its bits are
    # duplicates of it; one past them must not tie with other bits.
    for position, frontier, step in ((low, below, -1), (high, above, 1)):
        duplicate = frontier[0] == last[0]
        while duplicate.any():
            position = position + step * dimension * duplicate
            frontier = candidate(position, True)
            if _clash(*last, *frontier):
                return None
            rank = (position - base) // dimension
            duplicate = ((frontier[0] == last[0]) & (rank >= 0)
                         & (rank < length))
    return active_backend().mean(picks, axis=1)
