"""The kernel backend contract.

A :class:`KernelBackend` implements the system's hot numerical kernels —
the Gram/pairwise squared-distance kernel behind Krum/Multi-Krum/Bulyan,
the mean/trimmed-mean/median reductions every GAR is built from, and the
replica-batched dense forward/backward of :mod:`repro.nn.plan` — so
that an optimised implementation can be swapped in without touching the
protocol or aggregation layers.

The contract is strict: **every backend must be bit-identical to the
``reference`` backend on every input** (same IEEE-754 doubles, not merely
close).  Cross-runtime equivalence is the repository's load-bearing
invariant — sequential↔batched full-history bit-identity rests on these
kernels — so a backend that is "just" numerically close would silently
break the tier-1 suites.  ``tests/test_kernels.py`` enforces the bitwise
gate for every registered backend against every registered GAR.

Safe optimisation levers (used by ``numpy-opt``): per-thread scratch
buffers, ``out=`` ufunc targets, a single-``kth`` ``np.partition`` followed
by an ascending sort of the selected block (the summands and their order
are unchanged), and fused/stacked GEMMs (NumPy runs the identical GEMM per slice).  Unsafe:
anything that reorders a floating-point reduction.

The order-statistic reductions (median, trimmed mean) are shared by every
backend and select exactly: a full ``np.sort`` along the axis, or — for
3 ≤ q ≤ 16 at a row width where it measured faster — a pruned Batcher
comparator network of whole-row ``np.minimum``/``np.maximum`` calls.  A
selection by ``np.partition`` or ``np.median`` loses to both; the
crossover table is in ``docs/kernels.md``.
"""

from __future__ import annotations

import functools
from typing import List, Optional, Tuple

import numpy as np

#: the dense-stack plan entries: ("dense", in_f, out_f, w_slice, b_slice)
#: or ("relu",) — see :class:`repro.nn.plan.BatchedDenseStack`
DensePlan = List[Tuple]

#: Axis lengths the comparator network selects over; past q = 16 its gain
#: at D = 30,730 falls to 1.1-1.3x, and by q = 24 the sort wins.
NETWORK_LENGTHS = range(3, 17)
#: Row width (``stacked.size // q``) from which each reduction uses the
#: network.  Both cross over at 1,000-2,000 elements (per-call overhead
#: below).  At 2,048 every median length in range measured at least 1.42x,
#: which takes seed_sweep's folds (144 x 36 and 96 x 36) onto the network
#: and keeps seq_grid's narrower ones on the sort.  The trimmed mean's
#: (15, 1) is still 0.72x there; from 8,192 every one is at least 1.46x.
MEDIAN_MIN_WIDTH = 2048
TRIMMED_MEAN_MIN_WIDTH = 8192


def _takes_network(stacked: np.ndarray, length: int, min_width: int) -> bool:
    return (length in NETWORK_LENGTHS
            and stacked.size // length >= min_width)


@functools.lru_cache(maxsize=None)
def selection_plan(length: int, ranks: Tuple[int, ...]
                   ) -> Tuple[Tuple[int, int, bool, bool], ...]:
    """Batcher's odd–even merge sort on ``length`` wires, pruned to ``ranks``.

    Built for the next power of two, with the wires past ``length`` read as
    ``+inf`` (every comparator touching one is a no-op and is dropped), then
    walked backwards: a comparator whose outputs feed no later kept
    comparator and no wanted rank is dropped.  Entries are ``(low, high,
    keep_min, keep_max)``; ``low`` receives the minimum, ``high`` the
    maximum, and only the kept outputs are computed.
    """
    padded = 1 << (length - 1).bit_length()
    comparators = []
    block = 1
    while block < padded:
        step = block
        while step:
            for start in range(step % block, padded - step, 2 * step):
                for low in range(start, start + step):
                    high = low + step
                    if high < length and \
                            low // (2 * block) == high // (2 * block):
                        comparators.append((low, high))
            step //= 2
        block *= 2
    needed = set(ranks)
    plan = []
    for low, high in reversed(comparators):
        keep_min, keep_max = low in needed, high in needed
        if keep_min or keep_max:
            plan.append((low, high, keep_min, keep_max))
            needed.update((low, high))
    return tuple(reversed(plan))


def network_ranks(stacked: np.ndarray, axis: int, ranks: Tuple[int, ...],
                  lower) -> List[np.ndarray]:
    """The values at ascending ``ranks`` along ``axis``, one array each.

    Runs :func:`selection_plan` as whole-row ufunc calls over the other
    axes.  ``lower`` is the comparator's minimum: ``np.minimum`` makes a NaN
    anywhere in an output's cone NaN (``np.median``'s rule — the median's
    cone is every input), ``np.fmin`` lets a NaN lose every minimum and win
    every maximum, i.e. sort last as ``np.sort`` puts it.  Each output goes
    to a free row of one ``(q + 2, ...)`` scratch block, and the rows its
    inputs held are freed after; the input is only read, and the returned
    arrays are views of the block.
    """
    rows = np.moveaxis(stacked, axis, 0)
    length = rows.shape[0]
    block = np.empty((length + 2,) + rows.shape[1:], dtype=stacked.dtype)
    free = list(range(length + 2))
    wires = list(rows)  # a wire reads its input row until first written
    held: List[Optional[int]] = [None] * length
    for low, high, keep_min, keep_max in selection_plan(length, ranks):
        left, right = wires[low], wires[high]
        released = held[low], held[high]
        if keep_min:
            held[low] = free.pop()
            wires[low] = lower(left, right, out=block[held[low]])
        if keep_max:
            held[high] = free.pop()
            wires[high] = np.maximum(left, right, out=block[held[high]])
        free.extend(row for row in released if row is not None)
    return [wires[rank] for rank in ranks]


class KernelBackend:
    """Abstract kernel backend.

    Subclasses implement the pairwise and dense kernels; the reductions
    (mean, trimmed mean, median) are shared.  The registry
    (:mod:`repro.kernels.registry`) instantiates one singleton per backend.
    Backends must be stateless apart from reusable scratch buffers, and
    those must be per thread — one instance is shared by every trainer in
    the process, and the threaded runtime calls it from several node
    threads at once.
    """

    #: registry name (``reference``, ``numpy-opt``, ...)
    name: str = "abstract"

    # ------------------------------------------------------------------ #
    # Pairwise squared distances (Krum / Multi-Krum / Bulyan / spread)
    # ------------------------------------------------------------------ #
    def pairwise_squared_distances(self, stacked: np.ndarray) -> np.ndarray:
        """``(n, d)`` stack → ``(n, n)`` squared Euclidean distances.

        Zero diagonal, clamped at 0 (the Gram identity can go slightly
        negative through cancellation).
        """
        raise NotImplementedError

    def pairwise_squared_distances_batched(self,
                                           stacked: np.ndarray) -> np.ndarray:
        """``(R, n, d)`` stack → ``(R, n, n)``; slice ``r`` must be
        bit-identical to :meth:`pairwise_squared_distances` on
        ``stacked[r]``."""
        raise NotImplementedError

    def krum_neighbor_sums(self, squared: np.ndarray,
                           num_neighbors: int) -> np.ndarray:
        """Sum of each row's ``num_neighbors`` smallest entries, ascending.

        ``squared`` is a pairwise matrix with the diagonal already set to
        ``inf`` (so a vector is never its own neighbour); the reduction
        must sum the selected values in ascending order, exactly like
        ``np.sort(...)[..., :k].sum(-1)``.
        """
        raise NotImplementedError

    def krum_neighbor_sums_batched(self, squared: np.ndarray,
                                   num_neighbors: int) -> np.ndarray:
        """Batched :meth:`krum_neighbor_sums` over a ``(R, n, n)`` stack."""
        raise NotImplementedError

    # ------------------------------------------------------------------ #
    # Reductions (mean / trimmed mean / median families)
    # ------------------------------------------------------------------ #
    # One implementation, shared by every backend.  A full ``np.sort`` along
    # the axis beats ``np.median`` and every ``np.partition`` selection; the
    # pruned comparator network beats the sort for 3 <= q <= 16 on wide rows
    # (4.7x on wide_gar's (1, 7, 30730)).  The crossover table is in
    # ``docs/kernels.md``.
    def mean(self, stacked: np.ndarray, axis: int) -> np.ndarray:
        """Arithmetic mean along ``axis`` (``np.mean`` semantics)."""
        return stacked.mean(axis=axis)

    def trimmed_mean(self, stacked: np.ndarray, trim: int,
                     axis: int) -> np.ndarray:
        """Discard the ``trim`` smallest and largest per coordinate, then
        mean the rest **in ascending order** (the middle ranks, laid out
        and reduced as the middle slice of a sorted copy would be)."""
        if trim == 0:
            return stacked.mean(axis=axis)
        stacked = np.asarray(stacked)
        length = stacked.shape[axis]
        if 2 * trim < length and _takes_network(stacked, length,
                                                TRIMMED_MEAN_MIN_WIDTH):
            middle = network_ranks(stacked, axis,
                                   tuple(range(trim, length - trim)), np.fmin)
            return np.stack(middle, axis=axis).mean(axis=axis)
        ordered = np.sort(stacked, axis=axis)
        window = [slice(None)] * ordered.ndim
        window[axis] = slice(trim, -trim)
        return ordered[tuple(window)].mean(axis=axis)

    def median(self, stacked: np.ndarray, axis: int) -> np.ndarray:
        """Coordinate-wise median along ``axis``, equal to ``np.median``.

        Select the middle element (odd length) or the mean of the middle
        two (even), by the comparator network or by a sort.  Selection is
        exact, so the value equals ``np.median``'s (only the sign of a zero
        is free, where zeros of both signs tie for the middle); a NaN
        anywhere along the axis makes that coordinate NaN, as
        ``np.median`` does.  The network's result is a fresh array, not a
        view of its scratch block.
        """
        stacked = np.asarray(stacked)
        length = stacked.shape[axis]
        half = length // 2
        if _takes_network(stacked, length, MEDIAN_MIN_WIDTH):
            if length % 2:
                (middle,) = network_ranks(stacked, axis, (half,), np.minimum)
                return middle.copy()
            below, middle = network_ranks(stacked, axis, (half - 1, half),
                                          np.minimum)
            return (below + middle) / 2.0
        ordered = np.sort(stacked, axis=axis)
        if axis < 0:
            axis += ordered.ndim
        lead = (slice(None),) * axis
        middle = ordered[lead + (half,)]
        if length % 2 == 0:
            middle = (ordered[lead + (half - 1,)] + middle) / 2.0
        missing = np.isnan(ordered[lead + (-1,)])
        if missing.any():
            middle = np.where(missing, np.nan, middle)
        return middle

    # ------------------------------------------------------------------ #
    # Replica-batched dense forward/backward
    # ------------------------------------------------------------------ #
    def dense_forward_logits(self, plan: DensePlan, flat: np.ndarray,
                             features: np.ndarray,
                             caches: Optional[list] = None) -> np.ndarray:
        """Logits ``(R, B, C)`` for parameters ``(R, D)``.

        When ``caches`` is a list it receives per-layer values the backward
        pass needs (layer inputs, weight views, ReLU masks), one entry per
        plan step.
        """
        raise NotImplementedError

    def dense_forward_backward(self, plan: DensePlan, num_parameters: int,
                               flat: np.ndarray, features: np.ndarray,
                               labels: np.ndarray
                               ) -> Tuple[np.ndarray, np.ndarray]:
        """Cross-entropy losses ``(R,)`` and flat gradients ``(R, D)``.

        Must mirror the sequential autograd tape op for op: stable
        log-softmax (max-shift, exp, sum, log), NLL mean, reverse sweep.
        """
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"<KernelBackend {self.name!r}>"
