"""The kernel backend contract.

A :class:`KernelBackend` implements the system's hot numerical kernels —
the Gram/pairwise squared-distance kernel behind Krum/Multi-Krum/Bulyan,
the mean/trimmed-mean/median reductions every GAR is built from, and the
replica-batched dense forward/backward of :mod:`repro.batch.models` — so
that an optimised implementation can be swapped in without touching the
protocol or aggregation layers.

The contract is strict: **every backend must be bit-identical to the
``reference`` backend on every input** (same IEEE-754 doubles, not merely
close).  Cross-runtime equivalence is the repository's load-bearing
invariant — sequential↔batched full-history bit-identity rests on these
kernels — so a backend that is "just" numerically close would silently
break the tier-1 suites.  ``tests/test_kernels.py`` enforces the bitwise
gate for every registered backend against every registered GAR.

Safe optimisation levers (used by ``numpy-opt``): preallocated scratch
buffers, ``out=`` ufunc targets, a single-``kth`` ``np.partition`` followed
by an ascending sort of the selected block (the summands and their order
are unchanged), and fused/stacked GEMMs (NumPy runs the identical GEMM per slice).  Unsafe:
anything that reorders a floating-point reduction.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

#: the dense-stack plan entries: ("dense", in_f, out_f, w_slice, b_slice)
#: or ("relu",) — see :class:`repro.batch.models.BatchedDenseStack`
DensePlan = List[Tuple]


class KernelBackend:
    """Abstract kernel backend.

    Subclasses implement the pairwise and dense kernels; the sort-based
    reductions (mean, trimmed mean, median) are shared.  The registry
    (:mod:`repro.kernels.registry`) instantiates one singleton per backend.
    Backends must be stateless apart from reusable scratch buffers — one
    instance is shared by every trainer in the process.
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
    # One implementation, shared by every backend: a full ``np.sort`` along
    # the axis beats both ``np.median`` (2-5x at D = 30,730, 2.5-3x at
    # D = 36) and the two-``kth`` ``np.partition`` selections ``numpy-opt``
    # used to override these with (3-7x slower than the sort at
    # D = 30,730); the table is in ``docs/kernels.md``.
    def mean(self, stacked: np.ndarray, axis: int) -> np.ndarray:
        """Arithmetic mean along ``axis`` (``np.mean`` semantics)."""
        return stacked.mean(axis=axis)

    def trimmed_mean(self, stacked: np.ndarray, trim: int,
                     axis: int) -> np.ndarray:
        """Discard the ``trim`` smallest and largest per coordinate, then
        mean the rest **in ascending order** (sort the whole axis, mean the
        middle slice)."""
        if trim == 0:
            return stacked.mean(axis=axis)
        ordered = np.sort(stacked, axis=axis)
        window = [slice(None)] * ordered.ndim
        window[axis] = slice(trim, -trim)
        return ordered[tuple(window)].mean(axis=axis)

    def median(self, stacked: np.ndarray, axis: int) -> np.ndarray:
        """Coordinate-wise median along ``axis``, equal to ``np.median``.

        Sort, then take the middle element (odd length) or the mean of the
        middle two (even).  Selection is exact, so the value equals
        ``np.median``'s (only the sign of a zero is free, where zeros of
        both signs tie for the middle); a NaN anywhere along the axis
        sorts last and makes that coordinate NaN, as ``np.median`` does.
        """
        ordered = np.sort(stacked, axis=axis)
        if axis < 0:
            axis += ordered.ndim
        lead = (slice(None),) * axis
        length = ordered.shape[axis]
        half = length // 2
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
