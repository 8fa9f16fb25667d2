"""Base class and helpers shared by all gradient aggregation rules."""

from __future__ import annotations

from typing import NamedTuple, Optional, Sequence, Union

import numpy as np

VectorList = Union[Sequence[np.ndarray], np.ndarray]


class Aggregate(NamedTuple):
    """One call of a rule on an ``(R, n, d)`` stack: the ``(R, d)``
    ``output``, the ``(R, m)`` indices ``selected`` of the inputs entering
    it (``None``: every input), and the ``(R, n)`` per-input ``scores``
    (Krum family, lower is better; else ``None``).  Training reads
    ``output``; decision records (:mod:`repro.aggregation.decision`) read
    the rest."""

    output: np.ndarray
    selected: Optional[np.ndarray] = None
    scores: Optional[np.ndarray] = None


def check_vectors_batched(stacked: np.ndarray) -> np.ndarray:
    """Validate an ``(R, n, d)`` replica-stacked aggregation input.

    ``R`` is the replica axis of the batched runtime
    (:mod:`repro.batch`): replica ``r`` holds the ``n`` vectors that one
    independent simulation would have aggregated.  The same NaN/Inf rule as
    :func:`check_vectors` applies to the whole stack.
    """
    stacked = np.asarray(stacked, dtype=np.float64)
    if stacked.ndim != 3:
        raise ValueError(
            f"batched aggregation expects an (R, n, d) stack, got shape "
            f"{stacked.shape}"
        )
    if stacked.shape[0] == 0:
        raise ValueError("batched aggregation needs at least one replica")
    if not np.all(np.isfinite(stacked)):
        raise ValueError("aggregation input contains NaN or Inf values")
    return stacked


def check_vectors(vectors: VectorList) -> np.ndarray:
    """Validate and stack a list of vectors into an ``(n, d)`` array.

    Raises
    ------
    ValueError
        If the list is empty, the vectors have mismatched shapes, or any
        entry contains NaN/Inf (a Byzantine message that reached this point
        should already have been sanitised by the node's ingress filter).
    """
    if isinstance(vectors, np.ndarray) and vectors.ndim == 2:
        stacked = np.asarray(vectors, dtype=np.float64)
    else:
        vectors = list(vectors)
        if not vectors:
            raise ValueError("cannot aggregate an empty list of vectors")
        first_shape = np.asarray(vectors[0]).shape
        for index, vector in enumerate(vectors):
            if np.asarray(vector).shape != first_shape:
                raise ValueError(
                    f"vector {index} has shape {np.asarray(vector).shape}, "
                    f"expected {first_shape}"
                )
        stacked = np.stack([np.asarray(v, dtype=np.float64).reshape(-1) for v in vectors])
    if stacked.ndim != 2:
        raise ValueError("expected a list of 1-D vectors")
    if not np.all(np.isfinite(stacked)):
        raise ValueError("aggregation input contains NaN or Inf values")
    return stacked


class GradientAggregationRule:
    """Abstract gradient aggregation rule (GAR).

    A rule has one implementation: :meth:`_aggregate_batched`, a reduction
    of a validated ``(R, n, d)`` replica stack to an :class:`Aggregate` —
    the ``(R, d)`` output and the selection and scores computed on the way.
    The single call is R = 1 — :meth:`aggregate` stacks its ``n`` vectors
    as one replica and returns row 0 of the output — so the simulator, the
    live runtimes and the batched engine all run the same code, and a
    decision record (:meth:`decide_batched`) is what that code selected.

    Parameters
    ----------
    num_byzantine:
        The number ``f`` of inputs the rule is configured to tolerate.  The
        arithmetic mean ignores it; robust rules use it to size their
        selection sets and to validate that enough inputs were supplied.
    """

    #: short identifier used by the registry and experiment configs
    name: str = "abstract"
    #: whether the rule provides (α, f)-Byzantine resilience for f > 0
    byzantine_resilient: bool = False

    def __init__(self, num_byzantine: int = 0) -> None:
        if num_byzantine < 0:
            raise ValueError("num_byzantine must be non-negative")
        self.num_byzantine = int(num_byzantine)

    # ------------------------------------------------------------------ #
    def minimum_inputs(self) -> int:
        """Smallest number of input vectors the rule accepts."""
        return 1

    def _check_count(self, num_inputs: int) -> None:
        if num_inputs < self.minimum_inputs():
            raise ValueError(
                f"{self.name} with f={self.num_byzantine} requires at least "
                f"{self.minimum_inputs()} inputs, got {num_inputs}"
            )

    def _aggregate_batched(self, stacked: np.ndarray) -> Aggregate:
        """Aggregate a validated ``(R, n, d)`` stack into ``(R, d)``, with
        the selection and scores that took.

        Row ``r`` of each field must depend on ``stacked[r]`` alone, bit
        for bit: the batched runtime's equivalence with the sequential
        simulator rests on row ``r`` of an ``R``-replica call equalling the
        R = 1 call on that replica, and
        ``tests/test_aggregation_batched.py`` holds every registered rule
        to it and to the per-replica oracle in ``tests/gar_oracle.py``.
        """
        raise NotImplementedError

    def __call__(self, vectors: VectorList) -> np.ndarray:
        """Aggregate ``vectors`` into a single vector: the rule at R = 1."""
        stacked = check_vectors(vectors)
        self._check_count(stacked.shape[0])
        return self._aggregate_batched(stacked[None]).output[0]

    #: alias of :meth:`__call__` for readability at call sites
    aggregate = __call__

    def aggregate_batched(self, stacked: np.ndarray) -> np.ndarray:
        """Aggregate ``R`` independent replicas in one call.

        Parameters
        ----------
        stacked:
            Array of shape ``(R, n, d)``: for each of ``R`` replicas, the
            ``n`` vectors to aggregate.  Row ``r`` of the result is
            :meth:`aggregate` of ``stacked[r]``.
        """
        return self._aggregate_batched(self._validated(stacked)).output

    def decide_batched(self, stacked: np.ndarray) -> Aggregate:
        """:meth:`aggregate_batched` with what the rule computed on the
        way: the whole :class:`Aggregate` of the ``(R, n, d)`` stack."""
        return self._aggregate_batched(self._validated(stacked))

    def _validated(self, stacked: np.ndarray) -> np.ndarray:
        stacked = check_vectors_batched(stacked)
        self._check_count(stacked.shape[1])
        return stacked

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"{type(self).__name__}(num_byzantine={self.num_byzantine})"
