"""Deterministic non-i.i.d. partitioners.

Every function here is a **pure function of** ``(seed, num_workers, spec)``
— a fresh ``np.random.default_rng`` is created from the seed inside the
partitioner and consumed in one fixed order, so the resulting per-worker
datasets are bit-identical no matter which runtime (sequential simulator,
threaded cluster, batched multi-replica) asks for them, and no matter what
other randomness the caller has already drawn.

Schemes
-------
``dirichlet``
    For every class ``c``, worker proportions ``p_c ~ Dir(alpha · 1)`` and
    the class's (shuffled) samples are cut accordingly — the standard
    label-skew model of the federated-learning literature.  ``imbalance``
    tilts the proportions by per-worker size weights before the per-class
    normalisation.
``shards``
    Sort by label, cut into ``num_workers · shards_per_worker`` contiguous
    shards, deal each worker ``shards_per_worker`` shards of a seeded
    shard permutation — the pathological split of the FedAvg paper, where
    each worker sees at most ``shards_per_worker`` distinct labels.
``iid``
    Seeded permutation cut at (possibly imbalanced) per-worker counts.

On top of any scheme, ``feature_drift`` adds one per-worker offset tensor
(drawn from the worker's own seeded stream) to that worker's features —
covariate shift on top of label skew — in place on the worker's rows of
the partition's one block.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.data.datasets import Dataset
from repro.data.loader import block_shards
from repro.hetero.spec import HeteroSpec

#: stream-separation constants so the partition, drift and any future
#: hetero randomness never consume from one another's generators
_DRIFT_STREAM = 0x9E37
_IMBALANCE_STREAM = 0x79B9


# --------------------------------------------------------------------------- #
# Count allocation
# --------------------------------------------------------------------------- #
def imbalanced_counts(total: int, num_workers: int, imbalance: float,
                      seed: int, min_samples: int = 1) -> np.ndarray:
    """Per-worker sample counts summing to ``total``.

    Targets are proportional to ``rank^-imbalance`` with the ranks
    shuffled by the seed (so *which* worker is data-rich varies across
    seeds), then rounded by largest remainder and floored at
    ``min_samples``.  ``imbalance=0`` reproduces the balanced
    ``np.array_split`` sizes exactly.
    """
    if num_workers <= 0:
        raise ValueError("num_workers must be positive")
    if total < num_workers * min_samples:
        raise ValueError(
            f"dataset of size {total} cannot give {num_workers} workers "
            f"{min_samples} sample(s) each")
    if imbalance == 0.0:
        sizes = np.full(num_workers, total // num_workers)
        sizes[: total % num_workers] += 1
        return sizes
    weights = _size_weights(seed, num_workers, imbalance)
    counts = np.floor(weights * total).astype(np.int64)
    # Largest-remainder rounding keeps the total exact and deterministic.
    remainder = weights * total - counts
    for index in np.argsort(-remainder, kind="stable")[: total - counts.sum()]:
        counts[index] += 1
    return _enforce_floor(counts, min_samples)


def _size_weights(seed: int, num_workers: int,
                  imbalance: float) -> np.ndarray:
    """Normalised per-worker size weights ``rank^-imbalance``, shuffled.

    The single definition of the imbalance weighting, shared by the iid
    count allocation and the Dirichlet proportion tilt — both modes must
    skew identically or the pure-function-of-``(seed, n, spec)`` contract
    splits per scheme.
    """
    rng = np.random.default_rng([seed, _IMBALANCE_STREAM])
    weights = np.arange(1, num_workers + 1, dtype=np.float64) ** -imbalance
    weights = rng.permutation(weights)
    return weights / weights.sum()


def _enforce_floor(counts: np.ndarray, min_samples: int) -> np.ndarray:
    """Raise starved workers to the floor by taking from the largest ones."""
    counts = counts.copy()
    while counts.min() < min_samples:
        poorest = int(np.argmin(counts))
        richest = int(np.argmax(counts))
        if counts[richest] <= min_samples:
            raise ValueError("not enough samples to honour min_samples")
        counts[poorest] += 1
        counts[richest] -= 1
    return counts


def dirichlet_class_proportions(num_classes: int, num_workers: int,
                                alpha: float, rng: np.random.Generator,
                                size_weights: np.ndarray = None) -> np.ndarray:
    """``(num_classes, num_workers)`` worker proportions per class.

    One ``Dir(alpha · 1)`` draw per class, optionally tilted by per-worker
    ``size_weights`` (re-normalised per class) to compose label skew with
    sample-count imbalance.
    """
    proportions = rng.dirichlet(np.full(num_workers, alpha),
                                size=num_classes)
    if size_weights is not None:
        proportions = proportions * size_weights[None, :]
        proportions /= proportions.sum(axis=1, keepdims=True)
    return proportions


# --------------------------------------------------------------------------- #
# Index partitioners
# --------------------------------------------------------------------------- #
def partition_indices(labels: np.ndarray, num_workers: int,
                      hetero: HeteroSpec, seed: int) -> List[np.ndarray]:
    """Per-worker index arrays for one labelled dataset.

    Pure function of ``(seed, num_workers, hetero)`` given the labels; the
    union of the returned arrays is exactly ``range(len(labels))`` and
    every worker receives at least ``hetero.min_samples`` indices.
    """
    labels = np.asarray(labels)
    total = labels.shape[0]
    if total < num_workers * hetero.min_samples:
        raise ValueError(
            f"dataset of size {total} cannot give {num_workers} workers "
            f"{hetero.min_samples} sample(s) each")
    rng = np.random.default_rng(seed)

    if hetero.partition == "shards":
        assignments = _shard_indices(labels, num_workers,
                                     hetero.shards_per_worker, rng)
    elif hetero.partition == "dirichlet":
        assignments = _dirichlet_indices(labels, num_workers, hetero, seed,
                                         rng)
    else:  # iid (possibly imbalanced)
        order = rng.permutation(total)
        counts = imbalanced_counts(total, num_workers, hetero.imbalance,
                                   seed, hetero.min_samples)
        cuts = np.cumsum(counts)[:-1]
        assignments = np.split(order, cuts)

    return _top_up(assignments, hetero.min_samples)


def _shard_indices(labels: np.ndarray, num_workers: int,
                   shards_per_worker: int,
                   rng: np.random.Generator) -> List[np.ndarray]:
    num_shards = num_workers * shards_per_worker
    if labels.shape[0] < num_shards:
        raise ValueError(
            f"dataset of size {labels.shape[0]} cannot be cut into "
            f"{num_shards} non-empty shards")
    by_label = np.argsort(labels, kind="stable")
    shards = np.array_split(by_label, num_shards)
    dealt = rng.permutation(num_shards)
    return [
        np.concatenate([shards[shard]
                        for shard in dealt[w * shards_per_worker:
                                           (w + 1) * shards_per_worker]])
        for w in range(num_workers)
    ]


def _dirichlet_indices(labels: np.ndarray, num_workers: int,
                       hetero: HeteroSpec, seed: int,
                       rng: np.random.Generator) -> List[np.ndarray]:
    # the sorted classes present, as np.unique would give them, without
    # the numpy.ma import np.unique pays on its first call
    classes = np.flatnonzero(np.bincount(labels))
    size_weights = None
    if hetero.imbalance != 0.0:
        size_weights = _size_weights(seed, num_workers, hetero.imbalance)
    proportions = dirichlet_class_proportions(len(classes), num_workers,
                                              hetero.alpha, rng,
                                              size_weights=size_weights)
    assignments: List[List[np.ndarray]] = [[] for _ in range(num_workers)]
    for class_index, label in enumerate(classes):
        members = rng.permutation(np.nonzero(labels == label)[0])
        cuts = (np.cumsum(proportions[class_index])[:-1]
                * members.shape[0]).astype(np.int64)
        for worker, piece in enumerate(np.split(members, cuts)):
            assignments[worker].append(piece)
    return [np.concatenate(pieces) if pieces else
            np.empty(0, dtype=np.int64) for pieces in assignments]


def _top_up(assignments: List[np.ndarray],
            min_samples: int) -> List[np.ndarray]:
    """Move samples from the largest workers until everyone meets the floor.

    Deterministic: the poorest worker (lowest index on ties) receives the
    last index held by the richest worker (lowest index on ties).
    """
    sizes = np.array([piece.shape[0] for piece in assignments])
    assignments = [piece.copy() for piece in assignments]
    while sizes.min() < min_samples:
        poorest = int(np.argmin(sizes))
        richest = int(np.argmax(sizes))
        if sizes[richest] <= min_samples:
            raise ValueError("not enough samples to honour min_samples")
        moved, assignments[richest] = (assignments[richest][-1],
                                       assignments[richest][:-1])
        assignments[poorest] = np.append(assignments[poorest], moved)
        sizes[poorest] += 1
        sizes[richest] -= 1
    return assignments


# --------------------------------------------------------------------------- #
# Dataset-level entry point
# --------------------------------------------------------------------------- #
def hetero_partition(dataset: Dataset, num_workers: int, hetero: HeteroSpec,
                     seed: int = 0) -> List[Dataset]:
    """Split ``dataset`` into per-worker datasets according to ``hetero``.

    The partition (and any feature drift) is a pure function of
    ``(seed, num_workers, hetero)`` — see the module docstring.
    """
    if num_workers <= 0:
        raise ValueError("num_workers must be positive")
    hetero.validate(num_workers)
    pieces = partition_indices(dataset.labels, num_workers, hetero, seed)
    shards = block_shards(dataset, pieces, "hetero")
    if hetero.feature_drift > 0.0:
        for index, shard in enumerate(shards):
            drift_rng = np.random.default_rng([seed, _DRIFT_STREAM, index])
            # in place on the shard's rows of the block: no second copy
            shard.features += drift_rng.normal(0.0, hetero.feature_drift,
                                               size=shard.feature_shape)
    return shards
