"""Mini-batch loading and per-worker sharding.

In the paper's deployment each worker samples mini-batches from its local
copy of CIFAR-10.  Here :func:`partition_dataset` — the sole partitioner
front door every runtime goes through — splits a dataset across workers:
it dispatches to the heterogeneity engine (:mod:`repro.hetero`) when a
hetero spec is present and to the legacy strategies (i.i.d. split, full
replication, by-class skew) otherwise.  :class:`DataLoader` draws
reproducible mini-batches from a shard.
"""

from __future__ import annotations

from typing import Iterator, List, Tuple

import numpy as np

from repro.data.datasets import Dataset

#: with-replacement batches drawn per generator call.  PCG64 serves bounded
#: 32-bit integers from one stream that continues across calls, so a block
#: holds exactly the indices the per-batch calls would have drawn.
BLOCK_BATCHES = 16


class DataLoader:
    """Draws mini-batches from a dataset.

    Two modes are supported:

    * ``sample_with_replacement=True`` (default) — every call to
      :meth:`next_batch` serves a fresh i.i.d. mini-batch, matching the
      stochastic-gradient model of the convergence analysis (the indices
      are drawn :data:`BLOCK_BATCHES` batches at a time);
    * ``sample_with_replacement=False`` — classic epoch-based iteration with
      shuffling, available through :meth:`__iter__`.
    """

    def __init__(self, dataset: Dataset, batch_size: int, seed: int = 0,
                 sample_with_replacement: bool = True) -> None:
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        if len(dataset) == 0:
            raise ValueError("dataset is empty")
        self.dataset = dataset
        self.batch_size = min(batch_size, len(dataset))
        self.sample_with_replacement = sample_with_replacement
        self._rng = np.random.default_rng(seed)
        # hot path: next_batch runs once per worker per step, so the shard
        # size is cached rather than re-derived through the dataset
        self._num_samples = len(dataset)
        self._block = np.empty((0, self.batch_size), dtype=np.int64)
        self._served = 0

    def next_batch(self) -> Tuple[np.ndarray, np.ndarray]:
        """Return one mini-batch ``(features, labels)``."""
        if self.sample_with_replacement:
            if self._served == len(self._block):
                self._block = self._rng.integers(
                    0, self._num_samples,
                    size=(BLOCK_BATCHES, self.batch_size))
                self._served = 0
            indices = self._block[self._served]
            self._served += 1
        else:
            indices = self._rng.choice(self._num_samples,
                                       size=self.batch_size, replace=False)
        return self.dataset.features[indices], self.dataset.labels[indices]

    def __iter__(self) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        """Iterate once over the dataset in shuffled mini-batches (from the
        generator :meth:`next_batch` draws whole index blocks from)."""
        order = self._rng.permutation(len(self.dataset))
        for start in range(0, len(order), self.batch_size):
            indices = order[start: start + self.batch_size]
            yield self.dataset.features[indices], self.dataset.labels[indices]

    def __len__(self) -> int:
        """Number of mini-batches per epoch."""
        return (len(self.dataset) + self.batch_size - 1) // self.batch_size


def partition_dataset(dataset: Dataset, num_workers: int,
                      sharding: str = "iid", hetero=None,
                      seed: int = 0) -> List[Dataset]:
    """Split a dataset into per-worker datasets (the runtimes' front door).

    With a truthy :class:`~repro.hetero.HeteroSpec` the split comes from
    the heterogeneity engine — a pure function of ``(seed, num_workers,
    hetero)``, bit-identical across the sequential, threaded and batched
    runtimes.  Otherwise the legacy ``sharding`` strategies apply:
    ``"iid"`` — shuffle then split evenly (the paper's setting);
    ``"replicated"`` — every worker sees the full dataset;
    ``"by_class"`` — pathological non-i.i.d. split where shard ``k``
    receives classes ``k mod num_classes`` first (used by ablations).
    A hetero spec cannot be combined with a non-default legacy strategy:
    both would claim the partition.
    """
    if hetero is not None and hetero:
        if sharding != "iid":
            raise ValueError(
                f"hetero partitions replace the legacy sharding strategies; "
                f"leave sharding at 'iid' (got '{sharding}')")
        from repro.hetero.partition import hetero_partition  # lazy: no cycle

        return hetero_partition(dataset, num_workers, hetero, seed=seed)
    if num_workers <= 0:
        raise ValueError("num_workers must be positive")
    if sharding == "replicated":
        return [dataset for _ in range(num_workers)]

    rng = np.random.default_rng(seed)
    if sharding == "iid":
        order = rng.permutation(len(dataset))
    elif sharding == "by_class":
        order = np.argsort(dataset.labels, kind="stable")
    else:
        raise ValueError(f"unknown sharding strategy '{sharding}'")

    shards = []
    pieces = np.array_split(order, num_workers)
    for index, piece in enumerate(pieces):
        if piece.size == 0:
            raise ValueError(
                f"dataset of size {len(dataset)} cannot be split into {num_workers} "
                "non-empty shards"
            )
        shards.append(dataset.subset(piece, name=f"{dataset.name}[shard{index}]"))
    return shards
