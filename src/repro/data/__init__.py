"""Datasets and data loading.

The paper trains on CIFAR-10, which cannot be downloaded in this offline
environment.  :class:`SyntheticImageDataset` provides a deterministic
CIFAR-10-shaped substitute (32x32x3 images, 10 classes, 50k/10k split by
default) generated from class-conditional textures; Gaussian blobs are the
smaller workload used to keep the distributed experiments fast while
exercising the same code paths.
"""

from repro.data.datasets import (
    Dataset,
    SyntheticImageDataset,
    make_blobs_dataset,
)
from repro.data.loader import DataLoader, partition_dataset

__all__ = [
    "Dataset",
    "SyntheticImageDataset",
    "make_blobs_dataset",
    "DataLoader",
    "partition_dataset",
]
