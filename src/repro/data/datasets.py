"""Synthetic datasets used as offline substitutes for CIFAR-10.

Design notes
------------
The paper's evaluation only needs a supervised image-classification task on
which (a) SGD makes steady progress and (b) Byzantine gradient corruption
visibly destroys progress.  Any learnable class-conditional distribution with
the right tensor shapes provides that, so the substitute datasets here are
generated from fixed class prototypes plus structured noise.  Generation is
fully deterministic given the seed, so every simulated node sees the same
data universe and sharding is reproducible.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np


class Dataset:
    """A simple in-memory dataset of ``(features, labels)`` arrays.

    Parameters
    ----------
    features:
        Array of shape ``(num_samples, ...)``.
    labels:
        Integer array of shape ``(num_samples,)``.
    num_classes:
        Number of distinct classes; inferred from the labels when omitted.
    """

    def __init__(self, features: np.ndarray, labels: np.ndarray,
                 num_classes: Optional[int] = None, name: str = "dataset") -> None:
        features = np.asarray(features, dtype=np.float64)
        labels = np.asarray(labels, dtype=np.int64)
        if features.shape[0] != labels.shape[0]:
            raise ValueError("features and labels must have the same length")
        self.features = features
        self.labels = labels
        self.num_classes = int(num_classes if num_classes is not None else labels.max() + 1)
        self.name = name

    def __len__(self) -> int:
        return self.features.shape[0]

    def __getitem__(self, index) -> Tuple[np.ndarray, np.ndarray]:
        return self.features[index], self.labels[index]

    @property
    def feature_shape(self) -> Tuple[int, ...]:
        return self.features.shape[1:]

    def subset(self, indices: np.ndarray, name: Optional[str] = None) -> "Dataset":
        """Return a new dataset restricted to ``indices``."""
        return Dataset(
            self.features[indices],
            self.labels[indices],
            num_classes=self.num_classes,
            name=name or f"{self.name}[subset]",
        )

    #: the dataset a :meth:`rows` view slices (``None``: it owns its rows)
    #: and the view's first row there
    block: Optional["Dataset"] = None
    start = 0

    def rows(self, start: int, stop: int, name: str) -> "Dataset":
        """Rows ``[start, stop)`` as a view sharing this dataset's arrays."""
        view = Dataset(self.features[start:stop], self.labels[start:stop],
                       num_classes=self.num_classes, name=name)
        view.block, view.start = self, start
        return view

    def split(self, train_fraction: float, seed: int = 0) -> Tuple["Dataset", "Dataset"]:
        """Shuffle and split into train/test datasets."""
        if not 0.0 < train_fraction < 1.0:
            raise ValueError("train_fraction must be in (0, 1)")
        rng = np.random.default_rng(seed)
        order = rng.permutation(len(self))
        cut = int(round(train_fraction * len(self)))
        return (
            self.subset(order[:cut], name=f"{self.name}[train]"),
            self.subset(order[cut:], name=f"{self.name}[test]"),
        )


# --------------------------------------------------------------------------- #
# CIFAR-10 substitute
# --------------------------------------------------------------------------- #
class SyntheticImageDataset(Dataset):
    """Deterministic CIFAR-10-shaped synthetic image dataset.

    Each class is defined by a smooth random texture prototype (low-frequency
    sinusoid mixture per channel); samples are the prototype plus Gaussian
    pixel noise and a random global brightness shift.  The task is learnable
    by both linear models and CNNs yet non-trivial at high noise levels.

    Parameters
    ----------
    num_samples:
        Total number of images to generate.
    image_size:
        Spatial size (images are ``channels x image_size x image_size``).
    channels:
        Number of colour channels (3 to mirror CIFAR-10).
    num_classes:
        Number of classes (10 to mirror CIFAR-10).
    noise:
        Standard deviation of the per-pixel Gaussian noise.
    seed:
        Seed controlling both prototypes and samples.
    """

    def __init__(self, num_samples: int = 1000, image_size: int = 32,
                 channels: int = 3, num_classes: int = 10,
                 noise: float = 0.35, seed: int = 0) -> None:
        rng = np.random.default_rng(seed)
        prototypes = self._make_prototypes(rng, num_classes, channels, image_size)
        labels = rng.integers(0, num_classes, size=num_samples)
        images = prototypes[labels]
        images = images + rng.normal(0.0, noise, size=images.shape)
        brightness = rng.normal(0.0, 0.1, size=(num_samples, 1, 1, 1))
        images = np.clip(images + brightness, -3.0, 3.0)
        super().__init__(images, labels, num_classes=num_classes,
                         name=f"synthetic-images-{image_size}")
        self.image_size = image_size
        self.channels = channels
        self.noise = noise

    @staticmethod
    def _make_prototypes(rng: np.random.Generator, num_classes: int,
                         channels: int, size: int) -> np.ndarray:
        """Build one smooth texture prototype per class."""
        ys, xs = np.meshgrid(np.linspace(0, 1, size), np.linspace(0, 1, size),
                             indexing="ij")
        prototypes = np.zeros((num_classes, channels, size, size))
        for cls in range(num_classes):
            for channel in range(channels):
                pattern = np.zeros((size, size))
                # Mixture of a few low-frequency sinusoids keeps classes
                # linearly separable in expectation but overlapping in samples.
                for _ in range(3):
                    fx, fy = rng.uniform(0.5, 3.0, size=2)
                    phase = rng.uniform(0, 2 * np.pi)
                    amplitude = rng.uniform(0.4, 1.0)
                    pattern += amplitude * np.sin(2 * np.pi * (fx * xs + fy * ys) + phase)
                prototypes[cls, channel] = pattern / 3.0
        return prototypes


# --------------------------------------------------------------------------- #
# Small vector datasets
# --------------------------------------------------------------------------- #
def make_blobs_dataset(num_samples: int = 600, num_classes: int = 3,
                       num_features: int = 2, cluster_std: float = 1.0,
                       separation: float = 6.0, seed: int = 0) -> Dataset:
    """Gaussian blobs, the classic linearly-separable toy task."""
    rng = np.random.default_rng(seed)
    centers = rng.uniform(-separation, separation, size=(num_classes, num_features))
    labels = rng.integers(0, num_classes, size=num_samples)
    features = centers[labels] + rng.normal(0.0, cluster_std,
                                            size=(num_samples, num_features))
    return Dataset(features, labels, num_classes=num_classes, name="blobs")
