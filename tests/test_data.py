"""Tests for datasets, loaders and sharding."""

import numpy as np
import pytest

from repro.data import (
    DataLoader,
    Dataset,
    SyntheticImageDataset,
    SyntheticMNIST,
    make_blobs_dataset,
    make_moons_dataset,
    make_spirals_dataset,
    partition_dataset,
)
from repro.data.loader import BLOCK_BATCHES


class TestDataset:
    def test_length_and_feature_shape(self):
        data = Dataset(np.zeros((10, 4)), np.zeros(10, dtype=int), num_classes=3)
        assert len(data) == 10
        assert data.feature_shape == (4,)
        assert data.num_classes == 3

    def test_mismatched_lengths_raise(self):
        with pytest.raises(ValueError):
            Dataset(np.zeros((10, 4)), np.zeros(9, dtype=int))

    def test_num_classes_inferred_from_labels(self):
        data = Dataset(np.zeros((4, 2)), np.array([0, 1, 2, 2]))
        assert data.num_classes == 3

    def test_subset_selects_rows(self):
        data = make_blobs_dataset(num_samples=20, seed=0)
        subset = data.subset(np.array([0, 5, 7]))
        assert len(subset) == 3
        assert np.allclose(subset.features[1], data.features[5])

    def test_split_fractions_and_disjointness(self):
        data = make_blobs_dataset(num_samples=100, seed=0)
        train, test = data.split(0.8, seed=1)
        assert len(train) == 80
        assert len(test) == 20

    def test_split_invalid_fraction(self):
        data = make_blobs_dataset(num_samples=10, seed=0)
        with pytest.raises(ValueError):
            data.split(1.5)

    def test_class_counts_sum_to_length(self):
        data = make_blobs_dataset(num_samples=90, num_classes=3, seed=2)
        assert data.class_counts().sum() == 90


class TestSyntheticImageDataset:
    def test_cifar_like_shapes(self):
        data = SyntheticImageDataset(num_samples=50, seed=0)
        assert data.feature_shape == (3, 32, 32)
        assert data.num_classes == 10

    def test_deterministic_given_seed(self):
        a = SyntheticImageDataset(num_samples=20, seed=5)
        b = SyntheticImageDataset(num_samples=20, seed=5)
        assert np.allclose(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)

    def test_different_seeds_differ(self):
        a = SyntheticImageDataset(num_samples=20, seed=5)
        b = SyntheticImageDataset(num_samples=20, seed=6)
        assert not np.allclose(a.features, b.features)

    def test_small_image_option(self):
        data = SyntheticImageDataset(num_samples=10, image_size=8, seed=0)
        assert data.feature_shape == (3, 8, 8)

    def test_classes_are_separable_by_prototype_distance(self):
        # Low-noise samples of the same class should be closer to their own
        # class mean than to other class means most of the time.
        data = SyntheticImageDataset(num_samples=300, image_size=8, noise=0.1, seed=1)
        flat = data.features.reshape(len(data), -1)
        means = np.stack([flat[data.labels == c].mean(axis=0) for c in range(10)])
        distances = np.linalg.norm(flat[:, None, :] - means[None, :, :], axis=2)
        nearest = distances.argmin(axis=1)
        assert (nearest == data.labels).mean() > 0.9

    def test_synthetic_mnist_shapes(self):
        data = SyntheticMNIST(num_samples=30, seed=0)
        assert data.feature_shape == (1, 28, 28)
        assert data.num_classes == 10


class TestToyDatasets:
    def test_blobs_shapes(self):
        data = make_blobs_dataset(num_samples=60, num_classes=4, num_features=3, seed=0)
        assert data.feature_shape == (3,)
        assert data.num_classes == 4

    def test_spirals_balanced_classes(self):
        data = make_spirals_dataset(num_samples=90, num_classes=3, seed=0)
        assert set(np.unique(data.labels)) == {0, 1, 2}

    def test_moons_binary(self):
        data = make_moons_dataset(num_samples=40, seed=0)
        assert data.num_classes == 2
        assert len(data) == 40


class TestDataLoader:
    def test_next_batch_shapes(self):
        data = make_blobs_dataset(num_samples=50, seed=0)
        loader = DataLoader(data, batch_size=8, seed=1)
        features, labels = loader.next_batch()
        assert features.shape == (8, 2)
        assert labels.shape == (8,)

    def test_batch_size_clamped_to_dataset(self):
        data = make_blobs_dataset(num_samples=5, seed=0)
        loader = DataLoader(data, batch_size=100, seed=1)
        features, _ = loader.next_batch()
        assert features.shape[0] == 5

    def test_deterministic_given_seed(self):
        data = make_blobs_dataset(num_samples=50, seed=0)
        a = DataLoader(data, batch_size=8, seed=3).next_batch()
        b = DataLoader(data, batch_size=8, seed=3).next_batch()
        assert np.allclose(a[0], b[0])

    def test_epoch_iteration_covers_dataset(self):
        data = make_blobs_dataset(num_samples=23, seed=0)
        loader = DataLoader(data, batch_size=5, seed=1)
        seen = sum(len(labels) for _, labels in loader)
        assert seen == 23
        assert len(loader) == 5

    @pytest.mark.parametrize("batch_size", [1, 3, 16, 17])
    @pytest.mark.parametrize("shard_size", [1, 7, 66, 70_000])
    def test_block_draws_equal_per_batch_draws(self, shard_size, batch_size):
        # Indices come BLOCK_BATCHES batches per generator call; every
        # runtime relies on them being the per-batch integers() stream,
        # across block boundaries and for a batch clamped to the shard.
        shard = Dataset(np.arange(shard_size, dtype=np.float64)[:, None],
                        np.zeros(shard_size, dtype=np.int64), num_classes=1)
        loader = DataLoader(shard, batch_size=batch_size, seed=9)
        reference = np.random.default_rng(9)
        for _ in range(2 * BLOCK_BATCHES + 3):
            features, labels = loader.next_batch()
            want = reference.integers(0, shard_size,
                                      size=min(batch_size, shard_size))
            assert np.array_equal(features[:, 0].astype(np.int64), want)
            assert labels.shape == want.shape

    def test_invalid_batch_size(self):
        data = make_blobs_dataset(num_samples=10, seed=0)
        with pytest.raises(ValueError):
            DataLoader(data, batch_size=0)


class TestSharding:
    def test_iid_shards_partition_dataset(self):
        data = make_blobs_dataset(num_samples=100, seed=0)
        shards = partition_dataset(data, 4, sharding="iid", seed=1)
        assert len(shards) == 4
        assert sum(len(s) for s in shards) == 100

    def test_replicated_shards_share_everything(self):
        data = make_blobs_dataset(num_samples=30, seed=0)
        shards = partition_dataset(data, 3, sharding="replicated")
        assert all(len(s) == 30 for s in shards)

    def test_by_class_shards_are_skewed(self):
        data = make_blobs_dataset(num_samples=300, num_classes=3, seed=0)
        shards = partition_dataset(data, 3, sharding="by_class")
        # Each by-class shard should be dominated by few classes.
        dominant = [np.bincount(s.labels, minlength=3).max() / len(s) for s in shards]
        assert all(fraction > 0.8 for fraction in dominant)

    def test_unknown_strategy_raises(self):
        data = make_blobs_dataset(num_samples=10, seed=0)
        with pytest.raises(ValueError):
            partition_dataset(data, 2, sharding="magic")

    def test_too_many_shards_raises(self):
        data = make_blobs_dataset(num_samples=3, seed=0)
        with pytest.raises(ValueError):
            partition_dataset(data, 10)
