"""Tests for datasets, loaders and sharding."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.data import (
    DataLoader,
    Dataset,
    SyntheticImageDataset,
    make_blobs_dataset,
    partition_dataset,
)
from repro.data.loader import BLOCK_BATCHES
from repro.hetero import HeteroSpec
from repro.hetero.partition import _DRIFT_STREAM, partition_indices


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


class TestToyDatasets:
    def test_blobs_shapes(self):
        data = make_blobs_dataset(num_samples=60, num_classes=4, num_features=3, seed=0)
        assert data.feature_shape == (3,)
        assert data.num_classes == 4

    def test_blobs_deterministic_given_seed(self):
        first = make_blobs_dataset(num_samples=40, seed=3)
        second = make_blobs_dataset(num_samples=40, seed=3)
        other = make_blobs_dataset(num_samples=40, seed=4)
        np.testing.assert_array_equal(first.features, second.features)
        np.testing.assert_array_equal(first.labels, second.labels)
        assert not np.array_equal(first.features, other.features)


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


# --------------------------------------------------------------------------- #
# Generated data-path oracle: block-slice shards vs per-shard copies
# --------------------------------------------------------------------------- #
def reference_partition(dataset, num_workers, sharding="iid", hetero=None,
                        seed=0):
    """The per-shard-copy partitioner: every shard its own fancy-indexed
    copy, feature drift added into a second copy."""
    if hetero:
        hetero.validate(num_workers)
        pieces = partition_indices(dataset.labels, num_workers, hetero, seed)
        shards = [dataset.subset(piece, name=f"{dataset.name}[hetero{index}]")
                  for index, piece in enumerate(pieces)]
        if hetero.feature_drift > 0.0:
            for index, shard in enumerate(shards):
                drift = np.random.default_rng([seed, _DRIFT_STREAM, index])
                offset = drift.normal(0.0, hetero.feature_drift,
                                      size=shard.feature_shape)
                shards[index] = Dataset(shard.features + offset[None, ...],
                                        shard.labels,
                                        num_classes=shard.num_classes,
                                        name=shard.name)
        return shards
    if sharding == "replicated":
        return [dataset] * num_workers
    rng = np.random.default_rng(seed)
    order = (rng.permutation(len(dataset)) if sharding == "iid"
             else np.argsort(dataset.labels, kind="stable"))
    pieces = np.array_split(order, num_workers)
    if any(piece.size == 0 for piece in pieces):
        raise ValueError("empty shard")
    return [dataset.subset(piece, name=f"{dataset.name}[shard{index}]")
            for index, piece in enumerate(pieces)]


@st.composite
def data_paths(draw):
    """A dataset, a partition request and a loader configuration."""
    num_classes = draw(st.integers(2, 5))
    size = draw(st.integers(8, 120))
    if draw(st.booleans()):
        dataset = make_blobs_dataset(num_samples=size,
                                     num_classes=num_classes,
                                     num_features=draw(st.integers(1, 4)),
                                     seed=draw(st.integers(0, 3)))
    else:
        dataset = SyntheticImageDataset(num_samples=size, image_size=2,
                                        channels=2, num_classes=num_classes,
                                        seed=draw(st.integers(0, 3)))
    num_workers = draw(st.integers(1, 9))
    sharding, hetero = "iid", None
    if draw(st.booleans()):
        sharding = draw(st.sampled_from(["iid", "replicated", "by_class"]))
    else:
        partition = draw(st.sampled_from(["iid", "dirichlet", "shards"]))
        hetero = HeteroSpec(
            partition=partition,
            alpha=draw(st.sampled_from([0.1, 0.5, 5.0])),
            shards_per_worker=draw(st.integers(1, 3)),
            imbalance=(0.0 if partition == "shards"
                       else draw(st.sampled_from([0.0, 0.7, 1.5]))),
            min_samples=draw(st.integers(1, 6)),
            feature_drift=draw(st.sampled_from([0.0, 0.3])))
    batch_size = draw(st.integers(1, 40))
    draws = draw(st.integers(1, 2 * BLOCK_BATCHES + 2))
    return (dataset, num_workers, sharding, hetero, draw(st.integers(0, 9)),
            batch_size, draws)


class TestBlockShardOracle:
    @settings(deadline=None)
    @given(data_paths())
    def test_block_shards_equal_per_shard_copies(self, path):
        dataset, num_workers, sharding, hetero, seed, batch_size, draws = path
        try:
            expected = reference_partition(dataset, num_workers, sharding,
                                           hetero, seed)
        except ValueError:
            with pytest.raises(ValueError):
                partition_dataset(dataset, num_workers, sharding=sharding,
                                  hetero=hetero, seed=seed)
            return
        shards = partition_dataset(dataset, num_workers, sharding=sharding,
                                   hetero=hetero, seed=seed)
        assert len(shards) == len(expected)
        block = shards[0].block
        for index, (shard, want) in enumerate(zip(shards, expected)):
            # values, names and classes of the copies...
            assert np.array_equal(shard.features, want.features)
            assert np.array_equal(shard.labels, want.labels)
            assert (shard.name, shard.num_classes) == (want.name,
                                                       want.num_classes)
            # ...from one slice of one block
            assert shard.block is block
            stop = shard.start + len(shard)
            assert np.shares_memory(shard.features, block.features)
            assert np.array_equal(block.features[shard.start:stop],
                                  shard.features)
            assert np.array_equal(block.labels[shard.start:stop],
                                  shard.labels)
            # the loader's batches equal the copy's, and its index rows
            # gathered from the block at the shard's start are those batches
            loader = DataLoader(shard, batch_size, seed=seed + index)
            reference = DataLoader(want, batch_size, seed=seed + index)
            gather = DataLoader(shard, batch_size, seed=seed + index)
            for _ in range(draws):
                features, labels = loader.next_batch()
                want_features, want_labels = reference.next_batch()
                rows = gather.next_indices() + shard.start
                assert np.array_equal(features, want_features)
                assert np.array_equal(labels, want_labels)
                assert np.array_equal(block.features[rows], features)
                assert np.array_equal(block.labels[rows], labels)
        if sharding == "replicated" and not hetero:
            assert all(shard.start == 0 and len(shard) == len(dataset)
                       for shard in shards)
            assert block is dataset
