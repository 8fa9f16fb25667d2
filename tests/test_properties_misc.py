"""Additional property-based tests: flat-vector interface, sharding, delays.

These invariants matter to the distributed protocol:

* the flat parameter vector round-trips exactly (what a server installs is
  exactly what a worker later reads);
* sharding never loses or duplicates samples (for partitioning strategies);
* delay models never produce negative delays (the simulator's clock only
  moves forward).
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import make_blobs_dataset, partition_dataset
from repro.network.delays import ExponentialDelay, LogNormalDelay, UniformDelay
from repro.nn import MLP


class TestFlatParameterProperties:
    @given(seed=st.integers(0, 2 ** 16), scale=st.floats(-10.0, 10.0))
    @settings(max_examples=30, deadline=None)
    def test_set_get_round_trip_is_exact(self, seed, scale):
        model = MLP(5, (7,), 3, seed=seed)
        rng = np.random.default_rng(seed)
        target = rng.normal(0.0, abs(scale) + 0.1, size=model.num_parameters())
        model.set_flat_parameters(target)
        assert np.array_equal(model.get_flat_parameters(), target)

    @given(seed=st.integers(0, 2 ** 16))
    @settings(max_examples=20, deadline=None)
    def test_apply_flat_gradient_matches_vector_arithmetic(self, seed):
        model = MLP(4, (6,), 2, seed=seed)
        rng = np.random.default_rng(seed)
        gradient = rng.normal(size=model.num_parameters())
        before = model.get_flat_parameters()
        model.apply_flat_gradient(gradient, learning_rate=0.1)
        assert np.allclose(model.get_flat_parameters(), before - 0.1 * gradient)


class TestShardingProperties:
    @given(num_samples=st.integers(30, 200), num_shards=st.integers(1, 10),
           seed=st.integers(0, 2 ** 16))
    @settings(max_examples=30, deadline=None)
    def test_iid_sharding_partitions_without_loss(self, num_samples, num_shards,
                                                  seed):
        dataset = make_blobs_dataset(num_samples=num_samples, num_classes=3,
                                     num_features=2, seed=seed)
        if num_shards > num_samples:
            num_shards = num_samples
        shards = partition_dataset(dataset, num_shards, sharding="iid", seed=seed)
        total = sum(len(shard) for shard in shards)
        assert total == num_samples
        # Shards are balanced to within one sample.
        sizes = [len(shard) for shard in shards]
        assert max(sizes) - min(sizes) <= 1

    @given(num_shards=st.integers(1, 6), seed=st.integers(0, 2 ** 16))
    @settings(max_examples=20, deadline=None)
    def test_sharding_is_deterministic_given_seed(self, num_shards, seed):
        dataset = make_blobs_dataset(num_samples=60, num_classes=3,
                                     num_features=2, seed=0)
        first = partition_dataset(dataset, num_shards, sharding="iid", seed=seed)
        second = partition_dataset(dataset, num_shards, sharding="iid", seed=seed)
        for shard_a, shard_b in zip(first, second):
            assert np.allclose(shard_a.features, shard_b.features)


class TestDelayModelProperties:
    @given(low=st.floats(0.0, 1e-2), span=st.floats(0.0, 1e-2),
           size=st.integers(0, 10_000_000), seed=st.integers(0, 2 ** 16))
    @settings(max_examples=40, deadline=None)
    def test_uniform_delay_never_negative(self, low, span, size, seed):
        model = UniformDelay(low=low, high=low + span)
        rng = np.random.default_rng(seed)
        assert model.sample(rng, size) >= 0.0

    @given(mean=st.floats(1e-5, 1e-2), seed=st.integers(0, 2 ** 16))
    @settings(max_examples=30, deadline=None)
    def test_exponential_and_lognormal_never_negative(self, mean, seed):
        rng = np.random.default_rng(seed)
        assert ExponentialDelay(mean=mean).sample(rng, 1000) >= 0.0
        assert LogNormalDelay(median=mean).sample(rng, 1000) >= 0.0
