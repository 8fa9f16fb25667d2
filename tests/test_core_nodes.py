"""Tests for the worker and parameter-server node state machines."""

import numpy as np
import pytest

from repro.aggregation import ArithmeticMean, CoordinateWiseMedian, MultiKrum
from repro.adversary import RandomGradientAttack, SilentServer, SignFlipAttack
from repro.core.nodes import ServerNode, WorkerNode, max_pairwise_distance
from repro.data import DataLoader, make_blobs_dataset
from repro.nn import build_model
from repro.nn.schedules import ConstantSchedule
from repro.tensor import Tensor
from repro.nn.losses import CrossEntropyLoss


def _make_worker(attack=None, seed=0):
    data = make_blobs_dataset(num_samples=64, num_features=4, num_classes=3, seed=seed)
    loader = DataLoader(data, batch_size=16, seed=seed)
    model = build_model("softmax", in_features=4, num_classes=3, seed=1)
    return WorkerNode("worker/0", model, loader,
                      model_aggregator=CoordinateWiseMedian(), attack=attack,
                      seed=seed)


def _make_server(attack=None, lr=0.1):
    model = build_model("softmax", in_features=4, num_classes=3, seed=1)
    return ServerNode("ps/0", model, gradient_aggregator=MultiKrum(num_byzantine=0),
                      model_aggregator=CoordinateWiseMedian(),
                      schedule=ConstantSchedule(lr), attack=attack)


class TestWorkerNode:
    def test_gradient_has_model_dimension(self):
        worker = _make_worker()
        theta = worker.model.get_flat_parameters()
        result = worker.compute_gradient([theta, theta, theta], step=0)
        assert result.gradient.shape == theta.shape
        assert result.loss > 0.0

    def test_aggregates_received_models_with_median(self):
        worker = _make_worker()
        d = worker.model.num_parameters()
        vectors = [np.zeros(d), np.ones(d), np.full(d, 2.0)]
        worker.compute_gradient(vectors, step=0)
        # After aggregation the worker's model holds the coordinate-wise median.
        assert np.allclose(worker.model.get_flat_parameters(), 1.0)

    def test_gradient_matches_direct_computation(self):
        worker = _make_worker(seed=3)
        theta = worker.model.get_flat_parameters()
        result = worker.compute_gradient([theta], step=0)

        # Recompute by hand with the same batch (loader is deterministic).
        reference_loader = DataLoader(worker.loader.dataset, batch_size=16, seed=3)
        features, labels = reference_loader.next_batch()
        model = build_model("softmax", in_features=4, num_classes=3, seed=1)
        model.set_flat_parameters(theta)
        model.zero_grad()
        loss = CrossEntropyLoss()(model(Tensor(features)), labels)
        loss.backward()
        assert np.allclose(result.gradient, model.get_flat_gradient())

    def test_honest_worker_sends_computed_gradient(self):
        worker = _make_worker()
        theta = worker.model.get_flat_parameters()
        result = worker.compute_gradient([theta], step=0)
        assert worker.outgoing_gradient(result, step=0) is result.gradient

    def test_byzantine_worker_corrupts_outgoing_gradient(self):
        worker = _make_worker(attack=SignFlipAttack())
        theta = worker.model.get_flat_parameters()
        result = worker.compute_gradient([theta], step=0)
        outgoing = worker.outgoing_gradient(result, step=0)
        assert np.allclose(outgoing, -result.gradient)

    def test_is_byzantine_flag(self):
        assert not _make_worker().is_byzantine
        assert _make_worker(attack=RandomGradientAttack()).is_byzantine


class TestServerNode:
    def test_apply_gradients_is_sgd_step_with_aggregation(self):
        server = _make_server(lr=0.5)
        d = server.model.num_parameters()
        before = server.current_parameters()
        gradients = [np.ones(d)] * 5
        updated = server.apply_gradients(gradients, step=0)
        assert np.allclose(updated, before - 0.5)
        assert np.allclose(server.current_parameters(), updated)

    def test_merge_models_installs_median(self):
        server = _make_server()
        d = server.model.num_parameters()
        server.merge_models([np.zeros(d), np.full(d, 4.0), np.full(d, 2.0)])
        assert np.allclose(server.current_parameters(), 2.0)

    def test_learning_rate_follows_schedule(self):
        server = _make_server(lr=0.01)
        assert server.learning_rate(0) == pytest.approx(0.01)
        assert server.learning_rate(500) == pytest.approx(0.01)

    def test_honest_server_sends_true_parameters(self):
        server = _make_server()
        assert np.allclose(server.outgoing_model(0), server.current_parameters())

    def test_byzantine_server_can_be_silent(self):
        server = _make_server(attack=SilentServer())
        assert server.outgoing_model(0) is None
        assert server.is_byzantine

    def test_uses_multi_krum_to_filter_outlier_gradients(self):
        model = build_model("softmax", in_features=4, num_classes=3, seed=1)
        server = ServerNode("ps/0", model,
                            gradient_aggregator=MultiKrum(num_byzantine=1),
                            model_aggregator=CoordinateWiseMedian(),
                            schedule=ConstantSchedule(1.0))
        d = model.num_parameters()
        rng = np.random.default_rng(0)
        honest = [rng.normal(0, 0.01, d) for _ in range(6)]
        byzantine = [np.full(d, 1e6)]
        before = server.current_parameters()
        server.apply_gradients(honest + byzantine, step=0)
        # The huge Byzantine gradient must not have moved the model far.
        assert np.linalg.norm(server.current_parameters() - before) < 1.0

    def test_mean_aggregation_is_vulnerable_for_contrast(self):
        model = build_model("softmax", in_features=4, num_classes=3, seed=1)
        server = ServerNode("ps/0", model, gradient_aggregator=ArithmeticMean(),
                            model_aggregator=CoordinateWiseMedian(),
                            schedule=ConstantSchedule(1.0))
        d = model.num_parameters()
        before = server.current_parameters()
        server.apply_gradients([np.zeros(d)] * 6 + [np.full(d, 1e6)], step=0)
        assert np.linalg.norm(server.current_parameters() - before) > 1e4


class TestMaxPairwiseDistance:
    def test_zero_for_single_vector(self):
        assert max_pairwise_distance([np.ones(3)]) == 0.0

    def test_known_value(self):
        vectors = [np.zeros(2), np.array([3.0, 4.0]), np.array([1.0, 1.0])]
        assert max_pairwise_distance(vectors) == pytest.approx(5.0)

    def test_identical_vectors_give_exactly_zero(self):
        # Servers that agree after the phase-3 median must report spread 0.0,
        # not the Gram-matrix cancellation noise floor (~1e-8).
        vector = np.random.default_rng(3).normal(size=2000) * 10.0
        assert max_pairwise_distance([vector.copy() for _ in range(4)]) == 0.0
