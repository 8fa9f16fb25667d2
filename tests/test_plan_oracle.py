"""The autograd tape is the oracle of the dense plan, bit for bit.

Every dense-model worker — simulator, threaded and cluster — computes its
gradient through :class:`repro.nn.plan.BatchedDenseStack` at R = 1, and
every evaluation of a dense model reads the plan's logits.  The tape
(:mod:`repro.tensor` under the :mod:`repro.nn` modules) is what the plan
was derived from, so it is the reference here: generated model shapes,
batches, a ``label_flip``-poisoned batch and the ``local_steps = 3`` walk
must give the very same gradient, loss and accuracy on every kernel
backend.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adversary.attacks import LabelFlipPoisoning
from repro.aggregation import CoordinateWiseMedian
from repro.core.nodes import WorkerNode, poison_worker_batch
from repro.data import DataLoader
from repro.data.datasets import Dataset
from repro.kernels import available_backends, use_backend
from repro.metrics.accuracy import evaluate_accuracy, plan_accuracy
from repro.nn import build_model
from repro.nn.losses import CrossEntropyLoss
from repro.nn.plan import dense_plan
from repro.nn.schedules import ConstantSchedule
from repro.tensor import Tensor

ETA = 0.05


def build(kind: str, features: int, classes: int, hidden: int, seed: int):
    if kind == "softmax":
        return build_model("softmax", seed=seed, in_features=features,
                           num_classes=classes)
    return build_model("mlp", seed=seed, in_features=features,
                       hidden=(hidden,), num_classes=classes)


def dataset(rows: int, features: int, classes: int, seed: int) -> Dataset:
    rng = np.random.default_rng(seed)
    return Dataset(rng.standard_normal((rows, features)),
                   rng.integers(0, classes, size=rows), num_classes=classes)


def tape_gradient(model, theta, features, labels):
    """The worker's forward/backward as the tape computes it."""
    model.set_flat_parameters(theta)
    model.zero_grad()
    loss = CrossEntropyLoss()(model(Tensor(features)), labels)
    loss.backward()
    return model.get_flat_gradient(), float(loss.item())


def tape_worker(model, loader, attack, rng, vectors, step, local_steps):
    """``WorkerNode.compute_gradient`` written against the tape: median
    of the models, then one gradient or the mean along a local walk."""
    theta = CoordinateWiseMedian()(vectors)
    gradient_sum, losses = np.zeros_like(theta), []
    for _ in range(local_steps):
        features, labels = loader.next_batch()
        features, labels = poison_worker_batch(attack, rng, theta, step,
                                               features, labels)
        gradient, loss = tape_gradient(model, theta, features, labels)
        if local_steps == 1:
            return gradient, loss
        gradient_sum += gradient
        losses.append(loss)
        theta = theta - ETA * gradient
    return gradient_sum / local_steps, float(np.mean(losses))


SHAPES = st.fixed_dictionaries({
    "kind": st.sampled_from(["softmax", "mlp"]),
    "batch": st.integers(1, 24),
    "features": st.integers(1, 12),
    "classes": st.integers(2, 7),
    "hidden": st.integers(1, 16),
    "seed": st.integers(0, 2**16),
    "poisoned": st.booleans(),
    "local_steps": st.sampled_from([1, 3]),
})


@pytest.mark.parametrize("backend", available_backends())
@settings(max_examples=40, deadline=None)
@given(shape=SHAPES)
def test_worker_gradient_and_loss_equal_the_tape(backend, shape):
    kind, classes = shape["kind"], shape["classes"]
    data = dataset(3 * shape["batch"] + 5, shape["features"], classes,
                   shape["seed"])
    attack = LabelFlipPoisoning(num_classes=classes) \
        if shape["poisoned"] else None

    def model():
        return build(kind, shape["features"], classes, shape["hidden"],
                     shape["seed"])

    worker = WorkerNode(
        "worker/0", model(), DataLoader(data, shape["batch"], seed=7),
        model_aggregator=CoordinateWiseMedian(), attack=attack, seed=3,
        local_steps=shape["local_steps"], schedule=ConstantSchedule(ETA))
    rng = np.random.default_rng(shape["seed"])
    theta = model().get_flat_parameters()
    vectors = [theta + rng.normal(0.0, 0.5, theta.size) for _ in range(3)]

    with use_backend(backend):
        for step in range(2):  # the loader and the walk carry over
            got = worker.compute_gradient(vectors, step)
            want = tape_worker(model(), oracle_loader(worker, data, step),
                               attack, np.random.default_rng(3), vectors,
                               step, shape["local_steps"])
            assert np.array_equal(got.gradient, want[0])
            assert got.loss == want[1]


def oracle_loader(worker, data, step):
    """A loader at the position ``worker``'s was at before ``step``."""
    loader = DataLoader(data, worker.loader.batch_size, seed=7)
    for _ in range(step * worker.local_steps):
        loader.next_batch()
    return loader


@pytest.mark.parametrize("backend", available_backends())
@settings(max_examples=25, deadline=None)
@given(shape=SHAPES, rows=st.integers(1, 700),
       max_samples=st.one_of(st.none(), st.integers(1, 700)))
def test_plan_accuracy_equals_the_tape(backend, shape, rows, max_samples):
    classes = shape["classes"]
    model = build(shape["kind"], shape["features"], classes, shape["hidden"],
                  shape["seed"])
    theta = model.get_flat_parameters() * 3.0  # away from the init
    model.set_flat_parameters(theta)
    test = dataset(rows, shape["features"], classes, shape["seed"] + 1)
    with use_backend(backend):
        assert plan_accuracy(dense_plan(model), theta, test,
                             max_samples=max_samples) \
            == evaluate_accuracy(model, test, max_samples=max_samples)


@pytest.mark.parametrize("backend", available_backends())
def test_image_batches_flatten_like_the_tape(backend):
    """The mlp over ``(B, 3, H, W)`` images: the plan flattens the batch
    the way the model does."""
    model = build_model("mlp", seed=2, in_features=3 * 4 * 4, hidden=(8,),
                        num_classes=5)
    rng = np.random.default_rng(5)
    images = Dataset(rng.standard_normal((300, 3, 4, 4)),
                     rng.integers(0, 5, size=300), num_classes=5)
    theta = model.get_flat_parameters()
    worker = WorkerNode("worker/0", model, DataLoader(images, 16, seed=1),
                        model_aggregator=CoordinateWiseMedian())
    with use_backend(backend):
        got = worker.compute_gradient([theta], 0)
        features, labels = DataLoader(images, 16, seed=1).next_batch()
        want = tape_gradient(build_model("mlp", seed=2, in_features=48,
                                         hidden=(8,), num_classes=5),
                             theta, features, labels)
        assert np.array_equal(got.gradient, want[0]) and got.loss == want[1]
        assert plan_accuracy(dense_plan(model), theta, images) \
            == evaluate_accuracy(model, images)


def test_conv_models_keep_the_tape():
    model = build_model("small_cnn", seed=0, image_size=8, num_classes=3)
    assert dense_plan(model) is None
    rng = np.random.default_rng(0)
    images = Dataset(rng.standard_normal((8, 3, 8, 8)),
                     rng.integers(0, 3, size=8), num_classes=3)
    worker = WorkerNode("worker/0", model, DataLoader(images, 4, seed=0),
                        model_aggregator=CoordinateWiseMedian())
    theta = build_model("small_cnn", seed=0, image_size=8,
                        num_classes=3).get_flat_parameters()
    got = worker.compute_gradient([theta], 0)
    features, labels = DataLoader(images, 4, seed=0).next_batch()
    want = tape_gradient(build_model("small_cnn", seed=0, image_size=8,
                                     num_classes=3), theta, features, labels)
    assert np.array_equal(got.gradient, want[0]) and got.loss == want[1]
