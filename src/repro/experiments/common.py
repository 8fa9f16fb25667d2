"""Shared workload construction for the experiment harnesses.

The paper's testbed (Grid5000, 18 workers + 6 servers, CIFAR-10, the 1.75 M
parameter CNN, thousands of updates) does not fit a CPU-only reproduction
budget, so every experiment takes a *base*
:class:`~repro.campaign.spec.ScenarioSpec` that controls how far the
workload is scaled down while keeping the same *structure*: the cluster
sizes and quorums are the paper's, only the model, the dataset and the
number of steps shrink.  A bare ``ScenarioSpec()`` is the small preset
(every benchmark under ~1 minute); :func:`paper_like` is the paper's
cluster shape.  ``benchmarks/conftest.py`` holds the base the paper-shape
suite runs at.
"""

from __future__ import annotations

from typing import Callable, Tuple

from repro.campaign.spec import ScenarioSpec
from repro.data.datasets import Dataset, SyntheticImageDataset, make_blobs_dataset
from repro.nn import build_model
from repro.nn.module import Module
from repro.nn.schedules import ConstantSchedule, LearningRateSchedule


def paper_like() -> ScenarioSpec:
    """The paper's cluster shape (18 workers, 6 servers, ``f̄ = 5``,
    ``f = 1``, batch 32) with a reduced model, dataset and step count."""
    return ScenarioSpec(num_workers=18, num_servers=6,
                        declared_byzantine_workers=5,
                        declared_byzantine_servers=1, num_steps=120,
                        batch_size=32, dataset="images", model="mlp",
                        dataset_size=2000)


def workload_num_classes(dataset: str) -> int:
    """Label-space size of a named workload (shared with the sweep CLI)."""
    if dataset == "images":
        return 10
    if dataset == "blobs":
        return 4
    raise ValueError(f"unknown dataset '{dataset}'")


def workload_attack_kwargs(name: str, dataset: str) -> dict:
    """Workload-dependent constructor defaults for an attack/adversary name.

    The one shared fix-up point for behaviours whose parameters must track
    the workload — today only ``label_flip``, which must flip within the
    dataset's label range rather than its default 10 classes.  Used by the
    sweep CLI's ``--attacks`` and ``--adversaries`` axes and by the
    breakdown search, so the same name always builds the same behaviour.
    """
    if name == "label_flip":
        return {"num_classes": workload_num_classes(dataset)}
    return {}


def build_workload(spec: ScenarioSpec) -> Tuple[Dataset, Dataset, int, int]:
    """Build the train/test datasets for a spec.

    Returns ``(train, test, in_features, num_classes)`` where ``in_features``
    is the flattened feature dimension used by MLP/softmax models.
    """
    num_classes = workload_num_classes(spec.dataset)
    if spec.dataset == "images":
        data = SyntheticImageDataset(num_samples=spec.dataset_size,
                                     image_size=spec.image_size, seed=spec.seed)
        in_features = 3 * spec.image_size * spec.image_size
    else:
        data = make_blobs_dataset(num_samples=spec.dataset_size,
                                  num_classes=num_classes,
                                  num_features=8, cluster_std=1.0, seed=spec.seed)
        in_features = 8
    train, test = data.split(0.85, seed=spec.seed)
    return train, test, in_features, num_classes


def make_model_factory(spec: ScenarioSpec, in_features: int,
                       num_classes: int) -> Callable[[], Module]:
    """The shared model factory of a scenario (all nodes use the same seed)."""
    name = spec.model
    if name == "paper_cnn":
        return lambda: build_model("paper_cnn", seed=spec.seed,
                                   image_size=32, num_classes=num_classes)
    if name == "small_cnn":
        return lambda: build_model("small_cnn", seed=spec.seed,
                                   image_size=spec.image_size,
                                   num_classes=num_classes)
    if name == "mlp":
        return lambda: build_model("mlp", seed=spec.seed, in_features=in_features,
                                   hidden=(32,), num_classes=num_classes)
    if name == "softmax":
        return lambda: build_model("softmax", seed=spec.seed,
                                   in_features=in_features, num_classes=num_classes)
    raise ValueError(f"unknown model '{name}'")


def make_schedule(spec: ScenarioSpec) -> LearningRateSchedule:
    """The constant learning-rate schedule the paper's experiments use."""
    return ConstantSchedule(spec.learning_rate)


def build_scale_bundle(spec: ScenarioSpec):
    """Everything a trainer needs for one scenario, in canonical order.

    Returns ``(train, test, model_fn, schedule)``.  Shared by the campaign
    engine (one bundle per scenario) and the batched multi-replica runtime
    (one bundle per replica seed) so that both construct workloads from a
    seed in exactly the same way.
    """
    train, test, in_features, num_classes = build_workload(spec)
    model_fn = make_model_factory(spec, in_features, num_classes)
    return train, test, model_fn, make_schedule(spec)
