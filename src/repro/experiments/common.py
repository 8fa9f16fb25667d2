"""Shared configuration for the experiment harnesses.

The paper's testbed (Grid5000, 18 workers + 6 servers, CIFAR-10, the 1.75 M
parameter CNN, thousands of updates) does not fit a CPU-only reproduction
budget, so every experiment is parameterised by an :class:`ExperimentScale`
that controls how far the workload is scaled down while keeping the same
*structure*: the cluster sizes and quorums are the paper's, only the model,
the dataset and the number of steps shrink.  ``benchmarks/conftest.py`` holds
the scale the paper-shape suite runs at.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Tuple

from repro.data.datasets import Dataset, SyntheticImageDataset, make_blobs_dataset
from repro.nn import build_model
from repro.nn.module import Module
from repro.nn.schedules import ConstantSchedule, LearningRateSchedule


@dataclass
class ExperimentScale:
    """Knobs controlling how far an experiment is scaled down.

    Attributes
    ----------
    num_workers, num_servers:
        Cluster size.  Defaults follow the paper (18 workers, 6 servers);
        the ``small()`` preset shrinks them for fast benchmark runs while
        keeping the 1/3 Byzantine headroom.
    declared_byzantine_workers, declared_byzantine_servers:
        The ``f̄`` / ``f`` declared to GuanYu (the paper uses 5 and 1).
    num_steps, eval_every:
        Number of model updates and accuracy-evaluation cadence.
    batch_size:
        Per-worker mini-batch size (paper: 128 and 32).
    dataset:
        ``"images"`` for the CIFAR-10-shaped synthetic dataset, ``"blobs"``
        for the fastest workload.
    model:
        ``"paper_cnn"``, ``"small_cnn"``, ``"mlp"`` or ``"softmax"``.
    learning_rate:
        Constant learning rate (paper: 0.001; the scaled-down tasks use a
        larger one so convergence is visible within few steps).
    """

    num_workers: int = 18
    num_servers: int = 6
    declared_byzantine_workers: int = 5
    declared_byzantine_servers: int = 1
    num_steps: int = 120
    eval_every: int = 10
    batch_size: int = 32
    dataset: str = "blobs"
    model: str = "mlp"
    learning_rate: float = 0.05
    dataset_size: int = 1200
    image_size: int = 8
    seed: int = 42
    max_eval_samples: int = 256
    #: parameter count billed to the simulated clock (defaults to the paper's
    #: Table 1 CNN so the time-axis shape matches Figure 3); ``None`` bills
    #: the actual, scaled-down model.
    billed_parameters: Optional[int] = 1_756_426

    @classmethod
    def small(cls) -> "ExperimentScale":
        """A configuration that keeps every benchmark under ~1 minute."""
        return cls(num_workers=9, num_servers=6, declared_byzantine_workers=2,
                   declared_byzantine_servers=1, num_steps=60, eval_every=10,
                   batch_size=16, dataset="blobs", model="softmax",
                   dataset_size=800, learning_rate=0.05)

    @classmethod
    def paper_like(cls) -> "ExperimentScale":
        """The paper's cluster shape with a reduced model/dataset/steps."""
        return cls(num_workers=18, num_servers=6, declared_byzantine_workers=5,
                   declared_byzantine_servers=1, num_steps=120, eval_every=10,
                   batch_size=32, dataset="images", model="mlp",
                   dataset_size=2000, image_size=8, learning_rate=0.05)


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


def build_workload(scale: ExperimentScale) -> Tuple[Dataset, Dataset, int, int]:
    """Build the train/test datasets for a scale.

    Returns ``(train, test, in_features, num_classes)`` where ``in_features``
    is the flattened feature dimension used by MLP/softmax models.
    """
    num_classes = workload_num_classes(scale.dataset)
    if scale.dataset == "images":
        data = SyntheticImageDataset(num_samples=scale.dataset_size,
                                     image_size=scale.image_size, seed=scale.seed)
        in_features = 3 * scale.image_size * scale.image_size
    else:
        data = make_blobs_dataset(num_samples=scale.dataset_size,
                                  num_classes=num_classes,
                                  num_features=8, cluster_std=1.0, seed=scale.seed)
        in_features = 8
    train, test = data.split(0.85, seed=scale.seed)
    return train, test, in_features, num_classes


def make_model_factory(scale: ExperimentScale, in_features: int,
                       num_classes: int) -> Callable[[], Module]:
    """Build the shared model factory for a scale (all nodes use the same seed)."""
    name = scale.model
    if name == "paper_cnn":
        return lambda: build_model("paper_cnn", seed=scale.seed,
                                   image_size=32, num_classes=num_classes)
    if name == "small_cnn":
        return lambda: build_model("small_cnn", seed=scale.seed,
                                   image_size=scale.image_size,
                                   num_classes=num_classes)
    if name == "mlp":
        return lambda: build_model("mlp", seed=scale.seed, in_features=in_features,
                                   hidden=(32,), num_classes=num_classes)
    if name == "softmax":
        return lambda: build_model("softmax", seed=scale.seed,
                                   in_features=in_features, num_classes=num_classes)
    raise ValueError(f"unknown model '{name}'")


def make_schedule(scale: ExperimentScale) -> LearningRateSchedule:
    """The constant learning-rate schedule the paper's experiments use."""
    return ConstantSchedule(scale.learning_rate)


def build_scale_bundle(scale: ExperimentScale):
    """Everything a trainer needs for one scale, built in canonical order.

    Returns ``(train, test, model_fn, schedule)``.  Shared by the campaign
    engine (one bundle per scenario) and the batched multi-replica runtime
    (one bundle per replica seed) so that both construct workloads from a
    seed in exactly the same way.
    """
    train, test, in_features, num_classes = build_workload(scale)
    model_fn = make_model_factory(scale, in_features, num_classes)
    return train, test, model_fn, make_schedule(scale)
