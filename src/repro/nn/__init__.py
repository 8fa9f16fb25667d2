"""Neural-network layers, models, losses and learning-rate schedules.

This package plays the role of the TensorFlow graph-construction APIs in the
original GuanYu implementation: it defines the models whose gradients the
workers compute and whose parameters the parameter servers hold.

Highlights
----------
* :class:`Module` — base class with named parameters and a flat-vector
  interface (:meth:`Module.get_flat_parameters` /
  :meth:`Module.set_flat_parameters`) which is what the distributed protocol
  exchanges over the network.
* :class:`PaperCNN` — the exact CNN of the paper's Table 1 (~1.75 M params).
* :class:`MLP`, :class:`SmallCNN`, :class:`SoftmaxRegression` — scaled-down
  models used to keep the CPU-only experiments fast.
* :class:`ConstantSchedule` and friends — learning-rate schedules.  The
  parameter update itself is the plain SGD step the servers apply to the
  flat vector (:meth:`Module.apply_flat_gradient`); there is no optimiser
  object.
"""

from repro.nn.module import Module, Parameter, Sequential
from repro.nn.layers import Conv2D, Dense, Flatten, MaxPool2D, ReLU
from repro.nn.models import MLP, PaperCNN, SmallCNN, SoftmaxRegression, build_model
from repro.nn.losses import CrossEntropyLoss
from repro.nn.schedules import (
    ConstantSchedule,
    InverseTimeDecay,
    LearningRateSchedule,
    StepDecay,
)

__all__ = [
    "Module",
    "Parameter",
    "Sequential",
    "Dense",
    "Conv2D",
    "MaxPool2D",
    "Flatten",
    "ReLU",
    "PaperCNN",
    "SmallCNN",
    "MLP",
    "SoftmaxRegression",
    "build_model",
    "CrossEntropyLoss",
    "LearningRateSchedule",
    "ConstantSchedule",
    "InverseTimeDecay",
    "StepDecay",
]
