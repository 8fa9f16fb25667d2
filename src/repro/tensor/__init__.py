"""Minimal reverse-mode automatic differentiation engine on top of numpy.

This package is the substrate that replaces the TensorFlow low-level APIs
used by the original GuanYu implementation.  It provides a :class:`Tensor`
type that records the operations applied to it and can back-propagate
gradients through the resulting computation graph.

The engine is intentionally small but complete enough to express the CNN of
the paper's Table 1 (convolutions, pooling, dense layers, ReLU, softmax
cross-entropy) as well as the MLPs used in the fast experiments.

Example
-------
>>> import numpy as np
>>> from repro.tensor import Tensor
>>> x = Tensor(np.ones((2, 3)), requires_grad=True)
>>> y = (x * 2.0).sum()
>>> y.backward()
>>> x.grad.tolist()
[[2.0, 2.0, 2.0], [2.0, 2.0, 2.0]]
"""

from repro.tensor.tensor import Tensor, no_grad
from repro.tensor.functional import (
    conv2d,
    cross_entropy,
    log_softmax,
    max_pool2d,
    nll_loss,
    relu,
    softmax,
)
from repro.tensor.gradcheck import gradient_check

__all__ = [
    "Tensor",
    "no_grad",
    "relu",
    "softmax",
    "log_softmax",
    "cross_entropy",
    "nll_loss",
    "conv2d",
    "max_pool2d",
    "gradient_check",
]
