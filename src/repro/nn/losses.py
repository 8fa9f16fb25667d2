"""Loss functions."""

from __future__ import annotations

import numpy as np

from repro.tensor import Tensor
from repro.tensor import functional as F


class CrossEntropyLoss:
    """Softmax cross-entropy over integer class targets.

    This is the loss used by every experiment in the paper (top-1 image
    classification on CIFAR-10).
    """

    def __call__(self, logits: Tensor, targets: np.ndarray) -> Tensor:
        return F.cross_entropy(logits, targets)
