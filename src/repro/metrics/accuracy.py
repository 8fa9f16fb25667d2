"""Model quality metrics (top-1 accuracy on a held-out set)."""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.data.datasets import Dataset
from repro.nn.module import Module
from repro.tensor import Tensor, no_grad

#: rows per evaluation chunk
EVAL_BATCH = 256


def _chunked_accuracy(logits_of, dataset: Dataset, batch_size: int,
                      max_samples: Optional[int]) -> float:
    """Top-1 accuracy of ``logits_of(features)`` over ``batch_size``-row chunks."""
    total = 0
    correct = 0
    limit = len(dataset) if max_samples is None else min(max_samples, len(dataset))
    for start in range(0, limit, batch_size):
        stop = min(start + batch_size, limit)
        predictions = np.argmax(logits_of(dataset.features[start:stop]), axis=-1)
        correct += int((predictions == dataset.labels[start:stop]).sum())
        total += stop - start
    return correct / total if total else 0.0


def evaluate_accuracy(model: Module, dataset: Dataset,
                      batch_size: int = EVAL_BATCH,
                      max_samples: Optional[int] = None) -> float:
    """Top-1 accuracy of ``model`` on ``dataset``.

    This is the paper's "top-1 cross-accuracy": the fraction of correct
    predictions on the testing dataset.
    """
    with no_grad():
        return _chunked_accuracy(lambda features: model(Tensor(features)).data,
                                 dataset, batch_size, max_samples)


def plan_accuracy(plan, parameters: np.ndarray, dataset: Dataset,
                  batch_size: int = EVAL_BATCH,
                  max_samples: Optional[int] = None) -> float:
    """:func:`evaluate_accuracy` of a dense model at flat ``parameters``,
    through its :class:`~repro.nn.plan.BatchedDenseStack` — the same
    chunks and bit-equal logits, without installing ``parameters`` in a
    module."""
    flat = parameters[None]
    return _chunked_accuracy(
        lambda features: plan.forward_logits(flat, features[None])[0],
        dataset, batch_size, max_samples)
