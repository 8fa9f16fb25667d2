"""Replica-batched forward/backward for the dense model zoo.

The sequential runtime computes every worker gradient through the autograd
graph (:mod:`repro.tensor`).  The batched runtime replaces that with a
hand-derived forward/backward that adds one leading **replica axis** —
parameters ``(R, D)``, activations ``(R, B, ...)`` — and is constructed to
be **bit-identical** to the autograd path per replica slice:

* every elementwise operation (shift, exp, log, ReLU mask, bias add) is the
  same IEEE-754 expression evaluated per element;
* every reduction (softmax normaliser, loss mean, bias gradient) reduces the
  same number of elements along the same axis, which NumPy evaluates with
  the same pairwise order per output element regardless of the extra
  leading axis;
* every matrix product is a stacked ``np.matmul``, which runs the identical
  GEMM per replica slice.

``tests/test_batch_equivalence.py`` pins this guarantee against the real
trainers.  Only the dense models (``softmax``, ``mlp``) are supported:
:func:`repro.batch.spec_supports_batching` sends the convolutional models
to the sequential simulator before anything is built here, and
:class:`BatchingUnsupported` guards the direct callers.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.kernels import active_backend
from repro.nn.layers import Dense, ReLU
from repro.nn.models import MLP, SoftmaxRegression
from repro.nn.module import Module

#: ``ScenarioSpec.model`` names the batched runtime can execute
BATCHABLE_MODELS = ("softmax", "mlp")


class BatchingUnsupported(Exception):
    """The scenario cannot run on the batched runtime."""


def _forward_layers(template: Module) -> List[Module]:
    """The template's layers in forward order, dense/ReLU only."""
    if isinstance(template, SoftmaxRegression):
        return [template.linear]
    if isinstance(template, MLP):
        return list(template.net.layers)
    raise BatchingUnsupported(
        f"model {type(template).__name__} has no replica-batched "
        f"formulation; only dense stacks ({', '.join(BATCHABLE_MODELS)}) "
        f"are supported")


class BatchedDenseStack:
    """Replica-batched view of a dense classifier (softmax / MLP).

    Parameters are *not* stored here: every call takes a ``(R, D)`` stack of
    flat parameter vectors (the replica-axis memory model of
    :mod:`repro.batch`) and slices it into per-layer weight/bias views using
    the template's flat layout, so the batched trainer can keep one
    contiguous array per server and per worker aggregation.
    """

    def __init__(self, template: Module) -> None:
        self.num_parameters = template.num_parameters()
        self._plan: List[Tuple] = []
        offset = 0
        for layer in _forward_layers(template):
            if isinstance(layer, Dense):
                if layer.bias is None:
                    raise BatchingUnsupported(
                        "dense layers without bias are not used by the model "
                        "zoo and have no batched formulation")
                in_f, out_f = layer.in_features, layer.out_features
                w_slice = slice(offset, offset + in_f * out_f)
                offset += in_f * out_f
                b_slice = slice(offset, offset + out_f)
                offset += out_f
                self._plan.append(("dense", in_f, out_f, w_slice, b_slice))
            elif isinstance(layer, ReLU):
                self._plan.append(("relu",))
            else:
                raise BatchingUnsupported(
                    f"layer {type(layer).__name__} has no replica-batched "
                    f"formulation")
        if offset != self.num_parameters:
            raise BatchingUnsupported(
                "flat-parameter layout does not match the dense plan")

    # ------------------------------------------------------------------ #
    def forward_logits(self, flat: np.ndarray, features: np.ndarray,
                       caches: list = None) -> np.ndarray:
        """Logits ``(R, B, C)`` for parameters ``(R, D)``, inputs ``(R, B, …)``.

        When ``caches`` is a list it receives the per-layer values the
        backward pass needs (layer inputs, weight views, ReLU masks).
        Delegates to the active kernel backend (see :mod:`repro.kernels`);
        every backend is bit-identical to ``reference`` by contract.
        """
        return active_backend().dense_forward_logits(
            self._plan, flat, features, caches)

    def forward_backward(self, flat: np.ndarray, features: np.ndarray,
                         labels: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Cross-entropy losses ``(R,)`` and flat gradients ``(R, D)``.

        Mirrors ``WorkerNode.compute_gradient``'s autograd tape op by op:
        stable log-softmax (max-shift, exp, sum, log), NLL mean, and the
        reverse sweep through the dense stack.  Delegates to the active
        kernel backend.
        """
        return active_backend().dense_forward_backward(
            self._plan, self.num_parameters, flat, features, labels)
