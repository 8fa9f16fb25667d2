"""The dense plan: one forward/backward for the dense model zoo.

Every node that computes with a dense model (``softmax``, ``mlp``) goes
through :class:`BatchedDenseStack`: the batched engine's workers as
``(J·R, D)`` stacks, and the simulator's, threaded and cluster
:class:`~repro.core.nodes.WorkerNode`\\ s as R = 1 stacks; evaluation reads
its :meth:`~BatchedDenseStack.forward_logits`.  The plan is a
hand-derived forward/backward with one leading **replica axis** —
parameters ``(R, D)``, activations ``(R, B, ...)`` — constructed to be
**bit-identical** to the autograd tape (:mod:`repro.tensor` under the
:mod:`repro.nn` modules) per replica slice:

* every elementwise operation (shift, exp, log, ReLU mask, bias add) is the
  same IEEE-754 expression evaluated per element;
* every reduction (softmax normaliser, loss mean, bias gradient) reduces the
  same number of elements along the same axis, which NumPy evaluates with
  the same pairwise order per output element regardless of the extra
  leading axis;
* every matrix product is a stacked ``np.matmul``, which runs the identical
  GEMM per replica slice.

The tape is the oracle: ``tests/test_plan_oracle.py`` checks worker
gradients, losses and accuracy against it bit for bit, and
``tests/test_batch_equivalence.py`` pins the batched engine against the
simulator.  The convolutional models have no plan: :func:`dense_plan`
returns ``None`` for them (their workers keep the tape),
:func:`repro.batch.spec_supports_batching` keeps them off the batched
engine, and :class:`BatchingUnsupported` guards the direct callers.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

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
    the template's flat layout, so its callers keep one contiguous array
    per server, per worker aggregation and per evaluated model.
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

        Mirrors the autograd tape (the model under ``CrossEntropyLoss``)
        op by op: stable log-softmax (max-shift, exp, sum, log), NLL mean,
        and the reverse sweep through the dense stack.  Delegates to the active
        kernel backend.
        """
        return active_backend().dense_forward_backward(
            self._plan, self.num_parameters, flat, features, labels)


def dense_plan(model: Module) -> Optional[BatchedDenseStack]:
    """``model``'s dense plan, or ``None`` for a model without one (the
    convolutional models, which compute through the tape)."""
    try:
        return BatchedDenseStack(model)
    except BatchingUnsupported:
        return None
