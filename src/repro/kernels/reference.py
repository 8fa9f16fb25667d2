"""The ``reference`` kernel backend.

This is the code every other backend is measured against: the hot-kernel
implementations extracted verbatim from where they grew up —
``repro.aggregation.krum`` (the Gram/pairwise kernel and Krum neighbour
sums) and ``repro.nn.plan.BatchedDenseStack`` (the replica-batched
dense forward/backward).  It is bit-identical to the pre-backend code *by
construction*: the expressions are the same, only their home moved.  The
mean / trimmed-mean / median reductions are those of
:class:`~repro.kernels.base.KernelBackend`, shared with every backend: a
sort, or on wide rows a pruned comparator network that selects the same
values.

Every kernel here takes a replica stack; a single ``(n, d)`` stack is
R = 1.  The single-stack Gram kernel and neighbour sums it once carried
beside the batched ones are gone (the per-replica GAR oracle in
``tests/gar_oracle.py`` keeps their bodies).

Keep this backend boring.  Optimisations belong in ``numpy-opt`` (or a
future backend); the reference exists so the bitwise property suite has a
fixed point to compare against.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.kernels.base import DensePlan, KernelBackend


class ReferenceBackend(KernelBackend):
    """Extracted current implementations — the bitwise fixed point."""

    name = "reference"

    # ------------------------------------------------------------------ #
    # Pairwise squared distances
    # ------------------------------------------------------------------ #
    def pairwise_squared_distances_batched(self,
                                           stacked: np.ndarray) -> np.ndarray:
        stacked = np.asarray(stacked, dtype=np.float64)
        norms = np.einsum("rij,rij->ri", stacked, stacked)
        squared = (norms[:, :, None] + norms[:, None, :]
                   - 2.0 * (stacked @ stacked.transpose(0, 2, 1)))
        diagonal = np.arange(stacked.shape[1])
        squared[:, diagonal, diagonal] = 0.0
        return np.maximum(squared, 0.0)

    def krum_neighbor_sums_batched(self, squared: np.ndarray,
                                   num_neighbors: int) -> np.ndarray:
        nearest = np.sort(squared, axis=2)[:, :, :num_neighbors]
        return nearest.sum(axis=2)

    # ------------------------------------------------------------------ #
    # Replica-batched dense forward/backward
    # ------------------------------------------------------------------ #
    def dense_forward_logits(self, plan: DensePlan, flat: np.ndarray,
                             features: np.ndarray,
                             caches: Optional[list] = None) -> np.ndarray:
        hidden = features
        if hidden.ndim > 3:  # image input: flatten like the sequential models
            hidden = hidden.reshape(hidden.shape[0], hidden.shape[1], -1)
        for entry in plan:
            if entry[0] == "dense":
                _, in_f, out_f, w_slice, b_slice = entry
                weight = flat[:, w_slice].reshape(-1, in_f, out_f)
                bias = flat[:, b_slice]
                if caches is not None:
                    caches.append((hidden, weight))
                hidden = hidden @ weight
                hidden = hidden + bias[:, None, :]
            else:  # relu
                mask = (hidden > 0).astype(np.float64)
                if caches is not None:
                    caches.append(mask)
                hidden = hidden * mask
        return hidden

    def dense_forward_backward(self, plan: DensePlan, num_parameters: int,
                               flat: np.ndarray, features: np.ndarray,
                               labels: np.ndarray
                               ) -> Tuple[np.ndarray, np.ndarray]:
        flat = np.asarray(flat, dtype=np.float64)
        caches: list = []
        logits = self.dense_forward_logits(plan, flat, features, caches)
        replicas, batch, _ = logits.shape

        shift = logits.max(axis=2, keepdims=True)
        shifted = logits - shift
        exps = np.exp(shifted)
        normaliser = exps.sum(axis=2, keepdims=True)
        log_norm = np.log(normaliser)
        log_probs = shifted - log_norm

        lanes = np.arange(replicas)[:, None]
        rows = np.arange(batch)[None, :]
        picked = log_probs[lanes, rows, labels]
        losses = -(picked.sum(axis=1) * (1.0 / batch))

        # Backward: d(loss)/d(log_probs) is −1/B at the target entries; the
        # log-softmax pullback adds softmax/B (computed exactly as the tape
        # does: the log/sum/exp chain, not a fused softmax).
        picked_grad = -1.0 * (1.0 / batch)
        d_log_probs = np.zeros_like(log_probs)
        d_log_probs[lanes, rows, labels] = picked_grad
        d_log_norm = -(d_log_probs.sum(axis=2, keepdims=True))
        d_normaliser = d_log_norm / normaliser
        d_shifted = d_log_probs + d_normaliser * exps
        d_hidden = d_shifted  # the max-shift is a constant under the tape

        grads: List = [None] * len(plan)
        for index in range(len(plan) - 1, -1, -1):
            entry = plan[index]
            if entry[0] == "dense":
                layer_in, weight = caches[index]
                bias_grad = d_hidden.sum(axis=1)
                weight_grad = layer_in.transpose(0, 2, 1) @ d_hidden
                grads[index] = (weight_grad, bias_grad)
                if index > 0:  # the batch input needs no gradient
                    d_hidden = d_hidden @ weight.transpose(0, 2, 1)
            else:  # relu
                d_hidden = d_hidden * caches[index]

        pieces = []
        for entry, grad in zip(plan, grads):
            if entry[0] == "dense":
                weight_grad, bias_grad = grad
                pieces.append(weight_grad.reshape(replicas, -1))
                pieces.append(bias_grad)
        return losses, np.concatenate(pieces, axis=1)
