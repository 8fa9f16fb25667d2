"""The ``numpy-opt`` kernel backend.

Same bits, different memory traffic: every method is bit-identical to the
``reference`` backend (the property suite in ``tests/test_kernels.py``
enforces this for all registered GARs).  It overrides two things:

* **Krum neighbour sums via a single-``kth`` ``np.partition``** — only the
  k smallest are needed, in order.  Partitioning to the boundary and
  ascending-sorting just the selected block feeds the exact same summands
  in the exact same order into the same pairwise-summation reduction, so
  the result is bitwise unchanged.
* **Per-thread scratch buffers + ``out=`` ufuncs** — the Gram/pairwise
  kernel and the replica-batched dense forward/backward reuse per-shape
  buffers instead of allocating fresh intermediates every step.  The
  floating-point operations and their order are identical; only the
  destination memory changes.

It is *not* uniformly faster than ``reference``.  Its former trimmed-mean
and even-length median (two-``kth`` ``np.partition`` plus a sort of the
middle block) measured 3-7x slower than a full sort at D = 30,730 and
were deleted; both backends now share the order-statistic reductions of
:class:`~repro.kernels.base.KernelBackend` (a sort, or a comparator
network on wide rows).  See ``docs/kernels.md`` for the numbers.

Buffer-lifetime caveat: arrays returned by the pairwise-distance methods
are views into reusable scratch storage and are only valid until the same
thread's next call of this backend with the same shape.  Each thread has
its own buffers — the threaded runtime's node threads share this
singleton — so a call on another thread never overwrites them.  Every
in-repo caller consumes them immediately (Krum scores, spread
diagnostics); hold a ``.copy()`` if you need one to survive.
"""

from __future__ import annotations

import threading
from typing import Dict, Optional, Tuple

import numpy as np

from repro.kernels.base import DensePlan, KernelBackend


class _ThreadBuffers(threading.local):
    def __init__(self) -> None:
        self.by_key: Dict[Tuple, np.ndarray] = {}


class NumpyOptBackend(KernelBackend):
    """Partition-based Krum sums and buffer-reusing Gram/dense kernels."""

    name = "numpy-opt"

    def __init__(self) -> None:
        self._buffers = _ThreadBuffers()

    def _scratch(self, key, shape: Tuple[int, ...]) -> np.ndarray:
        """The calling thread's reusable float64 buffer for ``key`` at
        ``shape``.

        Keys include the plan step where aliasing would matter (forward
        activations are cached for the backward pass), so two live
        tensors never share storage within one call.
        """
        buffers = self._buffers.by_key
        buf = buffers.get((key, shape))
        if buf is None:
            buf = np.empty(shape, dtype=np.float64)
            buffers[(key, shape)] = buf
        return buf

    # ------------------------------------------------------------------ #
    # Pairwise squared distances
    # ------------------------------------------------------------------ #
    def pairwise_squared_distances(self, stacked: np.ndarray) -> np.ndarray:
        stacked = np.asarray(stacked, dtype=np.float64)
        n = stacked.shape[0]
        norms = np.einsum("ij,ij->i", stacked, stacked)
        gram = self._scratch("gram", (n, n))
        np.matmul(stacked, stacked.T, out=gram)
        squared = self._scratch("pairwise", (n, n))
        # (a + b) - 2*g, exactly the reference association
        np.add(norms[:, None], norms[None, :], out=squared)
        np.multiply(gram, 2.0, out=gram)
        np.subtract(squared, gram, out=squared)
        np.fill_diagonal(squared, 0.0)
        np.maximum(squared, 0.0, out=squared)
        return squared

    def pairwise_squared_distances_batched(self,
                                           stacked: np.ndarray) -> np.ndarray:
        stacked = np.asarray(stacked, dtype=np.float64)
        replicas, n, _ = stacked.shape
        norms = np.einsum("rij,rij->ri", stacked, stacked)
        gram = self._scratch("gram_batched", (replicas, n, n))
        np.matmul(stacked, stacked.transpose(0, 2, 1), out=gram)
        squared = self._scratch("pairwise_batched", (replicas, n, n))
        np.add(norms[:, :, None], norms[:, None, :], out=squared)
        np.multiply(gram, 2.0, out=gram)
        np.subtract(squared, gram, out=squared)
        diagonal = np.arange(n)
        squared[:, diagonal, diagonal] = 0.0
        np.maximum(squared, 0.0, out=squared)
        return squared

    def krum_neighbor_sums(self, squared: np.ndarray,
                           num_neighbors: int) -> np.ndarray:
        return self._neighbor_sums(squared, num_neighbors, axis=1)

    def krum_neighbor_sums_batched(self, squared: np.ndarray,
                                   num_neighbors: int) -> np.ndarray:
        return self._neighbor_sums(squared, num_neighbors, axis=2)

    @staticmethod
    def _neighbor_sums(squared: np.ndarray, num_neighbors: int,
                       axis: int) -> np.ndarray:
        length = squared.shape[axis]
        if num_neighbors < 1 or num_neighbors >= length:
            window = [slice(None)] * squared.ndim
            window[axis] = slice(None, num_neighbors)
            return np.sort(squared, axis=axis)[tuple(window)].sum(axis=axis)
        window = [slice(None)] * squared.ndim
        window[axis] = slice(None, num_neighbors)
        nearest = np.partition(squared, num_neighbors - 1,
                               axis=axis)[tuple(window)]
        nearest.sort(axis=axis)  # ascending, like the reference's full sort
        return nearest.sum(axis=axis)

    # ------------------------------------------------------------------ #
    # Replica-batched dense forward/backward
    # ------------------------------------------------------------------ #
    def dense_forward_logits(self, plan: DensePlan, flat: np.ndarray,
                             features: np.ndarray,
                             caches: Optional[list] = None) -> np.ndarray:
        hidden = features
        if hidden.ndim > 3:
            hidden = hidden.reshape(hidden.shape[0], hidden.shape[1], -1)
        owns_hidden = False  # never write in place into the caller's batch
        for index, entry in enumerate(plan):
            if entry[0] == "dense":
                _, in_f, out_f, w_slice, b_slice = entry
                weight = flat[:, w_slice].reshape(-1, in_f, out_f)
                bias = flat[:, b_slice]
                if caches is not None:
                    caches.append((hidden, weight))
                out = self._scratch(("fwd", index),
                                    (hidden.shape[0], hidden.shape[1], out_f))
                np.matmul(hidden, weight, out=out)
                np.add(out, bias[:, None, :], out=out)
                hidden = out
                owns_hidden = True
            else:  # relu
                mask = self._scratch(("mask", index), hidden.shape)
                np.greater(hidden, 0.0, out=mask)
                if caches is not None:
                    caches.append(mask)
                if owns_hidden:
                    np.multiply(hidden, mask, out=hidden)
                else:  # pragma: no cover - plans always start with a dense
                    hidden = hidden * mask
                    owns_hidden = True
        return hidden

    def dense_forward_backward(self, plan: DensePlan, num_parameters: int,
                               flat: np.ndarray, features: np.ndarray,
                               labels: np.ndarray
                               ) -> Tuple[np.ndarray, np.ndarray]:
        flat = np.asarray(flat, dtype=np.float64)
        caches: list = []
        logits = self.dense_forward_logits(plan, flat, features, caches)
        replicas, batch, _ = logits.shape
        shape = logits.shape

        shift = logits.max(axis=2, keepdims=True)
        shifted = self._scratch("shifted", shape)
        np.subtract(logits, shift, out=shifted)
        exps = self._scratch("exps", shape)
        np.exp(shifted, out=exps)
        normaliser = exps.sum(axis=2, keepdims=True)
        log_norm = np.log(normaliser)
        log_probs = self._scratch("log_probs", shape)
        np.subtract(shifted, log_norm, out=log_probs)

        lanes = np.arange(replicas)[:, None]
        rows = np.arange(batch)[None, :]
        picked = log_probs[lanes, rows, labels]
        losses = -(picked.sum(axis=1) * (1.0 / batch))

        picked_grad = -1.0 * (1.0 / batch)
        d_log_probs = self._scratch("d_log_probs", shape)
        d_log_probs.fill(0.0)
        d_log_probs[lanes, rows, labels] = picked_grad
        d_log_norm = -(d_log_probs.sum(axis=2, keepdims=True))
        d_normaliser = d_log_norm / normaliser
        # d_shifted = d_log_probs + d_normaliser * exps, reusing exps as the
        # product target (IEEE multiply and add are commutative bitwise)
        np.multiply(exps, d_normaliser, out=exps)
        np.add(d_log_probs, exps, out=d_log_probs)
        d_hidden = d_log_probs

        grads: list = [None] * len(plan)
        for index in range(len(plan) - 1, -1, -1):
            entry = plan[index]
            if entry[0] == "dense":
                layer_in, weight = caches[index]
                bias_grad = d_hidden.sum(axis=1)
                weight_grad = self._scratch(
                    ("wgrad", index),
                    (replicas, layer_in.shape[2], d_hidden.shape[2]))
                np.matmul(layer_in.transpose(0, 2, 1), d_hidden,
                          out=weight_grad)
                grads[index] = (weight_grad, bias_grad)
                if index > 0:
                    nxt = self._scratch(
                        ("bwd", index),
                        (replicas, d_hidden.shape[1], layer_in.shape[2]))
                    np.matmul(d_hidden, weight.transpose(0, 2, 1), out=nxt)
                    d_hidden = nxt
            else:  # relu
                np.multiply(d_hidden, caches[index], out=d_hidden)

        pieces = []
        for entry, grad in zip(plan, grads):
            if entry[0] == "dense":
                weight_grad, bias_grad = grad
                pieces.append(weight_grad.reshape(replicas, -1))
                pieces.append(bias_grad)
        return losses, np.concatenate(pieces, axis=1)
