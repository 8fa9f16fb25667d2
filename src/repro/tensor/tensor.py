"""Core :class:`Tensor` type with reverse-mode automatic differentiation.

The implementation follows the classic tape-based design: every operation
creates a new ``Tensor`` that stores references to its parents and a closure
computing the local vector-Jacobian products.  Calling :meth:`Tensor.backward`
performs a topological sort of the graph and accumulates gradients.

Only the operations required by the neural-network layers in
:mod:`repro.nn` are implemented, but they are implemented carefully
(broadcasting-aware, numerically stable where it matters) so the engine can
be used as a general-purpose mini autograd library.
"""

from __future__ import annotations

import contextlib
from typing import Callable, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

ArrayLike = Union[np.ndarray, float, int, Sequence]

_GRAD_ENABLED = True


@contextlib.contextmanager
def no_grad():
    """Context manager disabling gradient tracking.

    Used by inference code paths (e.g. accuracy evaluation) to avoid building
    the autograd graph.
    """
    global _GRAD_ENABLED
    previous = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = previous


def is_grad_enabled() -> bool:
    """Return whether gradient tracking is currently enabled."""
    return _GRAD_ENABLED


def _unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` so that its shape matches ``shape``.

    Numpy broadcasting expands dimensions during the forward pass; the
    corresponding backward pass must sum gradients over the broadcast axes.
    """
    if grad.shape == shape:
        return grad
    # Sum over leading dimensions added by broadcasting.
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    # Sum over dimensions that were of size 1 in the original shape.
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad.reshape(shape)


def _as_array(data: ArrayLike, dtype=np.float64) -> np.ndarray:
    if isinstance(data, np.ndarray):
        if data.dtype != dtype:
            return data.astype(dtype)
        return data
    return np.asarray(data, dtype=dtype)


class Tensor:
    """A multi-dimensional array with reverse-mode autodiff support.

    Parameters
    ----------
    data:
        Array-like initial value.  Stored as ``float64`` by default.
    requires_grad:
        When ``True`` the tensor participates in gradient computation and
        ``backward`` accumulates into :attr:`grad`.
    """

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents", "name")

    def __init__(
        self,
        data: ArrayLike,
        requires_grad: bool = False,
        _parents: Iterable["Tensor"] = (),
        _backward: Optional[Callable[[np.ndarray], None]] = None,
        name: str = "",
    ) -> None:
        self.data: np.ndarray = _as_array(data)
        self.requires_grad: bool = bool(requires_grad) and _GRAD_ENABLED
        self.grad: Optional[np.ndarray] = None
        self._parents: Tuple["Tensor", ...] = tuple(_parents) if self.requires_grad else ()
        self._backward: Optional[Callable[[np.ndarray], None]] = (
            _backward if self.requires_grad else None
        )
        self.name = name

    # ------------------------------------------------------------------ #
    # Basic properties
    # ------------------------------------------------------------------ #
    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def numpy(self) -> np.ndarray:
        """Return the underlying numpy array (no copy)."""
        return self.data

    def item(self) -> float:
        """Return the scalar value held by a single-element tensor."""
        return float(self.data.reshape(-1)[0]) if self.data.size == 1 else float(self.data)

    def detach(self) -> "Tensor":
        """Return a new tensor sharing data but detached from the graph."""
        return Tensor(self.data, requires_grad=False)

    def copy(self) -> "Tensor":
        """Return a deep copy detached from the graph."""
        return Tensor(self.data.copy(), requires_grad=False)

    def zero_grad(self) -> None:
        """Reset the accumulated gradient to ``None``."""
        self.grad = None

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{grad_flag})"

    def __len__(self) -> int:
        return self.data.shape[0]

    # ------------------------------------------------------------------ #
    # Autograd machinery
    # ------------------------------------------------------------------ #
    @staticmethod
    def _make(
        data: np.ndarray,
        parents: Sequence["Tensor"],
        backward: Callable[[np.ndarray], None],
    ) -> "Tensor":
        requires = _GRAD_ENABLED and any(p.requires_grad for p in parents)
        out = Tensor(data, requires_grad=requires)
        if requires:
            out._parents = tuple(p for p in parents if p.requires_grad)
            out._backward = backward
        return out

    def _accumulate(self, grad: np.ndarray) -> None:
        grad = _unbroadcast(np.asarray(grad, dtype=self.data.dtype), self.data.shape)
        if self.grad is None:
            self.grad = grad.copy()
        else:
            self.grad = self.grad + grad

    def backward(self, grad: Optional[np.ndarray] = None) -> None:
        """Back-propagate gradients from this tensor through the graph.

        Parameters
        ----------
        grad:
            Gradient of the final objective with respect to this tensor.
            Defaults to 1 for scalar tensors.
        """
        if not self.requires_grad:
            raise RuntimeError("backward() called on a tensor that does not require grad")
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError("grad must be provided for non-scalar tensors")
            grad = np.ones_like(self.data)
        grad = np.asarray(grad, dtype=self.data.dtype)

        # Topological order of the graph reachable from ``self``.
        order: List[Tensor] = []
        visited = set()

        def visit(node: "Tensor") -> None:
            stack = [(node, iter(node._parents))]
            visited.add(id(node))
            while stack:
                current, parents_iter = stack[-1]
                advanced = False
                for parent in parents_iter:
                    if id(parent) not in visited and parent.requires_grad:
                        visited.add(id(parent))
                        stack.append((parent, iter(parent._parents)))
                        advanced = True
                        break
                if not advanced:
                    order.append(current)
                    stack.pop()

        visit(self)

        self._accumulate(grad)
        for node in reversed(order):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    # ------------------------------------------------------------------ #
    # Arithmetic
    # ------------------------------------------------------------------ #
    @staticmethod
    def _coerce(other: Union["Tensor", ArrayLike]) -> "Tensor":
        return other if isinstance(other, Tensor) else Tensor(other)

    def __add__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        other = self._coerce(other)
        data = self.data + other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad)
            if other.requires_grad:
                other._accumulate(grad)

        return Tensor._make(data, (self, other), backward)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(-grad)

        return Tensor._make(-self.data, (self,), backward)

    def __sub__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        return self + (-self._coerce(other))

    def __rsub__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        return self._coerce(other) + (-self)

    def __mul__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        other = self._coerce(other)
        data = self.data * other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * other.data)
            if other.requires_grad:
                other._accumulate(grad * self.data)

        return Tensor._make(data, (self, other), backward)

    __rmul__ = __mul__

    def __truediv__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        other = self._coerce(other)
        data = self.data / other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad / other.data)
            if other.requires_grad:
                other._accumulate(-grad * self.data / (other.data ** 2))

        return Tensor._make(data, (self, other), backward)

    def __rtruediv__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        return self._coerce(other) / self

    def __pow__(self, exponent: float) -> "Tensor":
        if not isinstance(exponent, (int, float)):
            raise TypeError("only scalar exponents are supported")
        data = self.data ** exponent

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * exponent * self.data ** (exponent - 1))

        return Tensor._make(data, (self,), backward)

    def __matmul__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        other = self._coerce(other)
        data = self.data @ other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad @ other.data.swapaxes(-1, -2))
            if other.requires_grad:
                other._accumulate(self.data.swapaxes(-1, -2) @ grad)

        return Tensor._make(data, (self, other), backward)

    # ------------------------------------------------------------------ #
    # Reductions and shape manipulation
    # ------------------------------------------------------------------ #
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray) -> None:
            if not self.requires_grad:
                return
            g = grad
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis=axis)
            self._accumulate(np.broadcast_to(g, self.data.shape))

        return Tensor._make(data, (self,), backward)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.data.size
        elif isinstance(axis, tuple):
            count = int(np.prod([self.data.shape[a] for a in axis]))
        else:
            count = self.data.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def max(self, axis=None, keepdims: bool = False) -> "Tensor":
        data = self.data.max(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray) -> None:
            if not self.requires_grad:
                return
            g = grad
            expanded = data
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis=axis)
                expanded = np.expand_dims(data, axis=axis)
            mask = (self.data == expanded).astype(self.data.dtype)
            # Split gradient equally between ties to keep the op well-defined.
            mask = mask / np.maximum(mask.sum(axis=axis, keepdims=True), 1.0)
            self._accumulate(mask * g)

        return Tensor._make(data, (self,), backward)

    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        original = self.data.shape
        data = self.data.reshape(shape)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad.reshape(original))

        return Tensor._make(data, (self,), backward)

    def transpose(self, *axes) -> "Tensor":
        if not axes:
            axes = tuple(reversed(range(self.data.ndim)))
        elif len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        data = self.data.transpose(axes)
        inverse = np.argsort(axes)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad.transpose(inverse))

        return Tensor._make(data, (self,), backward)

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def __getitem__(self, index) -> "Tensor":
        data = self.data[index]

        def backward(grad: np.ndarray) -> None:
            if not self.requires_grad:
                return
            full = np.zeros_like(self.data)
            np.add.at(full, index, grad)
            self._accumulate(full)

        return Tensor._make(data, (self,), backward)

    # ------------------------------------------------------------------ #
    # Elementwise non-linearities
    # ------------------------------------------------------------------ #
    def exp(self) -> "Tensor":
        data = np.exp(self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * data)

        return Tensor._make(data, (self,), backward)

    def log(self) -> "Tensor":
        data = np.log(self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad / self.data)

        return Tensor._make(data, (self,), backward)

    def relu(self) -> "Tensor":
        mask = (self.data > 0).astype(self.data.dtype)
        data = self.data * mask

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * mask)

        return Tensor._make(data, (self,), backward)

    # ------------------------------------------------------------------ #
    # Construction helpers
    # ------------------------------------------------------------------ #
    @staticmethod
    def zeros(shape, requires_grad: bool = False) -> "Tensor":
        return Tensor(np.zeros(shape), requires_grad=requires_grad)

    @staticmethod
    def randn(*shape, rng: Optional[np.random.Generator] = None,
              requires_grad: bool = False) -> "Tensor":
        rng = rng if rng is not None else np.random.default_rng()
        return Tensor(rng.standard_normal(shape), requires_grad=requires_grad)

    @staticmethod
    def stack(tensors: Sequence["Tensor"], axis: int = 0) -> "Tensor":
        data = np.stack([t.data for t in tensors], axis=axis)

        def backward(grad: np.ndarray) -> None:
            pieces = np.split(grad, len(tensors), axis=axis)
            for tensor, piece in zip(tensors, pieces):
                if tensor.requires_grad:
                    tensor._accumulate(np.squeeze(piece, axis=axis))

        return Tensor._make(data, tuple(tensors), backward)
