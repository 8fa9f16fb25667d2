"""Base classes for neural-network modules.

The distributed protocol of GuanYu exchanges *flat parameter vectors*
(``θ ∈ R^d``) and *flat gradient vectors*.  :class:`Module` therefore exposes,
in addition to the usual layer-composition interface, a flat-vector API:

* :meth:`Module.get_flat_parameters` returns all parameters concatenated into
  one ``numpy`` vector,
* :meth:`Module.set_flat_parameters` installs such a vector back into the
  layers,
* :meth:`Module.get_flat_gradient` returns the concatenated gradients after a
  backward pass.

This mirrors how the original implementation converts TensorFlow tensors to
numpy arrays before serialising them into protocol buffers.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Iterator, List, Tuple

import numpy as np

from repro.tensor import Tensor


class Parameter(Tensor):
    """A :class:`Tensor` that is registered as a trainable parameter."""

    def __init__(self, data, name: str = "") -> None:
        super().__init__(data, requires_grad=True, name=name)


class Module:
    """Base class for all neural-network modules.

    Subclasses assign :class:`Parameter` and :class:`Module` instances as
    attributes; those are discovered automatically for parameter iteration.
    """

    def __init__(self) -> None:
        self._parameters: "OrderedDict[str, Parameter]" = OrderedDict()
        self._modules: "OrderedDict[str, Module]" = OrderedDict()

    # ------------------------------------------------------------------ #
    # Attribute registration
    # ------------------------------------------------------------------ #
    def __setattr__(self, name: str, value) -> None:
        if isinstance(value, Parameter):
            self.__dict__.setdefault("_parameters", OrderedDict())[name] = value
        elif isinstance(value, Module):
            self.__dict__.setdefault("_modules", OrderedDict())[name] = value
        object.__setattr__(self, name, value)

    # ------------------------------------------------------------------ #
    # Forward
    # ------------------------------------------------------------------ #
    def forward(self, x: Tensor) -> Tensor:
        raise NotImplementedError

    def __call__(self, x: Tensor) -> Tensor:
        return self.forward(x)

    # ------------------------------------------------------------------ #
    # Parameter iteration
    # ------------------------------------------------------------------ #
    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Parameter]]:
        """Yield ``(name, parameter)`` pairs, depth-first and ordered."""
        for name, param in self._parameters.items():
            yield (f"{prefix}{name}", param)
        for name, module in self._modules.items():
            yield from module.named_parameters(prefix=f"{prefix}{name}.")

    def parameters(self) -> List[Parameter]:
        """Return all parameters as a list (stable order)."""
        return [param for _, param in self.named_parameters()]

    def num_parameters(self) -> int:
        """Total number of scalar parameters."""
        return int(sum(param.size for param in self.parameters()))

    def zero_grad(self) -> None:
        """Reset gradients of every parameter."""
        for param in self.parameters():
            param.zero_grad()

    # ------------------------------------------------------------------ #
    # Flat parameter / gradient interface (used by the distributed layer)
    # ------------------------------------------------------------------ #
    def get_flat_parameters(self) -> np.ndarray:
        """Concatenate all parameters into a single 1-D float64 vector."""
        params = self.parameters()
        if not params:
            return np.zeros(0)
        return np.concatenate([param.data.reshape(-1) for param in params])

    def set_flat_parameters(self, flat: np.ndarray) -> None:
        """Install a flat vector produced by :meth:`get_flat_parameters`."""
        flat = np.asarray(flat, dtype=np.float64)
        expected = self.num_parameters()
        if flat.size != expected:
            raise ValueError(
                f"flat parameter vector has {flat.size} entries, expected {expected}"
            )
        offset = 0
        for param in self.parameters():
            count = param.size
            param.data[...] = flat[offset: offset + count].reshape(param.shape)
            offset += count

    def get_flat_gradient(self) -> np.ndarray:
        """Concatenate parameter gradients into one vector (zeros if absent)."""
        pieces = []
        for param in self.parameters():
            if param.grad is None:
                pieces.append(np.zeros(param.size))
            else:
                pieces.append(param.grad.reshape(-1))
        if not pieces:
            return np.zeros(0)
        return np.concatenate(pieces)

    def apply_flat_gradient(self, flat_grad: np.ndarray, learning_rate: float) -> None:
        """Apply a plain SGD step ``θ ← θ − η·g`` from a flat gradient."""
        flat_grad = np.asarray(flat_grad, dtype=np.float64)
        offset = 0
        for param in self.parameters():
            count = param.size
            piece = flat_grad[offset: offset + count].reshape(param.shape)
            param.data -= learning_rate * piece
            offset += count


class Sequential(Module):
    """Composition of modules applied in order."""

    def __init__(self, *modules: Module) -> None:
        super().__init__()
        self.layers: List[Module] = []
        for index, module in enumerate(modules):
            setattr(self, f"layer{index}", module)
            self.layers.append(module)

    def forward(self, x: Tensor) -> Tensor:
        for layer in self.layers:
            x = layer(x)
        return x

    def __iter__(self) -> Iterator[Module]:
        return iter(self.layers)

    def __len__(self) -> int:
        return len(self.layers)

    def __getitem__(self, index: int) -> Module:
        return self.layers[index]
