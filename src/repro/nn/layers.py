"""Standard neural-network layers."""

from __future__ import annotations

from typing import Optional, Tuple, Union

import numpy as np

from repro.nn import init as initializers
from repro.nn.module import Module, Parameter
from repro.tensor import Tensor
from repro.tensor import functional as F

IntOrPair = Union[int, Tuple[int, int]]


class Dense(Module):
    """Fully connected layer ``y = x W + b``.

    Parameters
    ----------
    in_features, out_features:
        Input and output dimensionality.
    bias:
        Whether to learn an additive bias.
    initializer:
        Name of the weight initialiser (see :mod:`repro.nn.init`).
    rng:
        Random generator used for initialisation; pass a seeded generator to
        make model construction deterministic.
    """

    def __init__(
        self,
        in_features: int,
        out_features: int,
        bias: bool = True,
        initializer: str = "glorot_uniform",
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng()
        init_fn = initializers.get_initializer(initializer)
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(init_fn((in_features, out_features), rng), name="weight")
        self.bias = Parameter(np.zeros(out_features), name="bias") if bias else None

    def forward(self, x: Tensor) -> Tensor:
        out = x @ self.weight
        if self.bias is not None:
            out = out + self.bias
        return out

    def __repr__(self) -> str:  # pragma: no cover
        return f"Dense({self.in_features}, {self.out_features})"


class Conv2D(Module):
    """2-D convolution layer over NCHW inputs."""

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: IntOrPair,
        stride: IntOrPair = 1,
        padding: IntOrPair = 0,
        bias: bool = True,
        initializer: str = "he_normal",
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng()
        init_fn = initializers.get_initializer(initializer)
        kernel = kernel_size if isinstance(kernel_size, tuple) else (kernel_size, kernel_size)
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel
        self.stride = stride
        self.padding = padding
        shape = (out_channels, in_channels, kernel[0], kernel[1])
        self.weight = Parameter(init_fn(shape, rng), name="weight")
        self.bias = Parameter(np.zeros(out_channels), name="bias") if bias else None

    def forward(self, x: Tensor) -> Tensor:
        return F.conv2d(x, self.weight, self.bias, stride=self.stride, padding=self.padding)

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"Conv2D({self.in_channels}, {self.out_channels}, "
            f"kernel_size={self.kernel_size}, stride={self.stride}, "
            f"padding={self.padding})"
        )


class MaxPool2D(Module):
    """Max-pooling layer over NCHW inputs."""

    def __init__(self, kernel_size: IntOrPair, stride: IntOrPair = None,
                 padding: IntOrPair = 0) -> None:
        super().__init__()
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding

    def forward(self, x: Tensor) -> Tensor:
        return F.max_pool2d(x, self.kernel_size, self.stride, self.padding)

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"MaxPool2D(kernel_size={self.kernel_size}, stride={self.stride}, "
            f"padding={self.padding})"
        )


class Flatten(Module):
    """Flatten every dimension except the batch dimension."""

    def forward(self, x: Tensor) -> Tensor:
        return F.flatten(x)


class ReLU(Module):
    """Rectified linear activation."""

    def forward(self, x: Tensor) -> Tensor:
        return F.relu(x)
