"""Functional neural-network operations built on :class:`repro.tensor.Tensor`.

The convolution and pooling operators are implemented with an im2col
formulation, which keeps them expressible with dense matrix products (and
therefore fast enough on CPU for the scaled-down experiments of this
reproduction).
"""

from __future__ import annotations

from typing import Tuple, Union

import numpy as np

from repro.tensor.tensor import Tensor

IntOrPair = Union[int, Tuple[int, int]]


def _pair(value: IntOrPair) -> Tuple[int, int]:
    if isinstance(value, tuple):
        return value
    return (int(value), int(value))


# --------------------------------------------------------------------------- #
# Elementwise activations
# --------------------------------------------------------------------------- #
def relu(x: Tensor) -> Tensor:
    """Rectified linear unit, ``max(x, 0)``."""
    return x.relu()


# --------------------------------------------------------------------------- #
# Softmax / cross-entropy
# --------------------------------------------------------------------------- #
def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along ``axis``."""
    shifted = x - Tensor(x.data.max(axis=axis, keepdims=True))
    exp = shifted.exp()
    return exp / exp.sum(axis=axis, keepdims=True)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable log-softmax along ``axis``."""
    shifted = x - Tensor(x.data.max(axis=axis, keepdims=True))
    log_norm = shifted.exp().sum(axis=axis, keepdims=True).log()
    return shifted - log_norm


def nll_loss(log_probs: Tensor, targets: np.ndarray) -> Tensor:
    """Negative log-likelihood of integer class targets.

    Parameters
    ----------
    log_probs:
        Tensor of shape ``(batch, classes)`` holding log-probabilities.
    targets:
        Integer array of shape ``(batch,)``.
    """
    targets = np.asarray(targets, dtype=np.int64)
    batch = log_probs.shape[0]
    picked = log_probs[np.arange(batch), targets]
    return -picked.mean()


def cross_entropy(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Softmax cross-entropy between ``logits`` and integer ``targets``."""
    return nll_loss(log_softmax(logits, axis=-1), targets)


# --------------------------------------------------------------------------- #
# im2col helpers
# --------------------------------------------------------------------------- #
def _im2col_indices(x_shape, kernel_h, kernel_w, stride_h, stride_w, pad_h, pad_w):
    batch, channels, height, width = x_shape
    out_h = (height + 2 * pad_h - kernel_h) // stride_h + 1
    out_w = (width + 2 * pad_w - kernel_w) // stride_w + 1

    i0 = np.repeat(np.arange(kernel_h), kernel_w)
    i0 = np.tile(i0, channels)
    i1 = stride_h * np.repeat(np.arange(out_h), out_w)
    j0 = np.tile(np.arange(kernel_w), kernel_h * channels)
    j1 = stride_w * np.tile(np.arange(out_w), out_h)
    i = i0.reshape(-1, 1) + i1.reshape(1, -1)
    j = j0.reshape(-1, 1) + j1.reshape(1, -1)
    k = np.repeat(np.arange(channels), kernel_h * kernel_w).reshape(-1, 1)
    return k, i, j, out_h, out_w


def _im2col(x: np.ndarray, kernel_h, kernel_w, stride_h, stride_w, pad_h, pad_w):
    padded = np.pad(
        x, ((0, 0), (0, 0), (pad_h, pad_h), (pad_w, pad_w)), mode="constant"
    )
    k, i, j, out_h, out_w = _im2col_indices(
        x.shape, kernel_h, kernel_w, stride_h, stride_w, pad_h, pad_w
    )
    cols = padded[:, k, i, j]
    channels = x.shape[1]
    cols = cols.transpose(1, 2, 0).reshape(kernel_h * kernel_w * channels, -1)
    return cols, out_h, out_w


def _col2im(cols, x_shape, kernel_h, kernel_w, stride_h, stride_w, pad_h, pad_w):
    batch, channels, height, width = x_shape
    padded = np.zeros(
        (batch, channels, height + 2 * pad_h, width + 2 * pad_w), dtype=cols.dtype
    )
    k, i, j, out_h, out_w = _im2col_indices(
        x_shape, kernel_h, kernel_w, stride_h, stride_w, pad_h, pad_w
    )
    cols_reshaped = cols.reshape(channels * kernel_h * kernel_w, -1, batch)
    cols_reshaped = cols_reshaped.transpose(2, 0, 1)
    np.add.at(padded, (slice(None), k, i, j), cols_reshaped)
    if pad_h == 0 and pad_w == 0:
        return padded
    return padded[:, :, pad_h: pad_h + height, pad_w: pad_w + width]


# --------------------------------------------------------------------------- #
# Convolution and pooling
# --------------------------------------------------------------------------- #
def conv2d(
    x: Tensor,
    weight: Tensor,
    bias: Tensor = None,
    stride: IntOrPair = 1,
    padding: IntOrPair = 0,
) -> Tensor:
    """2-D convolution over a batch of NCHW inputs.

    Parameters
    ----------
    x:
        Input of shape ``(batch, in_channels, height, width)``.
    weight:
        Filters of shape ``(out_channels, in_channels, kernel_h, kernel_w)``.
    bias:
        Optional bias of shape ``(out_channels,)``.
    stride, padding:
        Integer or ``(h, w)`` pair.
    """
    stride_h, stride_w = _pair(stride)
    pad_h, pad_w = _pair(padding)
    out_channels, in_channels, kernel_h, kernel_w = weight.shape
    batch = x.shape[0]

    cols, out_h, out_w = _im2col(
        x.data, kernel_h, kernel_w, stride_h, stride_w, pad_h, pad_w
    )
    w_flat = weight.data.reshape(out_channels, -1)
    out = w_flat @ cols
    out = out.reshape(out_channels, out_h, out_w, batch).transpose(3, 0, 1, 2)
    if bias is not None:
        out = out + bias.data.reshape(1, out_channels, 1, 1)

    x_shape = x.data.shape

    def backward(grad: np.ndarray) -> None:
        grad_flat = grad.transpose(1, 2, 3, 0).reshape(out_channels, -1)
        if bias is not None and bias.requires_grad:
            bias._accumulate(grad.sum(axis=(0, 2, 3)))
        if weight.requires_grad:
            grad_w = (grad_flat @ cols.T).reshape(weight.data.shape)
            weight._accumulate(grad_w)
        if x.requires_grad:
            grad_cols = w_flat.T @ grad_flat
            grad_x = _col2im(
                grad_cols, x_shape, kernel_h, kernel_w,
                stride_h, stride_w, pad_h, pad_w,
            )
            x._accumulate(grad_x)

    parents = (x, weight) if bias is None else (x, weight, bias)
    return Tensor._make(out, parents, backward)


def max_pool2d(
    x: Tensor,
    kernel_size: IntOrPair,
    stride: IntOrPair = None,
    padding: IntOrPair = 0,
) -> Tensor:
    """Max pooling over NCHW inputs.

    Padding is applied symmetrically with ``-inf`` so that padded positions
    can never be selected as the maximum (this matches TensorFlow's ``SAME``
    pooling used by the paper's Table 1 model when ``padding`` is chosen
    accordingly).  Inputs whose padded spatial size is not divisible by the
    stride are cropped at the bottom/right edge.
    """
    kernel_h, kernel_w = _pair(kernel_size)
    if stride is None:
        stride = (kernel_h, kernel_w)
    stride_h, stride_w = _pair(stride)
    pad_h, pad_w = _pair(padding)

    batch, channels, height, width = x.shape
    data = x.data
    if pad_h or pad_w:
        data = np.pad(
            data,
            ((0, 0), (0, 0), (pad_h, pad_h), (pad_w, pad_w)),
            mode="constant",
            constant_values=-np.inf,
        )
    padded_h, padded_w = data.shape[2], data.shape[3]
    out_h = (padded_h - kernel_h) // stride_h + 1
    out_w = (padded_w - kernel_w) // stride_w + 1

    # Build a strided view of all pooling windows: (B, C, out_h, out_w, kh, kw)
    windows = np.lib.stride_tricks.sliding_window_view(
        data, (kernel_h, kernel_w), axis=(2, 3)
    )[:, :, ::stride_h, ::stride_w, :, :]
    windows = windows[:, :, :out_h, :out_w, :, :]
    out = windows.max(axis=(4, 5))

    # Record argmax positions for the backward pass.
    flat_windows = windows.reshape(batch, channels, out_h, out_w, -1)
    argmax = flat_windows.argmax(axis=-1)

    def backward(grad: np.ndarray) -> None:
        if not x.requires_grad:
            return
        grad_padded = np.zeros_like(data)
        kh_idx, kw_idx = np.unravel_index(argmax, (kernel_h, kernel_w))
        b_idx, c_idx, oh_idx, ow_idx = np.meshgrid(
            np.arange(batch), np.arange(channels),
            np.arange(out_h), np.arange(out_w), indexing="ij",
        )
        h_idx = oh_idx * stride_h + kh_idx
        w_idx = ow_idx * stride_w + kw_idx
        np.add.at(grad_padded, (b_idx, c_idx, h_idx, w_idx), grad)
        if pad_h or pad_w:
            grad_x = grad_padded[:, :, pad_h: pad_h + height, pad_w: pad_w + width]
        else:
            grad_x = grad_padded
        x._accumulate(grad_x)

    return Tensor._make(out, (x,), backward)


def flatten(x: Tensor) -> Tensor:
    """Flatten all dimensions except the batch dimension."""
    return x.reshape(x.shape[0], -1)
