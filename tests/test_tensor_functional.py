"""Unit tests for the functional NN operations (softmax, conv, pooling)."""

import numpy as np
import pytest

from repro.tensor import (
    Tensor,
    conv2d,
    cross_entropy,
    gradient_check,
    log_softmax,
    max_pool2d,
    nll_loss,
    relu,
    softmax,
)
from repro.tensor.functional import flatten


class TestSoftmaxAndLosses:
    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(0)
        x = Tensor(rng.normal(size=(5, 7)))
        out = softmax(x)
        assert np.allclose(out.data.sum(axis=1), 1.0)

    def test_softmax_is_shift_invariant(self):
        x = Tensor(np.array([[1.0, 2.0, 3.0]]))
        shifted = Tensor(np.array([[101.0, 102.0, 103.0]]))
        assert np.allclose(softmax(x).data, softmax(shifted).data)

    def test_softmax_numerically_stable_with_large_logits(self):
        x = Tensor(np.array([[1000.0, 0.0, -1000.0]]))
        out = softmax(x).data
        assert np.all(np.isfinite(out))
        assert out[0, 0] == pytest.approx(1.0)

    def test_log_softmax_matches_log_of_softmax(self):
        rng = np.random.default_rng(1)
        x = Tensor(rng.normal(size=(4, 6)))
        assert np.allclose(log_softmax(x).data, np.log(softmax(x).data))

    def test_cross_entropy_of_perfect_prediction_is_small(self):
        logits = Tensor(np.array([[100.0, 0.0], [0.0, 100.0]]))
        loss = cross_entropy(logits, np.array([0, 1]))
        assert loss.item() < 1e-6

    def test_cross_entropy_uniform_prediction_equals_log_k(self):
        logits = Tensor(np.zeros((3, 10)))
        loss = cross_entropy(logits, np.array([0, 5, 9]))
        assert loss.item() == pytest.approx(np.log(10.0))

    def test_cross_entropy_gradcheck(self):
        rng = np.random.default_rng(2)
        logits = Tensor(rng.normal(size=(6, 4)), requires_grad=True)
        targets = rng.integers(0, 4, size=6)
        assert gradient_check(lambda t: cross_entropy(t, targets), [logits])

    def test_nll_loss_selects_target_log_probs(self):
        log_probs = Tensor(np.log(np.full((2, 2), 0.5)))
        loss = nll_loss(log_probs, np.array([0, 1]))
        assert loss.item() == pytest.approx(np.log(2.0))

    def test_cross_entropy_gradient_sums_to_zero_per_row(self):
        rng = np.random.default_rng(3)
        logits = Tensor(rng.normal(size=(5, 3)), requires_grad=True)
        cross_entropy(logits, rng.integers(0, 3, size=5)).backward()
        assert np.allclose(logits.grad.sum(axis=1), 0.0, atol=1e-10)


class TestConv2D:
    def test_output_shape_no_padding(self):
        x = Tensor(np.zeros((2, 3, 8, 8)))
        w = Tensor(np.zeros((4, 3, 3, 3)))
        assert conv2d(x, w).shape == (2, 4, 6, 6)

    def test_output_shape_same_padding(self):
        x = Tensor(np.zeros((1, 3, 8, 8)))
        w = Tensor(np.zeros((4, 3, 3, 3)))
        assert conv2d(x, w, padding=1).shape == (1, 4, 8, 8)

    def test_output_shape_with_stride(self):
        x = Tensor(np.zeros((1, 1, 8, 8)))
        w = Tensor(np.zeros((2, 1, 2, 2)))
        assert conv2d(x, w, stride=2).shape == (1, 2, 4, 4)

    def test_identity_kernel_preserves_input(self):
        x = Tensor(np.random.default_rng(0).normal(size=(1, 1, 5, 5)))
        w = Tensor(np.ones((1, 1, 1, 1)))
        assert np.allclose(conv2d(x, w).data, x.data)

    def test_matches_direct_convolution(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(1, 1, 4, 4))
        w = rng.normal(size=(1, 1, 3, 3))
        out = conv2d(Tensor(x), Tensor(w)).data
        expected = np.zeros((2, 2))
        for i in range(2):
            for j in range(2):
                expected[i, j] = (x[0, 0, i:i + 3, j:j + 3] * w[0, 0]).sum()
        assert np.allclose(out[0, 0], expected)

    def test_bias_added_per_channel(self):
        x = Tensor(np.zeros((1, 1, 3, 3)))
        w = Tensor(np.zeros((2, 1, 1, 1)))
        b = Tensor(np.array([1.0, -2.0]))
        out = conv2d(x, w, b).data
        assert np.allclose(out[0, 0], 1.0)
        assert np.allclose(out[0, 1], -2.0)

    def test_gradcheck_weight_and_input(self):
        rng = np.random.default_rng(5)
        x = Tensor(rng.normal(size=(2, 2, 5, 5)), requires_grad=True)
        w = Tensor(rng.normal(size=(3, 2, 3, 3)), requires_grad=True)
        b = Tensor(rng.normal(size=3), requires_grad=True)
        assert gradient_check(lambda a, ww, bb: conv2d(a, ww, bb, padding=1),
                              [x, w, b], atol=1e-3)


class TestPooling:
    def test_max_pool_shape(self):
        x = Tensor(np.zeros((2, 3, 8, 8)))
        assert max_pool2d(x, 2).shape == (2, 3, 4, 4)

    def test_max_pool_values(self):
        x = Tensor(np.arange(16.0).reshape(1, 1, 4, 4))
        out = max_pool2d(x, 2).data
        assert np.allclose(out[0, 0], [[5.0, 7.0], [13.0, 15.0]])

    def test_max_pool_with_padding_ignores_padded_positions(self):
        x = Tensor(-np.ones((1, 1, 4, 4)))
        out = max_pool2d(x, kernel_size=3, stride=2, padding=1).data
        # All inputs are -1; padded -inf cells must never win.
        assert np.allclose(out, -1.0)

    def test_max_pool_same_padding_shape_matches_tf(self):
        # 32x32 pooled with 3x3 stride 2 and SAME padding gives 16x16 (paper CNN).
        x = Tensor(np.zeros((1, 1, 32, 32)))
        assert max_pool2d(x, 3, stride=2, padding=1).shape == (1, 1, 16, 16)

    def test_max_pool_gradcheck(self):
        rng = np.random.default_rng(6)
        x = Tensor(rng.normal(size=(1, 2, 6, 6)), requires_grad=True)
        assert gradient_check(lambda t: max_pool2d(t, 2), [x], atol=1e-3)

    def test_flatten_keeps_batch(self):
        x = Tensor(np.zeros((3, 2, 4, 4)))
        assert flatten(x).shape == (3, 32)


class TestActivationHelpers:
    def test_relu_helper_matches_method(self):
        x = Tensor(np.array([-1.0, 3.0]))
        assert np.allclose(relu(x).data, x.relu().data)
