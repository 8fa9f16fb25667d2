"""Unit tests for neural-network layers and initialisers."""

import numpy as np
import pytest

from repro.nn import Conv2D, Dense, Flatten, MaxPool2D, ReLU
from repro.nn.init import INITIALIZERS, get_initializer, glorot_uniform, he_normal
from repro.tensor import Tensor


class TestDense:
    def test_output_shape(self):
        layer = Dense(4, 7, rng=np.random.default_rng(0))
        assert layer(Tensor(np.zeros((3, 4)))).shape == (3, 7)

    def test_no_bias_option(self):
        layer = Dense(4, 7, bias=False, rng=np.random.default_rng(0))
        assert layer.bias is None
        assert len(layer.parameters()) == 1

    def test_zero_weight_zero_bias_gives_zero_output(self):
        layer = Dense(3, 2, initializer="zeros", rng=np.random.default_rng(0))
        out = layer(Tensor(np.ones((2, 3))))
        assert np.allclose(out.data, 0.0)

    def test_deterministic_with_seeded_rng(self):
        a = Dense(4, 4, rng=np.random.default_rng(3))
        b = Dense(4, 4, rng=np.random.default_rng(3))
        assert np.allclose(a.weight.data, b.weight.data)


class TestConvAndPoolLayers:
    def test_conv_layer_shape(self):
        layer = Conv2D(3, 8, kernel_size=3, padding=1, rng=np.random.default_rng(0))
        assert layer(Tensor(np.zeros((2, 3, 8, 8)))).shape == (2, 8, 8, 8)

    def test_conv_parameter_count(self):
        layer = Conv2D(3, 8, kernel_size=5, rng=np.random.default_rng(0))
        assert layer.num_parameters() == 3 * 8 * 25 + 8

    def test_maxpool_layer_shape(self):
        layer = MaxPool2D(kernel_size=2)
        assert layer(Tensor(np.zeros((1, 4, 8, 8)))).shape == (1, 4, 4, 4)

    def test_flatten_layer(self):
        assert Flatten()(Tensor(np.zeros((2, 3, 4, 4)))).shape == (2, 48)


class TestActivationLayers:
    def test_relu_layer(self):
        assert np.allclose(ReLU()(Tensor(np.array([-2.0, 3.0]))).data, [0.0, 3.0])


class TestInitializers:
    def test_registry_contains_all(self):
        for name in ("zeros", "uniform", "normal", "glorot_uniform", "he_normal"):
            assert name in INITIALIZERS

    def test_get_initializer_unknown_raises(self):
        with pytest.raises(KeyError):
            get_initializer("nope")

    def test_glorot_uniform_bounds(self):
        rng = np.random.default_rng(0)
        values = glorot_uniform((100, 100), rng)
        limit = np.sqrt(6.0 / 200)
        assert np.all(np.abs(values) <= limit)

    def test_he_normal_std_scales_with_fan_in(self):
        rng = np.random.default_rng(0)
        values = he_normal((1000, 10), rng)
        assert values.std() == pytest.approx(np.sqrt(2.0 / 1000), rel=0.15)

    def test_conv_fan_in_computation(self):
        rng = np.random.default_rng(0)
        values = he_normal((8, 3, 5, 5), rng)
        assert values.shape == (8, 3, 5, 5)
