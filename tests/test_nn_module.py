"""Unit tests for Module, Parameter and the flat-vector interface."""

import numpy as np
import pytest

from repro.nn import Dense, MLP, ReLU, Sequential
from repro.nn.module import Module, Parameter
from repro.tensor import Tensor


class TinyModule(Module):
    def __init__(self):
        super().__init__()
        self.weight = Parameter(np.ones((2, 3)))
        self.inner = Dense(3, 2, rng=np.random.default_rng(0))

    def forward(self, x):
        return self.inner(x @ self.weight)


class TestParameterRegistration:
    def test_parameters_discovered_recursively(self):
        module = TinyModule()
        names = [name for name, _ in module.named_parameters()]
        assert names == ["weight", "inner.weight", "inner.bias"]

    def test_num_parameters(self):
        module = TinyModule()
        assert module.num_parameters() == 6 + 3 * 2 + 2

    def test_zero_grad_clears_all(self):
        module = TinyModule()
        out = module(Tensor(np.ones((1, 2))))
        out.sum().backward()
        assert any(p.grad is not None for p in module.parameters())
        module.zero_grad()
        assert all(p.grad is None for p in module.parameters())


class TestFlatVectorInterface:
    def test_flat_roundtrip(self):
        module = TinyModule()
        flat = module.get_flat_parameters()
        module.set_flat_parameters(flat * 2.0)
        assert np.allclose(module.get_flat_parameters(), flat * 2.0)

    def test_flat_length_matches_num_parameters(self):
        module = TinyModule()
        assert module.get_flat_parameters().size == module.num_parameters()

    def test_set_flat_wrong_size_raises(self):
        module = TinyModule()
        with pytest.raises(ValueError):
            module.set_flat_parameters(np.zeros(3))

    def test_flat_gradient_zero_when_no_backward(self):
        module = TinyModule()
        assert np.allclose(module.get_flat_gradient(), 0.0)

    def test_flat_gradient_after_backward_matches_parameters(self):
        module = TinyModule()
        module(Tensor(np.ones((4, 2)))).sum().backward()
        flat_grad = module.get_flat_gradient()
        assert flat_grad.size == module.num_parameters()
        assert np.any(flat_grad != 0.0)

    def test_apply_flat_gradient_is_sgd_step(self):
        module = TinyModule()
        before = module.get_flat_parameters()
        gradient = np.ones_like(before)
        module.apply_flat_gradient(gradient, learning_rate=0.1)
        assert np.allclose(module.get_flat_parameters(), before - 0.1)

    def test_two_models_same_seed_identical_flat_parameters(self):
        a = MLP(4, (8,), 3, seed=5)
        b = MLP(4, (8,), 3, seed=5)
        assert np.allclose(a.get_flat_parameters(), b.get_flat_parameters())

    def test_two_models_different_seed_differ(self):
        a = MLP(4, (8,), 3, seed=5)
        b = MLP(4, (8,), 3, seed=6)
        assert not np.allclose(a.get_flat_parameters(), b.get_flat_parameters())


class TestSequential:
    def test_forward_composes_in_order(self):
        model = Sequential(Dense(2, 4, rng=np.random.default_rng(0)), ReLU(),
                           Dense(4, 3, rng=np.random.default_rng(1)))
        out = model(Tensor(np.ones((5, 2))))
        assert out.shape == (5, 3)

    def test_len_iter_getitem(self):
        layers = [Dense(2, 2), ReLU()]
        model = Sequential(*layers)
        assert len(model) == 2
        assert list(model) == layers
        assert model[1] is layers[1]
