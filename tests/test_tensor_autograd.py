"""Unit tests for the core autograd engine (repro.tensor.tensor)."""

import numpy as np
import pytest

from repro.tensor import Tensor, gradient_check, no_grad


class TestBasics:
    def test_construction_from_list(self):
        t = Tensor([[1.0, 2.0], [3.0, 4.0]])
        assert t.shape == (2, 2)
        assert t.dtype == np.float64

    def test_requires_grad_default_false(self):
        assert not Tensor(np.ones(3)).requires_grad

    def test_item_on_scalar(self):
        assert Tensor(np.array(3.5)).item() == pytest.approx(3.5)

    def test_len_is_leading_dimension(self):
        assert len(Tensor(np.zeros((5, 2)))) == 5

    def test_detach_shares_data_but_not_graph(self):
        t = Tensor(np.ones(3), requires_grad=True)
        d = t.detach()
        assert not d.requires_grad
        assert d.data is t.data

    def test_copy_is_independent(self):
        t = Tensor(np.ones(3), requires_grad=True)
        c = t.copy()
        c.data[0] = 99.0
        assert t.data[0] == 1.0

    def test_zeros_and_randn_constructors(self):
        assert np.all(Tensor.zeros((2, 3)).data == 0)
        r = Tensor.randn(4, 5, rng=np.random.default_rng(0))
        assert r.shape == (4, 5)


class TestArithmeticBackward:
    def test_add_backward(self):
        x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        y = Tensor(np.array([3.0, 4.0]), requires_grad=True)
        (x + y).sum().backward()
        assert np.allclose(x.grad, [1.0, 1.0])
        assert np.allclose(y.grad, [1.0, 1.0])

    def test_mul_backward(self):
        x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        y = Tensor(np.array([3.0, 4.0]), requires_grad=True)
        (x * y).sum().backward()
        assert np.allclose(x.grad, [3.0, 4.0])
        assert np.allclose(y.grad, [1.0, 2.0])

    def test_sub_and_neg_backward(self):
        x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        y = Tensor(np.array([5.0, 5.0]), requires_grad=True)
        (x - y).sum().backward()
        assert np.allclose(x.grad, [1.0, 1.0])
        assert np.allclose(y.grad, [-1.0, -1.0])

    def test_div_backward(self):
        x = Tensor(np.array([4.0]), requires_grad=True)
        y = Tensor(np.array([2.0]), requires_grad=True)
        (x / y).backward(np.array([1.0]))
        assert np.allclose(x.grad, [0.5])
        assert np.allclose(y.grad, [-1.0])

    def test_pow_backward(self):
        x = Tensor(np.array([3.0]), requires_grad=True)
        (x ** 2).backward(np.array([1.0]))
        assert np.allclose(x.grad, [6.0])

    def test_scalar_broadcasting_backward(self):
        x = Tensor(np.ones((2, 3)), requires_grad=True)
        (x * 2.0 + 1.0).sum().backward()
        assert np.allclose(x.grad, 2.0 * np.ones((2, 3)))

    def test_broadcast_add_unbroadcasts_gradient(self):
        x = Tensor(np.ones((4, 3)), requires_grad=True)
        b = Tensor(np.zeros(3), requires_grad=True)
        (x + b).sum().backward()
        assert b.grad.shape == (3,)
        assert np.allclose(b.grad, [4.0, 4.0, 4.0])

    def test_matmul_backward_matches_numeric(self):
        rng = np.random.default_rng(0)
        a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
        assert gradient_check(lambda x, y: x @ y, [a, b])

    def test_gradient_accumulates_across_uses(self):
        x = Tensor(np.array([2.0]), requires_grad=True)
        y = x * 3.0 + x * 4.0
        y.backward(np.array([1.0]))
        assert np.allclose(x.grad, [7.0])

    def test_rsub_and_rtruediv(self):
        x = Tensor(np.array([2.0]), requires_grad=True)
        (10.0 - x).backward(np.array([1.0]))
        assert np.allclose(x.grad, [-1.0])
        x.zero_grad()
        (8.0 / x).backward(np.array([1.0]))
        assert np.allclose(x.grad, [-2.0])

    def test_pow_rejects_tensor_exponent(self):
        x = Tensor(np.array([2.0]), requires_grad=True)
        with pytest.raises(TypeError):
            _ = x ** Tensor(np.array([2.0]))


class TestReductionsAndShapes:
    def test_sum_axis_backward(self):
        x = Tensor(np.ones((2, 3)), requires_grad=True)
        x.sum(axis=1).sum().backward()
        assert np.allclose(x.grad, np.ones((2, 3)))

    def test_mean_backward(self):
        x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        x.mean().backward()
        assert np.allclose(x.grad, np.full((2, 3), 1.0 / 6.0))

    def test_mean_with_axis(self):
        x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        out = x.mean(axis=0)
        assert np.allclose(out.data, [1.5, 2.5, 3.5])

    def test_max_backward_routes_to_argmax(self):
        x = Tensor(np.array([[1.0, 5.0, 2.0]]), requires_grad=True)
        x.max(axis=1).sum().backward()
        assert np.allclose(x.grad, [[0.0, 1.0, 0.0]])

    def test_max_with_ties_splits_gradient(self):
        x = Tensor(np.array([[3.0, 3.0]]), requires_grad=True)
        x.max(axis=1).sum().backward()
        assert np.allclose(x.grad.sum(), 1.0)

    def test_reshape_backward(self):
        x = Tensor(np.arange(6.0), requires_grad=True)
        x.reshape(2, 3).sum().backward()
        assert x.grad.shape == (6,)

    def test_transpose_backward(self):
        x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        x.T.sum().backward()
        assert x.grad.shape == (2, 3)

    def test_getitem_backward(self):
        x = Tensor(np.arange(5.0), requires_grad=True)
        x[1:3].sum().backward()
        assert np.allclose(x.grad, [0.0, 1.0, 1.0, 0.0, 0.0])

    def test_stack_backward(self):
        a = Tensor(np.ones(3), requires_grad=True)
        b = Tensor(np.ones(3), requires_grad=True)
        Tensor.stack([a, b]).sum().backward()
        assert np.allclose(a.grad, np.ones(3))


class TestElementwiseOps:
    @pytest.mark.parametrize("op", ["relu", "exp"])
    def test_elementwise_gradcheck(self, op):
        rng = np.random.default_rng(3)
        x = Tensor(rng.normal(size=(4, 3)) + 0.1, requires_grad=True)
        assert gradient_check(lambda t: getattr(t, op)(), [x])

    def test_log_gradcheck_positive_inputs(self):
        rng = np.random.default_rng(3)
        x = Tensor(rng.uniform(0.5, 2.0, size=(4, 3)), requires_grad=True)
        assert gradient_check(lambda t: t.log(), [x])

    def test_relu_zero_at_negative(self):
        x = Tensor(np.array([-1.0, 2.0]))
        assert np.allclose(x.relu().data, [0.0, 2.0])


class TestAutogradMachinery:
    def test_backward_on_non_scalar_requires_grad_argument(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(RuntimeError):
            (x * 2).backward()

    def test_backward_without_requires_grad_raises(self):
        x = Tensor(np.ones(3))
        with pytest.raises(RuntimeError):
            x.backward(np.ones(3))

    def test_no_grad_context_disables_graph(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with no_grad():
            y = (x * 2).sum()
        assert not y.requires_grad

    def test_no_grad_restores_state_after_exception(self):
        x = Tensor(np.ones(1), requires_grad=True)
        with pytest.raises(ValueError):
            with no_grad():
                raise ValueError("boom")
        y = (x * 2).sum()
        assert y.requires_grad

    def test_deep_chain_backward(self):
        x = Tensor(np.array([1.0]), requires_grad=True)
        y = x
        for _ in range(200):
            y = y * 1.01
        y.backward(np.array([1.0]))
        assert x.grad[0] == pytest.approx(1.01 ** 200, rel=1e-9)

    def test_diamond_graph_gradient(self):
        x = Tensor(np.array([2.0]), requires_grad=True)
        a = x * 3.0
        b = x * 5.0
        (a + b).backward(np.array([1.0]))
        assert np.allclose(x.grad, [8.0])
