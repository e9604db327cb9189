import numpy as np
import pytest

from molre.tensor import (
    Tensor,
    finite_diff_grad,
    sigmoid,
    softmax,
    softmax_backward,
)


def test_tensor_wraps_float64_contiguous():
    t = Tensor([[1, 2], [3, 4]])
    assert t.data.dtype == np.float64
    assert t.data.flags["C_CONTIGUOUS"]
    assert t.shape == (2, 2)
    assert t.size == 4
    assert t.grad is None


def test_grad_buffer_lifecycle():
    t = Tensor(np.ones(3), requires_grad=True)
    assert np.array_equal(t.grad, np.zeros(3))
    t.grad += np.array([1.0, 2.0, 3.0])
    t.grad += np.array([1.0, 0.0, -1.0])
    assert np.array_equal(t.grad, [2.0, 2.0, 2.0])
    t.zero_grad()
    assert np.array_equal(t.grad, np.zeros(3))


def test_softmax_known_values():
    # two equal logits split evenly; a large gap saturates
    assert np.allclose(softmax([0.0, 0.0]), [0.5, 0.5])
    out = softmax([100.0, 0.0])
    assert out[0] >= 1.0 - 1e-15 and out[1] < 1e-40
    row = softmax(np.arange(12.0).reshape(3, 4), axis=1)
    assert np.allclose(row.sum(axis=1), 1.0)


def test_softmax_overflow_safe():
    out = softmax([1000.0, 999.0])
    assert np.isfinite(out).all()
    assert abs(out.sum() - 1.0) < 1e-15


def test_softmax_backward_matches_finite_diff():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(5, 7))
    g = rng.normal(size=(5, 7))
    y = softmax(x, axis=1)
    gx = softmax_backward(g, y, axis=1)
    num = finite_diff_grad(lambda t: float((g * softmax(t.data, axis=1)).sum()), x)
    assert np.allclose(gx, num, atol=1e-7)


def test_sigmoid_known_values_and_symmetry():
    assert sigmoid(0.0) == 0.5
    assert abs(sigmoid(np.log(3.0)) - 0.75) < 1e-15
    x = np.linspace(-30, 30, 101)
    s = sigmoid(x)
    assert np.allclose(s + sigmoid(-x), 1.0, atol=1e-15)
    # extreme logits stay finite and inside [0, 1]
    ext = sigmoid(np.array([-1e4, 1e4]))
    assert ext[0] == 0.0 and ext[1] == 1.0


def test_finite_diff_grad_on_quadratic_is_exact_to_roundoff():
    # d/dx sum(x^2) = 2x
    x = np.array([1.0, -2.0, 0.5])
    g = finite_diff_grad(lambda t: float((t.data**2).sum()), x, eps=1e-5)
    assert np.allclose(g, 2 * x, atol=1e-9)


def test_finite_diff_grad_rejects_bad_eps():
    with pytest.raises(ValueError):
        finite_diff_grad(lambda t: 0.0, np.zeros(2), eps=0.0)
