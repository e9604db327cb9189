import numpy as np
import pytest

from molre.losses import (
    FocalLossConfig,
    focal_loss,
    focal_loss_backward,
    prevalence_weights,
)
from molre.tensor import finite_diff_grad, sigmoid


def _bce(p, y, w=0.5):
    p = np.clip(p, 1e-12, 1 - 1e-12)
    return float(np.mean(np.where(y == 1.0, -w * np.log(p), -(1 - w) * np.log(1 - p))))


def test_scalar_reference_value():
    # p=0.5, y=1, gamma=2, a=1: loss = 1 * 0.5^2 * ln 2 = 0.25 ln 2
    cfg = FocalLossConfig(gamma=2.0, class_weights=1.0)
    got = focal_loss(np.array([[0.5]]), np.array([[1.0]]), cfg)
    assert abs(got - 0.25 * np.log(2.0)) < 1e-12


def test_gamma_zero_is_weighted_bce():
    rng = np.random.default_rng(0)
    p = rng.uniform(0.02, 0.98, (16, 7))
    y = (rng.uniform(size=(16, 7)) < 0.4).astype(float)
    cfg = FocalLossConfig(gamma=0.0, class_weights=0.5)
    assert abs(focal_loss(p, y, cfg) - _bce(p, y, 0.5)) < 1e-12


def test_focusing_downweights_easy_examples():
    cfg0 = FocalLossConfig(gamma=0.0, class_weights=0.5)
    cfg2 = FocalLossConfig(gamma=2.0, class_weights=0.5)
    easy = np.array([[0.95]]); y = np.array([[1.0]])
    ratio = focal_loss(easy, y, cfg2) / focal_loss(easy, y, cfg0)
    assert ratio < 0.01  # (1-0.95)^2
    hard = np.array([[0.05]])
    ratio_hard = focal_loss(hard, y, cfg2) / focal_loss(hard, y, cfg0)
    assert ratio_hard > 0.9


def test_per_class_weights_scale_positive_term():
    y = np.array([[1.0, 0.0]])
    p = np.array([[0.3, 0.3]])
    a = np.array([0.9, 0.9])
    cfg = FocalLossConfig(gamma=0.0, class_weights=a)
    # positive column weighted 0.9, negative column 0.1
    want = np.mean([-0.9 * np.log(0.3), -0.1 * np.log(0.7)])
    assert abs(focal_loss(p, y, cfg) - want) < 1e-12


def test_loss_finite_at_extreme_probabilities():
    cfg = FocalLossConfig()
    val = focal_loss(np.array([[0.0, 1.0]]), np.array([[1.0, 0.0]]), cfg)
    assert np.isfinite(val)


def test_shape_mismatch_raises():
    with pytest.raises(ValueError):
        focal_loss(np.zeros((2, 3)), np.zeros((2, 4)), FocalLossConfig())


def test_backward_matches_finite_diff():
    rng = np.random.default_rng(1)
    p = rng.uniform(0.05, 0.95, (6, 5))
    y = (rng.uniform(size=(6, 5)) < 0.5).astype(float)
    cfg = FocalLossConfig(gamma=2.0, class_weights=rng.uniform(0.2, 0.8, 5))
    g = focal_loss_backward(p, y, cfg)
    num = finite_diff_grad(lambda t: focal_loss(t.data, y, cfg), p, eps=1e-6)
    assert np.abs(g - num).max() < 1e-7


def test_backward_through_sigmoid_matches_finite_diff():
    # the composition used by training: logits -> sigmoid -> focal
    rng = np.random.default_rng(2)
    z = rng.normal(size=(4, 6))
    y = (rng.uniform(size=(4, 6)) < 0.5).astype(float)
    cfg = FocalLossConfig(gamma=2.0, class_weights=0.75)
    p = sigmoid(z)
    gz = focal_loss_backward(p, y, cfg) * p * (1 - p)
    num = finite_diff_grad(lambda t: focal_loss(sigmoid(t.data), y, cfg), z)
    assert np.abs(gz - num).max() < 1e-7


def test_backward_zero_in_clamped_region():
    cfg = FocalLossConfig()
    g = focal_loss_backward(
        np.array([[0.0, 1.0, 0.5]]), np.array([[1.0, 0.0, 1.0]]), cfg
    )
    assert g[0, 0] == 0.0 and g[0, 1] == 0.0 and g[0, 2] != 0.0


def test_prevalence_weights_formula_and_clamp():
    y = np.zeros((100, 4))
    y[:60, 0] = 1.0   # prevalence 0.6 -> weight 0.4
    y[:2, 1] = 1.0    # prevalence 0.02 -> clamped to 0.95
    y[:, 2] = 1.0     # prevalence 1.0 -> clamped to 0.05
    w = prevalence_weights(y)
    assert np.allclose(w, [0.4, 0.95, 0.05, 0.95])


def test_prevalence_weights_validates_shape():
    with pytest.raises(ValueError):
        prevalence_weights(np.zeros(5))
    with pytest.raises(ValueError):
        prevalence_weights(np.zeros((0, 3)))


def test_prevalence_weights_accept_uint8():
    y = np.zeros((10, 2), dtype=np.uint8)
    y[:3, 0] = 1
    assert np.allclose(prevalence_weights(y), [0.7, 0.95])
