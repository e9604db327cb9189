import numpy as np
import pytest

from molre.losses import (
    FocalLossConfig,
    focal_loss,
    focal_loss_backward,
    prevalence_weights,
)
from molre.tensor import finite_diff_grad, sigmoid


def _logit(p):
    return np.log(p) - np.log1p(-p)


def _bce(p, y, w=0.5):
    return float(np.mean(np.where(y == 1.0, -w * np.log(p), -(1 - w) * np.log(1 - p))))


def _focal_in_probs(p, y, gamma, a):
    """The loss and its gradient in p, written from the probability-space
    formulas: the reference the logit-space functions are checked against
    away from saturation."""
    pos = a * (1 - p) ** gamma * -np.log(p)
    neg = (1 - a) * p ** gamma * -np.log(1 - p)
    dpos = a * (gamma * (1 - p) ** (gamma - 1) * np.log(p) - (1 - p) ** gamma / p)
    dneg = (1 - a) * (p ** gamma / (1 - p) - gamma * p ** (gamma - 1) * np.log(1 - p))
    return np.mean(np.where(y == 1.0, pos, neg)), np.where(y == 1.0, dpos, dneg) / p.size


def test_scalar_reference_value():
    # z=0 (p=0.5), y=1, gamma=2, a=1: loss = 1 * 0.5^2 * ln 2 = 0.25 ln 2
    cfg = FocalLossConfig(gamma=2.0, class_weights=1.0)
    got = focal_loss(np.array([[0.0]]), np.array([[1.0]]), cfg)
    assert abs(got - 0.25 * np.log(2.0)) < 1e-12


def test_gamma_zero_is_weighted_bce():
    rng = np.random.default_rng(0)
    p = rng.uniform(0.02, 0.98, (16, 7))
    y = (rng.uniform(size=(16, 7)) < 0.4).astype(float)
    cfg = FocalLossConfig(gamma=0.0, class_weights=0.5)
    assert abs(focal_loss(_logit(p), y, cfg) - _bce(p, y, 0.5)) < 1e-12


def test_focusing_downweights_easy_examples():
    cfg0 = FocalLossConfig(gamma=0.0, class_weights=0.5)
    cfg2 = FocalLossConfig(gamma=2.0, class_weights=0.5)
    easy = _logit(np.array([[0.95]])); y = np.array([[1.0]])
    ratio = focal_loss(easy, y, cfg2) / focal_loss(easy, y, cfg0)
    assert ratio < 0.01  # (1-0.95)^2
    hard = _logit(np.array([[0.05]]))
    ratio_hard = focal_loss(hard, y, cfg2) / focal_loss(hard, y, cfg0)
    assert ratio_hard > 0.9


def test_per_class_weights_scale_positive_term():
    y = np.array([[1.0, 0.0]])
    z = _logit(np.array([[0.3, 0.3]]))
    a = np.array([0.9, 0.9])
    cfg = FocalLossConfig(gamma=0.0, class_weights=a)
    # positive column weighted 0.9, negative column 0.1
    want = np.mean([-0.9 * np.log(0.3), -0.1 * np.log(0.7)])
    assert abs(focal_loss(z, y, cfg) - want) < 1e-12


def test_loss_finite_at_extreme_probabilities():
    # logits whose sigmoid rounds to exactly 0 or 1, every one on the wrong
    # side: -ln p = -z for z << 0, so each term is a * |z|
    cfg = FocalLossConfig()
    z = np.array([[-1e4, 1e4, -800.0, 800.0]])
    y = np.array([[1.0, 0.0, 1.0, 0.0]])
    assert abs(focal_loss(z, y, cfg) - 0.5 * np.mean(np.abs(z))) < 1e-9
    assert np.array_equal(focal_loss_backward(z, y, cfg), [[-0.125, 0.125, -0.125, 0.125]])


def test_shape_mismatch_raises():
    with pytest.raises(ValueError):
        focal_loss(np.zeros((2, 3)), np.zeros((2, 4)), FocalLossConfig())
    with pytest.raises(ValueError):
        focal_loss_backward(np.zeros((2, 3)), np.zeros((2, 4)), FocalLossConfig())


def test_backward_matches_finite_diff():
    rng = np.random.default_rng(1)
    z = _logit(rng.uniform(0.05, 0.95, (6, 5)))
    y = (rng.uniform(size=(6, 5)) < 0.5).astype(float)
    cfg = FocalLossConfig(gamma=2.0, class_weights=rng.uniform(0.2, 0.8, 5))
    g = focal_loss_backward(z, y, cfg)
    num = finite_diff_grad(lambda t: focal_loss(t.data, y, cfg), z, eps=1e-6)
    assert np.abs(g - num).max() < 1e-7


def test_backward_through_sigmoid_matches_finite_diff():
    # the logit-space loss and gradient against the probability-space
    # formulas composed with the sigmoid: d/dz = d/dp * p (1 - p)
    rng = np.random.default_rng(2)
    z = rng.normal(0.0, 3.0, size=(50, 6))
    y = (rng.uniform(size=(50, 6)) < 0.5).astype(float)
    a = rng.uniform(0.05, 0.95, 6)
    cfg = FocalLossConfig(gamma=2.0, class_weights=a)
    p = sigmoid(z)
    want_loss, want_gp = _focal_in_probs(p, y, 2.0, a)
    assert abs(focal_loss(z, y, cfg) - want_loss) < 1e-13
    gz = focal_loss_backward(z, y, cfg)
    assert np.abs(gz - want_gp * p * (1 - p)).max() < 1e-15
    num = finite_diff_grad(lambda t: _focal_in_probs(sigmoid(t.data), y, 2.0, a)[0], z)
    assert np.abs(gz - num).max() < 1e-7


@pytest.mark.parametrize("y", [0.0, 1.0])
@pytest.mark.parametrize("z", [-40.0, -28.0, 28.0, 40.0])
def test_backward_at_saturated_logits_matches_finite_diff(z, y):
    # at |z| >= 28 the sigmoid is within 7e-13 of 0 or 1; nothing is
    # clamped, so a wrong-side logit keeps the full gradient -a (label 1)
    # or 1 - a (label 0)
    cfg = FocalLossConfig(gamma=2.0, class_weights=0.5)
    zz, yy = np.array([[z]]), np.array([[y]])
    g = focal_loss_backward(zz, yy, cfg)[0, 0]
    num = finite_diff_grad(lambda t: focal_loss(t.data, yy, cfg), zz)[0, 0]
    assert abs(g - num) < 1e-7
    if (z < 0) == (y == 1.0):
        assert abs(g - (0.5 if y == 0.0 else -0.5)) < 1e-10


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
