import numpy as np
import pytest

from molre.model import SliceModel, VolumeModel
from molre.pipeline import (
    AttentionPooler,
    ClassifierHead,
    SliceBackbone,
    VolumeBackbone,
    _conv2d_relu,
    _conv3d_relu,
    _rownorm,
    slices_of,
)
from molre.rng import RngStream
from molre.tensor import ShapeError, finite_diff_grad, sigmoid


def _naive_conv2d(x, w, b):
    n, ci, h, wd = x.shape
    co = w.shape[0]
    xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
    ho, wo = (h + 1) // 2, (wd + 1) // 2
    out = np.zeros((n, co, ho, wo))
    for i in range(ho):
        for j in range(wo):
            patch = xp[:, :, 2 * i:2 * i + 3, 2 * j:2 * j + 3]
            out[:, :, i, j] = np.einsum("ncij,ocij->no", patch, w) + b
    return np.maximum(out, 0.0)


def test_conv2d_matches_naive_loop():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(2, 3, 6, 7))
    w = rng.normal(size=(4, 3, 3, 3))
    b = rng.normal(size=4)
    assert np.allclose(_conv2d_relu(x, w, b), _naive_conv2d(x, w, b), atol=1e-12)


def test_conv3d_matches_naive_loop():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(1, 2, 4, 5, 6))
    w = rng.normal(size=(3, 2, 3, 3, 3))
    b = rng.normal(size=3)
    xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1), (1, 1)))
    so, ho, wo = 2, 3, 3
    want = np.zeros((1, 3, so, ho, wo))
    for s in range(so):
        for i in range(ho):
            for j in range(wo):
                patch = xp[:, :, 2 * s:2 * s + 3, 2 * i:2 * i + 3, 2 * j:2 * j + 3]
                want[:, :, s, i, j] = np.einsum("ncsij,ocsij->no", patch, w) + b
    want = np.maximum(want, 0.0)
    assert np.allclose(_conv3d_relu(x, w, b), want, atol=1e-12)


def test_rownorm_standardizes_rows():
    z = np.random.default_rng(2).normal(3.0, 10.0, (5, 64))
    out = _rownorm(z)
    assert np.abs(out.mean(axis=1)).max() < 1e-12
    assert np.abs(out.std(axis=1) - 1.0).max() < 1e-5


# -- frozen backbones ---------------------------------------------------------


def test_slice_backbone_shapes_and_determinism():
    stub = SliceBackbone(feature_dim=32)
    x = np.random.default_rng(3).uniform(0, 1, (4, 3, 64, 64))
    z = stub.trunk(x)
    assert z.shape == (4, 64)
    f = stub.project(z)
    assert f.shape == (4, 32)
    again = SliceBackbone(feature_dim=32)
    assert np.array_equal(again.trunk(x), z)
    other = SliceBackbone(feature_dim=32, seed=99)
    assert not np.array_equal(other.trunk(x), z)


def test_slice_backbone_rejects_bad_input():
    stub = SliceBackbone()
    with pytest.raises(ShapeError):
        stub.trunk(np.zeros((2, 1, 8, 8)))
    with pytest.raises(ShapeError):
        stub.trunk(np.zeros((2, 8, 8)))


def test_volume_backbone_shapes():
    stub = VolumeBackbone(feature_dim=32)
    x = np.random.default_rng(4).uniform(0, 1, (2, 3, 16, 32, 32))
    z = stub.trunk(x)
    assert z.shape == (2, 64)
    assert stub.project(z).shape == (2, 32)
    with pytest.raises(ShapeError):
        stub.trunk(np.zeros((2, 3, 8, 8)))


def test_backbones_have_no_grad_buffers():
    for stub in (SliceBackbone(), VolumeBackbone()):
        frozen = stub.frozen_parameters()
        assert "backbone.proj.w" in frozen
        assert all(t.grad is None for t in frozen.values())


def test_projection_formula():
    stub = SliceBackbone(feature_dim=8)
    z = np.random.default_rng(5).normal(size=(3, 64))
    assert np.array_equal(stub.project(z), z @ stub.proj_w.data.T + stub.proj_b.data)


# -- pooler ---------------------------------------------------------------


def test_pooler_zero_query_is_exact_mean():
    p = AttentionPooler(6)
    p.init(RngStream(0))
    f = np.random.default_rng(6).normal(size=(3, 5, 6))
    h = p.forward_cached(f)[0]
    assert np.allclose(h, f.mean(axis=1), atol=1e-15)


def test_pooler_weights_follow_query_alignment():
    p = AttentionPooler(2)
    p.q.data[...] = [10.0, 0.0]
    f = np.zeros((1, 3, 2))
    f[0, 1, 0] = 5.0  # slice 1 aligns with the query
    h, cache = p.forward_cached(f)
    assert cache["alpha"][0].argmax() == 1
    assert abs(cache["alpha"][0].sum() - 1.0) < 1e-12


def test_pooler_backward_matches_finite_diff():
    p = AttentionPooler(4)
    p.q.data[...] = np.random.default_rng(7).normal(size=4) * 0.5
    f = np.random.default_rng(8).normal(size=(2, 3, 4))
    g = np.random.default_rng(9).normal(size=(2, 4))

    p.q.zero_grad()
    h, cache = p.forward_cached(f)
    gf = p.backward(cache, g)

    def loss_q(t):
        saved = p.q.data.copy()
        p.q.data[...] = t.data
        val = float((g * p.forward_cached(f)[0]).sum())
        p.q.data[...] = saved
        return val

    nq = finite_diff_grad(loss_q, p.q.data.copy())
    nf = finite_diff_grad(lambda t: float((g * p.forward_cached(t.data.reshape(2, 3, 4))[0]).sum()),
                          f.ravel()).reshape(2, 3, 4)
    assert np.allclose(p.q.grad, nq, atol=1e-7)
    assert np.allclose(gf, nf, atol=1e-7)


def test_pooler_shape_validation():
    p = AttentionPooler(4)
    with pytest.raises(ShapeError):
        p.forward_cached(np.zeros((2, 3, 5)))
    with pytest.raises(ShapeError):
        p.forward_cached(np.zeros((2, 0, 4)))


# -- head ------------------------------------------------------------------


def test_head_zero_init_gives_half_probs():
    head = ClassifierHead(8, 3)
    head.init(RngStream(1))
    probs = head.forward_cached(np.random.default_rng(10).normal(size=(4, 8)))[0]
    assert np.all(probs == 0.5)


def test_head_matches_sigmoid_formula():
    head = ClassifierHead(4, 2)
    head.w.data[...] = np.random.default_rng(11).normal(size=(2, 4))
    head.b.data[...] = [0.3, -0.2]
    h = np.random.default_rng(12).normal(size=(3, 4))
    want = sigmoid(h @ head.w.data.T + head.b.data)
    assert np.array_equal(head.forward_cached(h)[0], want)


def test_head_backward_matches_finite_diff():
    head = ClassifierHead(5, 3)
    head.w.data[...] = np.random.default_rng(13).normal(size=(3, 5)) * 0.3
    h = np.random.default_rng(14).normal(size=(4, 5))
    g = np.random.default_rng(15).normal(size=(4, 3))

    head.w.zero_grad(); head.b.zero_grad()
    probs, cache = head.forward_cached(h)
    gh = head.backward(cache, g)

    def loss_w(t):
        saved = head.w.data.copy()
        head.w.data[...] = t.data
        val = float((g * head.forward_cached(h)[0]).sum())
        head.w.data[...] = saved
        return val

    nw = finite_diff_grad(loss_w, head.w.data.copy())
    nh = finite_diff_grad(lambda t: float((g * head.forward_cached(t.data.reshape(4, 5))[0]).sum()),
                          h.ravel()).reshape(4, 5)
    assert np.allclose(head.w.grad, nw, atol=1e-7)
    assert np.allclose(gh, nh, atol=1e-7)


# -- compositions -------------------------------------------------------------


def test_slices_of_layout():
    x = np.arange(2 * 3 * 4 * 2 * 2, dtype=float).reshape(2, 3, 4, 2, 2)
    flat = slices_of(x)
    assert flat.shape == (8, 3, 2, 2)
    # row b*S + s carries slice s of volume b, channels intact
    assert np.array_equal(flat[5], x[1, :, 1])


def test_extract_slice_features_matches_manual():
    # the slice model's per-slice features: the projected trunk, plus the
    # adapter's update in lora mode
    x = np.random.default_rng(16).uniform(0, 1, (2, 3, 4, 16, 16))
    base = SliceModel(mode="baseline-frozen", feature_dim=8)
    z = base.stub.trunk(slices_of(x))
    _, cache = base.forward_trunk_cached(z.reshape(2, 4, -1))
    assert np.array_equal(cache["pool"]["f"].reshape(8, -1), base.stub.project(z))
    lora = SliceModel(mode="lora", feature_dim=8, rank=2)
    lora.init_params(RngStream(2))
    lora.lora.B.data[...] = np.random.default_rng(17).normal(size=(8, 2))
    _, cache = lora.forward_trunk_cached(z.reshape(2, 4, -1))
    f2 = cache["pool"]["f"].reshape(8, -1)
    assert np.allclose(f2, lora.stub.project(z) + lora.lora.delta(z), atol=1e-15)


def _models_2d(seed, **kw):
    """A molre and a baseline-frozen slice model with one stub and equal
    head and pooler."""
    mix = SliceModel(mode="molre", feature_dim=8, num_classes=5,
                     num_experts=3, rank=2, router_hidden=5, **kw)
    base = SliceModel(mode="baseline-frozen", feature_dim=8, num_classes=5, **kw)
    mix.init_params(RngStream(seed))
    base.init_params(RngStream(seed))
    base.stub = mix.stub
    return mix, base


def test_forward_2d_transparent_at_init():
    mix, base = _models_2d(4)
    x = np.random.default_rng(18).uniform(0, 1, (2, 3, 4, 16, 16))
    assert np.array_equal(mix.forward(x), base.forward(x))


def test_forward_2d_diverges_once_experts_move():
    mix, base = _models_2d(5)
    w = np.random.default_rng(21).normal(size=(5, 8))
    mix.head.w.data[...] = w
    base.head.w.data[...] = w
    mix.molre.bank.B.data[:, :mix.molre.bank.rank] = 0.5  # expert 0's columns
    x = np.random.default_rng(19).uniform(0, 1, (2, 3, 4, 16, 16))
    assert not np.array_equal(mix.forward(x), base.forward(x))


def test_forward_3d_transparent_at_init():
    m = VolumeModel(feature_dim=8, num_classes=5, num_experts=3, rank=2, router_hidden=5)
    m.init_params(RngStream(7))
    x = np.random.default_rng(20).uniform(0, 1, (2, 3, 16, 16, 16))
    with_mix = m.forward(x)
    without = m.head.forward_cached(m.stub.project(m.stub.trunk(x)))[0]
    assert np.array_equal(with_mix, without)
    assert with_mix.shape == (2, 5)
