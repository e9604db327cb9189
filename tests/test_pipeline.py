import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import molre.parallel
import molre.pipeline
from molre.config import RunConfig
from molre.model import SliceModel, VolumeModel
from numpy.lib.stride_tricks import sliding_window_view

from molre.pipeline import (
    _BLOCK_BYTES,
    AttentionPooler,
    ClassifierHead,
    SliceBackbone,
    VolumeBackbone,
    _conv2d_relu,
    _conv3d_relu,
    _conv_relu,
    _rownorm,
    slices_of,
)
from molre.parallel import one_blas_thread
from molre.preprocess import DEFAULT_WINDOWS
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


# -- the channels-first conv against the im2col convs it replaced ---------------


def _im2col_conv2d(x, w, b):
    xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
    win = sliding_window_view(xp, (3, 3), axis=(2, 3))[:, :, ::2, ::2]
    n, ci, ho, wo = win.shape[:4]
    cols = win.transpose(0, 2, 3, 1, 4, 5).reshape(n * ho * wo, ci * 9)
    out = cols @ w.reshape(w.shape[0], -1).T + b
    np.maximum(out, 0.0, out=out)
    return out.reshape(n, ho, wo, w.shape[0]).transpose(0, 3, 1, 2)


def _im2col_conv3d(x, w, b):
    xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1), (1, 1)))
    win = sliding_window_view(xp, (3, 3, 3), axis=(2, 3, 4))[:, :, ::2, ::2, ::2]
    n, ci, so, ho, wo = win.shape[:5]
    cols = win.transpose(0, 2, 3, 4, 1, 5, 6, 7).reshape(n * so * ho * wo, ci * 27)
    out = cols @ w.reshape(w.shape[0], -1).T + b
    np.maximum(out, 0.0, out=out)
    return out.reshape(n, so, ho, wo, w.shape[0]).transpose(0, 4, 1, 2, 3)


def _layers(stub, x, conv):
    """Every conv layer's output, then the pooled, standardized features, at
    one BLAS thread as the trunks run."""
    out = [x]
    with one_blas_thread():
        for w, b in zip(stub.conv_w, stub.conv_b):
            out.append(conv(out[-1], w.data, b.data))
    h = out[-1]
    return out[1:], _rownorm(h.mean(axis=tuple(range(2, h.ndim))))


# one windowed study (M, S, H, W) as each trunk takes it
_AS_TRUNK_INPUT = {SliceBackbone: lambda v: v.swapaxes(0, 1), VolumeBackbone: lambda v: v[None]}
_IM2COL = {SliceBackbone: _im2col_conv2d, VolumeBackbone: _im2col_conv3d}


@pytest.mark.parametrize("backbone", [SliceBackbone, VolumeBackbone])
def test_conv_is_bitwise_im2col_at_the_default_sizes(backbone):
    # one 32x64x64 study through the default stub, channels 16/32/64
    stub = backbone()
    x = _AS_TRUNK_INPUT[backbone](np.random.default_rng(30).uniform(0, 1, (3, 32, 64, 64)))
    want, want_feats = _layers(stub, x, _IM2COL[backbone])
    got, _ = _layers(stub, x, _conv_relu)
    for g, w in zip(got, want):
        assert g.shape == w.shape and np.array_equal(g, w)
    assert np.array_equal(stub.trunk(x), want_feats)


def _assert_close(got, want):
    # OpenBLAS sums small products in an order that depends on which operand
    # is which, so the last bit may move at these sizes
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("backbone, shape", [
    (SliceBackbone, (3, 7, 9, 17)),
    # two blocks: at 9x17, conv0's column matrix is the largest, 3 channels
    # x 9 taps x 5x9 outputs of 8 bytes per slice
    (SliceBackbone, (3, _BLOCK_BYTES // (8 * 3 * 9 * 5 * 9) + 13, 9, 17)),
    (VolumeBackbone, (3, 7, 9, 17)),
])
def test_conv_matches_im2col_at_odd_sizes(backbone, shape):
    stub = backbone(channels=(5, 7, 11))
    x = _AS_TRUNK_INPUT[backbone](np.random.default_rng(31).uniform(0, 1, shape))
    want, want_feats = _layers(stub, x, _IM2COL[backbone])
    got, _ = _layers(stub, x, _conv_relu)
    for g, w in zip(got, want):
        _assert_close(g, w)
    _assert_close(stub.trunk(x), want_feats)


def _arena_buffers(stub):
    # padded inputs, column matrices and GEMM outputs; the strided views
    # are views of the padded inputs
    return [a for xp, cols, _, y in stub._arena.values() for a in (xp, cols, y)]


@pytest.mark.parametrize("model", [SliceModel, VolumeModel])
def test_trunk_outputs_do_not_alias_the_arena(model):
    m = model(RunConfig(mode=model.modes[0]))
    rng = np.random.default_rng(37)
    vol, other = rng.uniform(0, 1, (2, 3, 32, 64, 64))
    x = m.stub.trunk(_AS_TRUNK_INPUT[type(m.stub)](vol))
    z = m.trunk_features(vol)
    y = m.forward(vol[None])
    got = [a.copy() for a in (x, z, y)]
    m.stub.trunk(_AS_TRUNK_INPUT[type(m.stub)](other))
    for a, g in zip((x, z, y), got):
        assert np.array_equal(a, g)
        assert not any(np.shares_memory(a, buf) for buf in _arena_buffers(m.stub))


def _arena_keys(backbone, x):
    stub = backbone()
    stub.trunk(x)
    return list(stub._arena)


@pytest.mark.parametrize("backbone", [SliceBackbone, VolumeBackbone])
def test_the_arena_holds_the_last_input_shape_only(backbone):
    stub = backbone()
    rng = np.random.default_rng(38)
    x = _AS_TRUNK_INPUT[backbone](rng.uniform(0, 1, (3, 32, 64, 64)))
    odd = _AS_TRUNK_INPUT[backbone](rng.uniform(0, 1, (3, 7, 9, 17)))
    first = stub.trunk(x)
    stub.trunk(odd)
    assert list(stub._arena) == _arena_keys(backbone, odd)
    assert np.array_equal(stub.trunk(x), first)
    # 2D: three convs over blocks of 7 slices and the last 4; 3D: one volume
    assert list(stub._arena) == _arena_keys(backbone, x)
    assert len(stub._arena) == (6 if backbone is SliceBackbone else 3)


def test_conv_without_an_arena_returns_a_new_array():
    rng = np.random.default_rng(39)
    x = rng.normal(size=(2, 3, 6, 7))
    w = rng.normal(size=(4, 3, 3, 3))
    b = rng.normal(size=4)
    first, second = _conv_relu(x, w, b), _conv_relu(x, w, b)
    assert np.array_equal(first, second) and not np.shares_memory(first, second)
    arena = {}
    kept = _conv_relu(x, w, b, arena)
    assert np.array_equal(kept, first)
    assert np.shares_memory(_conv_relu(x, w, b, arena), kept)  # reused


@pytest.fixture
def conv_blocks(monkeypatch):
    """The number of inputs in each block the trunks run, from their first
    conv's calls."""
    blocks = []

    def counted(x, w, b, arena=None):
        if x.shape[1] == len(DEFAULT_WINDOWS):
            blocks.append(x.shape[0])
        return _conv_relu(x, w, b, arena)

    monkeypatch.setattr(molre.pipeline, "_conv2d_relu", counted)
    monkeypatch.setattr(molre.pipeline, "_conv3d_relu", counted)
    return blocks


@pytest.mark.parametrize("budget, blocks", [
    (1, [1] * 32),  # below one slice's column matrix: one slice a block
    # conv1's column matrix is the largest, 16 channels x 9 taps x 16x16
    # outputs of 8 bytes, 288 KiB a slice
    (_BLOCK_BYTES, [7, 7, 7, 7, 4]),
    (32 * 8 * 16 * 9 * 16 * 16, [32]),  # the whole study
])
def test_2d_trunk_is_bitwise_equal_over_any_block(monkeypatch, conv_blocks, budget, blocks):
    stub = SliceBackbone()
    x = np.random.default_rng(32).uniform(0, 1, (3, 32, 64, 64)).swapaxes(0, 1)
    want = stub.trunk(x)
    del conv_blocks[:]
    monkeypatch.setattr(molre.pipeline, "_BLOCK_BYTES", budget)
    assert np.array_equal(stub.trunk(x), want)
    assert conv_blocks == blocks


@pytest.mark.parametrize("budget", [_BLOCK_BYTES, 1 << 40])
def test_3d_batch_is_bitwise_equal_to_each_volume(monkeypatch, conv_blocks, budget):
    # one 32x64x64 volume's conv0 column matrix already exceeds the budget,
    # so the default runs one volume a block; 1 << 40 runs the batch as one
    model = VolumeModel(RunConfig(mode="molre3d"))
    vols = np.random.default_rng(33).uniform(0, 1, (3, 3, 32, 64, 64))
    want = np.stack([model.trunk_features(v) for v in vols])
    del conv_blocks[:]
    monkeypatch.setattr(molre.pipeline, "_BLOCK_BYTES", budget)
    assert np.array_equal(model.stub.trunk(vols), want)
    assert conv_blocks == ([1, 1, 1] if budget == _BLOCK_BYTES else [3])


def _trunk_under_one_blas_thread(tmp_path, model, x):
    """`model().trunk_features(x)` in one child process under
    OPENBLAS_NUM_THREADS=1."""
    np.save(tmp_path / "x.npy", x)
    script = (
        "import sys, numpy as np\n"
        "from molre.config import RunConfig\n"
        f"from molre.model import {model.__name__}\n"
        "x = np.load(sys.argv[1])\n"
        f"cfg = RunConfig(mode={model.modes[0]!r})\n"
        f"np.save(sys.argv[2], {model.__name__}(cfg).trunk_features(x))\n"
    )
    src = str(Path(molre.pipeline.__file__).resolve().parents[1])
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path / "x.npy"), str(tmp_path / "z.npy")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return np.load(tmp_path / "z.npy")


# against this process's default thread count
def test_2d_trunk_is_bitwise_equal_under_one_blas_thread(tmp_path):
    x = np.random.default_rng(34).uniform(0, 1, (3, 32, 64, 64))
    assert np.array_equal(_trunk_under_one_blas_thread(tmp_path, SliceModel, x),
                          SliceModel(RunConfig()).trunk_features(x))


def test_3d_trunk_is_bitwise_equal_under_one_blas_thread(tmp_path):
    # the 3D convs' sums move in the last bit with the thread count; the
    # trunk pins its own
    x = np.random.default_rng(35).uniform(0, 1, (3, 32, 64, 64))
    assert np.array_equal(_trunk_under_one_blas_thread(tmp_path, VolumeModel, x),
                          VolumeModel(RunConfig(mode="molre3d")).trunk_features(x))


def test_one_blas_thread_restores_the_callers_count(monkeypatch):
    threads = [4]
    monkeypatch.setattr(molre.parallel, "_BLAS", (lambda n: threads.append(n), lambda: threads[-1]))
    with one_blas_thread():
        assert threads == [4, 1]
    assert threads == [4, 1, 4]
    with pytest.raises(ShapeError), one_blas_thread():
        SliceBackbone().trunk(np.zeros((1, 2, 8, 8)))
    assert threads[-1] == 4
    for stub, x in ((SliceBackbone(), np.zeros((2, 3, 8, 8))),
                    (VolumeBackbone(), np.zeros((1, 3, 4, 8, 8)))):
        del threads[1:]
        stub.trunk(x)
        assert threads == [4, 1, 4]  # each trunk call pins itself


def _unloadable(path):
    raise OSError(f"{path}: cannot load")


@pytest.mark.parametrize("cdll", [lambda path: object(), _unloadable],
                         ids=["no-symbol", "unloadable"])
def test_one_blas_thread_is_a_no_op_without_openblas(monkeypatch, cdll):
    monkeypatch.setattr(molre.parallel.ctypes, "CDLL", cdll)
    blas = molre.parallel._openblas()
    assert blas[0](1) is None and blas[1]() == 1
    monkeypatch.setattr(molre.parallel, "_BLAS", blas)
    x = np.random.default_rng(36).uniform(0, 1, (3, 8, 16, 16))
    with one_blas_thread():
        z = SliceModel(RunConfig()).trunk_features(x)
    assert z.shape == (8, 64) and np.all(np.isfinite(z))


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
    base = SliceModel(RunConfig(mode="baseline-frozen", feature_dim=8))
    z = base.stub.trunk(slices_of(x))
    _, cache = base.forward_trunk_cached(z.reshape(2, 4, -1))
    assert np.array_equal(cache["pool"]["f"].reshape(8, -1), base.stub.project(z))
    lora = SliceModel(RunConfig(mode="lora", feature_dim=8, rank=2))
    lora.init_params(RngStream(2))
    lora.lora.B.data[...] = np.random.default_rng(17).normal(size=(8, 2))
    _, cache = lora.forward_trunk_cached(z.reshape(2, 4, -1))
    f2 = cache["pool"]["f"].reshape(8, -1)
    assert np.allclose(f2, lora.stub.project(z) + lora.lora.delta(z), atol=1e-15)


def _models_2d(seed, **kw):
    """A molre and a baseline-frozen slice model with one stub and equal
    head and pooler."""
    mix = SliceModel(RunConfig(mode="molre", feature_dim=8, num_classes=5,
                               num_experts=3, rank=2, router_hidden=5, **kw))
    base = SliceModel(RunConfig(mode="baseline-frozen", feature_dim=8, num_classes=5, **kw))
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
    m = VolumeModel(RunConfig(mode="molre3d", feature_dim=8, num_classes=5,
                              num_experts=3, rank=2, router_hidden=5))
    m.init_params(RngStream(7))
    x = np.random.default_rng(20).uniform(0, 1, (2, 3, 16, 16, 16))
    with_mix = m.forward(x)
    without = m.head.forward_cached(m.stub.project(m.stub.trunk(x)))[0]
    assert np.array_equal(with_mix, without)
    assert with_mix.shape == (2, 5)
