import numpy as np
import pytest

from molre.adapters import (
    ExpertBank,
    LoraAdapter,
    MolreLayer,
    Router,
    count_molre_params,
)
from molre.model import SliceModel
from molre.rng import RngStream
from molre.tensor import ShapeError, Tensor, finite_diff_grad


def _rand(shape, seed):
    return np.random.default_rng(seed).normal(size=shape)


# -- LoRA ---------------------------------------------------------------


def test_lora_fresh_adapter_is_noop():
    ad = LoraAdapter(6, 4, rank=2, alpha=16.0)
    ad.init(RngStream(0))
    x = _rand((5, 6), 1)
    assert np.array_equal(ad.delta(x), np.zeros((5, 4)))


def test_lora_delta_matches_dense_formula():
    ad = LoraAdapter(6, 4, rank=2, alpha=16.0)
    ad.init(RngStream(0))
    ad.B.data[...] = _rand((4, 2), 2)
    x = _rand((7, 6), 3)
    dense = (ad.alpha / ad.rank) * (ad.B.data @ ad.A.data)
    assert np.allclose(ad.delta(x), x @ dense.T, atol=1e-12)


def test_lora_scaling_is_alpha_over_rank():
    assert LoraAdapter(8, 8, rank=4, alpha=16.0).scaling == 4.0


def test_lora_rank_bounds():
    with pytest.raises(ValueError):
        LoraAdapter(4, 4, rank=5)
    with pytest.raises(ValueError):
        LoraAdapter(4, 4, rank=0)


def test_lora_backward_matches_finite_diff():
    ad = LoraAdapter(5, 3, rank=2)
    ad.init(RngStream(1))
    ad.B.data[...] = _rand((3, 2), 4) * 0.3
    x = _rand((4, 5), 5)
    g = _rand((4, 3), 6)

    ad.A.zero_grad(); ad.B.zero_grad()
    ad.delta_backward(g, x)

    def loss(mat, which):
        saved = getattr(ad, which).data.copy()
        getattr(ad, which).data[...] = mat.data
        val = float((g * ad.delta(x)).sum())
        getattr(ad, which).data[...] = saved
        return val

    na = finite_diff_grad(lambda t: loss(t, "A"), ad.A.data.copy())
    nb = finite_diff_grad(lambda t: loss(t, "B"), ad.B.data.copy())
    assert np.allclose(ad.A.grad, na, atol=1e-7)
    assert np.allclose(ad.B.grad, nb, atol=1e-7)


def test_lora_forward_adds_frozen_base():
    # the adapter's one entry point in a model: the frozen projection plus delta
    m = SliceModel(mode="lora", feature_dim=4, num_classes=3, rank=2)
    m.init_params(RngStream(2))
    m.lora.B.data[...] = _rand((4, 2), 7)
    z = _rand((1, 3, 64), 9)
    _, cache = m.forward_trunk_cached(z)
    want = z[0] @ m.stub.proj_w.data.T + m.stub.proj_b.data + m.lora.delta(z[0])
    assert np.allclose(cache["pool"]["f"][0], want, atol=1e-15)
    with pytest.raises(ShapeError):
        m.forward(np.zeros((1, 2, 3, 16, 16)))  # two windows, the stub takes three


# -- expert bank ---------------------------------------------------------


def test_expert_bank_init_zeroes_every_b():
    bank = ExpertBank(4, 6, 5, rank=2)
    bank.init(RngStream(3))
    assert bank.A.shape == (8, 6) and bank.B.shape == (5, 8)
    for i in range(4):
        assert np.array_equal(bank.B.data[:, 2 * i:2 * i + 2], np.zeros((5, 2)))
        assert bank.A.data[2 * i:2 * i + 2].std() > 0
    # experts start distinct
    assert not np.array_equal(bank.A.data[0:2], bank.A.data[2:4])


def test_expert_bank_parameter_names():
    bank = ExpertBank(2, 3, 3, rank=1)
    names = sorted(bank.parameters())
    assert names == ["experts.A", "experts.B"]
    # the plain adapter is the one-expert bank under its own names
    lora = LoraAdapter(3, 3, rank=1)
    assert isinstance(lora, ExpertBank) and lora.num_experts == 1
    assert sorted(lora.parameters()) == ["lora.A", "lora.B"]


def test_expert_bank_validates_args():
    with pytest.raises(ValueError):
        ExpertBank(0, 4, 4, rank=2)
    with pytest.raises(ValueError):
        ExpertBank(2, 4, 4, rank=9)


# -- router ----------------------------------------------------------------


def test_router_rows_on_simplex():
    r = Router(10, 6, hidden=16)
    r.init(RngStream(4))
    x = _rand((500, 10), 11) * 3
    gates = r.forward_cached(x)[0]
    assert (gates >= 0).all()
    assert np.abs(gates.sum(axis=1) - 1.0).max() < 1e-12


def test_router_matches_manual_mlp():
    r = Router(4, 3, hidden=5)
    r.init(RngStream(5))
    x = _rand((6, 4), 12)
    hid = np.maximum(x @ r.W1.data.T + r.b1.data, 0.0)
    logits = hid @ r.W2.data.T + r.b2.data
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    assert np.allclose(r.forward_cached(x)[0], e / e.sum(axis=1, keepdims=True), atol=1e-15)


def test_router_backward_matches_finite_diff():
    r = Router(4, 3, hidden=5)
    r.init(RngStream(6))
    x = _rand((6, 4), 13)
    g = _rand((6, 3), 14)

    gates, cache = r.forward_cached(x)
    r.backward(cache, g)

    for name, t in r.parameters().items():
        def loss(mat, _t=t):
            saved = _t.data.copy()
            _t.data[...] = mat.data
            val = float((g * r.forward_cached(x)[0]).sum())
            _t.data[...] = saved
            return val
        num = finite_diff_grad(loss, t.data.copy())
        assert np.allclose(t.grad, num, atol=1e-6), name


def test_router_rejects_wrong_width():
    r = Router(4, 3)
    with pytest.raises(ShapeError):
        r.forward_cached(np.zeros((2, 5)))


# -- mixture layer ----------------------------------------------------------


def _make_layer(d_in=6, d_out=4, k=3, rank=2, hidden=5, seed=0):
    layer = MolreLayer(
        Tensor(_rand((d_out, d_in), seed + 100)),
        ExpertBank(k, d_in, d_out, rank),
        Router(d_in, k, hidden),
    )
    layer.init(RngStream(seed))
    return layer


def test_mixture_fresh_layer_equals_w0():
    layer = _make_layer()
    x = _rand((5, 6), 15)
    assert np.array_equal(layer.forward_cached(x)[0], x @ layer.w0.data.T)


def test_mixture_matches_dense_reference():
    layer = _make_layer()
    for i in range(3):
        layer.bank.B.data[:, 2 * i:2 * i + 2] = _rand((4, 2), 20 + i) * 0.5
    x = _rand((7, 6), 16)
    gates = layer.router.forward_cached(x)[0]
    want = x @ layer.w0.data.T
    for i in range(3):
        a_i = layer.bank.A.data[2 * i:2 * i + 2]
        b_i = layer.bank.B.data[:, 2 * i:2 * i + 2]
        want += layer.bank.scaling * gates[:, i:i + 1] * ((x @ a_i.T) @ b_i.T)
    assert np.allclose(layer.forward_cached(x)[0], want, atol=1e-12)


def test_mixture_k1_equals_lora_forward():
    # one expert, scale alpha/rank, identical weights => identical outputs
    rng = np.random.default_rng(17)
    layer = _make_layer(k=1)
    ad = LoraAdapter(6, 4, rank=2, alpha=16.0)
    ad.A.data[...] = layer.bank.A.data[:2]
    b = rng.normal(size=(4, 2))
    ad.B.data[...] = b
    layer.bank.B.data[:, :2] = b
    x = rng.normal(size=(9, 6))
    assert np.allclose(
        layer.forward_cached(x)[0], x @ layer.w0.data.T + ad.delta(x), atol=1e-12
    )


def test_mixture_default_scale():
    layer = _make_layer(rank=2)
    assert layer.bank.scaling == 16.0 / 2


def test_mixture_shape_validation():
    with pytest.raises(ShapeError):
        MolreLayer(Tensor(np.zeros((3, 3))), ExpertBank(2, 6, 4, 2), Router(6, 2, 5))
    with pytest.raises(ValueError):
        MolreLayer(Tensor(np.zeros((4, 6))), ExpertBank(2, 6, 4, 2), Router(6, 3, 5))
    layer = _make_layer()
    with pytest.raises(ShapeError):
        layer.forward_cached(np.zeros((2, 7)))


def test_mixture_w0_stays_frozen():
    layer = _make_layer()
    assert layer.w0.grad is None
    assert "w0" not in " ".join(layer.parameters())


def test_mixture_backward_matches_finite_diff():
    layer = _make_layer()
    for i in range(3):
        layer.bank.B.data[:, 2 * i:2 * i + 2] = _rand((4, 2), 30 + i) * 0.4
    x = _rand((5, 6), 19)
    g = _rand((5, 4), 21)

    out, cache = layer.forward_cached(x)
    for t in layer.parameters().values():
        t.zero_grad()
    layer.backward(cache, g)

    for name, t in layer.parameters().items():
        def loss(mat, _t=t):
            saved = _t.data.copy()
            _t.data[...] = mat.data
            val = float((g * layer.forward_cached(x)[0]).sum())
            _t.data[...] = saved
            return val
        num = finite_diff_grad(loss, t.data.copy())
        denom = max(np.abs(num).max(), np.abs(t.grad).max(), 1e-12)
        assert np.abs(t.grad - num).max() / denom < 1e-6, name


@pytest.mark.parametrize("k", [1, 3, 6])
def test_stacked_bank_matches_per_expert_loop(k):
    d_in, d_out, r, hidden = 7, 5, 2, 6
    layer = _make_layer(d_in, d_out, k, r, hidden, seed=k)
    layer.bank.B.data[...] = _rand(layer.bank.B.shape, 40 + k) * 0.5
    x = _rand((9, d_in), 41)
    g = _rand((9, d_out), 42)

    out, cache = layer.forward_cached(x)
    for t in layer.parameters().values():
        t.zero_grad()
    layer.backward(cache, g)

    # reference: one (A_i, B_i) pair at a time, each a block of the stacked bank
    s = layer.bank.scaling
    gates, rcache = layer.router.forward_cached(x)
    want = x @ layer.w0.data.T
    want_ga = np.empty_like(layer.bank.A.data)
    want_gb = np.empty_like(layer.bank.B.data)
    ggates = np.empty_like(gates)
    for i in range(k):
        rows = slice(i * r, (i + 1) * r)
        a_i, b_i = layer.bank.A.data[rows], layer.bank.B.data[:, rows]
        u = x @ a_i.T
        v = u @ b_i.T
        want += s * gates[:, i:i + 1] * v
        gv = s * gates[:, i:i + 1] * g
        want_gb[:, rows] = gv.T @ u
        want_ga[rows] = (gv @ b_i).T @ x
        ggates[:, i] = s * (g * v).sum(axis=1)
    ref = Router(d_in, k, hidden)
    for name, t in ref.parameters().items():
        t.data[...] = layer.router.parameters()[name].data
    ref.backward(rcache, ggates)

    def rel(got, want):
        return np.abs(got - want).max() / max(np.abs(want).max(), 1e-300)

    assert rel(out, want) <= 1e-12
    assert rel(layer.bank.A.grad, want_ga) <= 1e-12
    assert rel(layer.bank.B.grad, want_gb) <= 1e-12
    for name, t in ref.parameters().items():
        assert rel(layer.router.parameters()[name].grad, t.grad) <= 1e-12, name


# -- parameter counting -------------------------------------------------------


def test_count_formula_directly():
    # K(r d_in + d_out r) + (d_h d_in + d_h) + (K d_h + K)
    assert count_molre_params(10, 8, 2, 3, 4) == (
        2 * (3 * 10 + 8 * 3) + (4 * 10 + 4) + (2 * 4 + 2)
    )


def test_count_matches_live_layer():
    layer = _make_layer(d_in=6, d_out=4, k=3, rank=2, hidden=5)
    live = sum(t.size for t in layer.parameters().values())
    assert count_molre_params(6, 4, 3, 2, 5) == live


def test_count_rejects_nonpositive():
    with pytest.raises(ValueError):
        count_molre_params(0, 4, 2, 2, 4)
