import dataclasses
import hashlib

import numpy as np
import pytest

from molre.config import MODES, RunConfig
from molre.model import MODEL_KEYS, SliceModel, VolumeModel, build_model
from molre.pipeline import SliceBackbone, VolumeBackbone
from molre.rng import RngStream
from molre.tensor import finite_diff_grad


def _volumes(b=2, m=3, s=4, hw=16, seed=0):
    return np.random.default_rng(seed).uniform(0, 1, (b, m, s, hw, hw))


def test_mode_validation():
    with pytest.raises(ValueError):
        SliceModel(RunConfig(mode="frozen"))


def test_mode_ladder_components():
    base = SliceModel(RunConfig(mode="baseline-frozen"))
    lora = SliceModel(RunConfig(mode="lora"))
    mix = SliceModel(RunConfig(mode="molre"))
    assert base.lora is None and base.molre is None
    assert lora.lora is not None and lora.molre is None
    assert mix.lora is None and mix.molre is not None


def test_param_groups_partition_parameters():
    m = SliceModel(RunConfig(mode="molre", feature_dim=8, num_experts=3, rank=2,
                             router_hidden=5))
    groups = m.param_groups()
    head_keys = set(groups["head"])
    adapter_keys = set(groups["adapter"])
    assert head_keys == {"head.w", "head.b", "pooler.q"}
    assert adapter_keys and head_keys.isdisjoint(adapter_keys)
    assert head_keys | adapter_keys == set(m.parameters())
    assert all(k.startswith(("experts.", "router.")) for k in adapter_keys)

    base = SliceModel(RunConfig(mode="baseline-frozen"))
    assert base.param_groups()["adapter"] == {}

    lo = SliceModel(RunConfig(mode="lora"))
    assert set(lo.param_groups()["adapter"]) == {"lora.A", "lora.B"}


def test_all_modes_agree_at_init():
    x = _volumes()
    probs = {}
    for mode in ("baseline-frozen", "lora", "molre"):
        m = SliceModel(RunConfig(mode=mode, feature_dim=8, num_classes=5,
                                 num_experts=3, rank=2, router_hidden=5))
        m.init_params(RngStream(11))
        probs[mode] = m.forward(x)
    assert np.array_equal(probs["baseline-frozen"], probs["lora"])
    assert np.array_equal(probs["baseline-frozen"], probs["molre"])


def test_init_is_deterministic():
    a = SliceModel(RunConfig(mode="molre", feature_dim=8, num_experts=3, rank=2,
                             router_hidden=5))
    b = SliceModel(RunConfig(mode="molre", feature_dim=8, num_experts=3, rank=2,
                             router_hidden=5))
    a.init_params(RngStream(3))
    b.init_params(RngStream(3))
    for k, t in a.parameters().items():
        assert np.array_equal(t.data, b.parameters()[k].data), k


def test_forward_matches_trunk_cached_path():
    m = SliceModel(RunConfig(mode="molre", feature_dim=8, num_classes=5,
                             num_experts=3, rank=2, router_hidden=5))
    m.init_params(RngStream(5))
    for t in m.parameters().values():  # push off the init point
        t.data += np.random.default_rng(6).normal(0, 0.05, t.data.shape)
    x = _volumes(seed=7)
    z = np.stack([m.trunk_features(x[i]) for i in range(x.shape[0])])
    probs, _ = m.forward_trunk_cached(z)
    assert np.allclose(m.forward(x), probs, atol=1e-15)


@pytest.mark.parametrize("mode", ["baseline-frozen", "lora", "molre"])
def test_slice_model_backward_matches_finite_diff(mode):
    m = SliceModel(RunConfig(mode=mode, feature_dim=6, num_classes=4,
                             num_experts=3, rank=2, router_hidden=5))
    m.init_params(RngStream(8))
    rng = np.random.default_rng(9)
    for t in m.parameters().values():
        t.data += rng.normal(0, 0.3, t.data.shape)
    z = rng.normal(size=(2, 3, 64))
    g = rng.normal(size=(2, 4))

    probs, cache = m.forward_trunk_cached(z)
    m.backward(cache, g)

    for name, t in m.parameters().items():
        def loss(flat, _t=t):
            saved = _t.data.copy()
            _t.data[...] = flat.data.reshape(_t.data.shape)
            val = float((g * m.forward_trunk_cached(z)[0]).sum())
            _t.data[...] = saved
            return val

        num = finite_diff_grad(loss, t.data.ravel().copy()).reshape(t.data.shape)
        scale = max(np.abs(num).max(), 1e-8)
        assert np.abs(t.grad - num).max() / scale < 1e-5, (mode, name)


def test_volume_model_forward_and_groups():
    m = VolumeModel(RunConfig(mode="molre3d", feature_dim=8, num_classes=5,
                              num_experts=3, rank=2, router_hidden=5))
    m.init_params(RngStream(10))
    x = np.random.default_rng(11).uniform(0, 1, (2, 3, 16, 16, 16))
    probs = m.forward(x)
    assert probs.shape == (2, 5)
    groups = m.param_groups()
    assert set(groups["head"]) == {"head.w", "head.b"}
    assert set(groups["adapter"]) == set(m.molre.parameters())

    # mixture is transparent at init: same probs as the frozen stub alone
    bare = m.head.forward_cached(m.stub.project(m.stub.trunk(x)))[0]
    assert np.array_equal(bare, probs)


def test_volume_model_backward_matches_finite_diff():
    m = VolumeModel(RunConfig(mode="molre3d", feature_dim=6, num_classes=4,
                              num_experts=3, rank=2, router_hidden=5))
    m.init_params(RngStream(12))
    rng = np.random.default_rng(13)
    for t in m.parameters().values():
        t.data += rng.normal(0, 0.3, t.data.shape)
    z = rng.normal(size=(3, 64))
    g = rng.normal(size=(3, 4))

    probs, cache = m.forward_trunk_cached(z)
    m.backward(cache, g)

    for name, t in m.parameters().items():
        def loss(flat, _t=t):
            saved = _t.data.copy()
            _t.data[...] = flat.data.reshape(_t.data.shape)
            val = float((g * m.forward_trunk_cached(z)[0]).sum())
            _t.data[...] = saved
            return val

        num = finite_diff_grad(loss, t.data.ravel().copy()).reshape(t.data.shape)
        scale = max(np.abs(num).max(), 1e-8)
        assert np.abs(t.grad - num).max() / scale < 1e-5, name


def _digest(params):
    """SHA-256 over names, shapes and float64 bytes, in parameter order."""
    h = hashlib.sha256()
    for name, t in params.items():
        h.update(name.encode())
        h.update(str(t.data.shape).encode())
        h.update(np.ascontiguousarray(t.data).tobytes())
    return h.hexdigest()


def test_frozen_stubs_and_init_draws_are_pinned():
    # checkpoints store stub_seed, not the stub weights: redrawing the stubs
    # or the init would silently change what every saved checkpoint means
    assert _digest(SliceBackbone().frozen_parameters()) == (
        "689d46e6a2d86d3e519d25688f6f2fe0a48ebd087229b530a3014d97ab45b969")
    assert _digest(VolumeBackbone().frozen_parameters()) == (
        "09f30455a02a96ea1af9396efbcadeb3ac1187870ceffccdf1b2ce2e096d2752")
    want = {
        "baseline-frozen": "5079a006ff9114afbaf98de0795e4e57ce06982aa7bfd1a74251dc42be0fe2fd",
        "lora": "ff868f1b929152f95e1d779dcfd24d8530504b76607535831e57a67227066e0d",
        "molre": "68ddcbe361f8867de84a90bbe7df763074eceead712174fce8f78fa9b766eeb9",
        "molre3d": "8c370b61a72b139c4d7d0eb405da542a6f25828014973635e192f73db598ffaf",
    }
    assert tuple(want) == MODES
    for mode in MODES:
        model = build_model(RunConfig(mode=mode))
        model.init_params(RngStream(0))
        assert _digest(model.parameters()) == want[mode], mode


def test_each_class_serves_only_its_modes():
    assert SliceModel.modes + VolumeModel.modes == MODES
    for cls, other in ((SliceModel, VolumeModel), (VolumeModel, SliceModel)):
        for mode in other.modes + ("frozen",):
            with pytest.raises(ValueError, match=f"{cls.__name__} does not serve mode '{mode}'"):
                cls(RunConfig(mode=mode))


class _Recorder:
    """Stands in for a RunConfig and records the name of every field read."""

    def __init__(self, cfg):
        self._cfg, self.read = cfg, set()

    def __getattr__(self, name):
        self.read.add(name)
        return getattr(self._cfg, name)


def test_a_model_reads_only_the_model_block():
    # a checkpoint is matched to its run on MODEL_KEYS alone
    # (`training.load_model_params`), so they must be all a model depends on
    other = dict(
        volume_shape=(16, 32, 32), spacing=(0.5, 0.5, 2.0), num_samples=9, train_frac=0.5,
        val_frac=0.2, data_dir="elsewhere", data_seed=3, gamma=1.0, weight_clamp_lo=0.1,
        weight_clamp_hi=0.9, lr_head=0.5, lr_adapter=0.5, weight_decay=0.5, beta1=0.5,
        beta2=0.5, adam_eps=1e-6, clip_norm=1.0, sampler_threshold=0.5, batch_size=3,
        min_epochs=2, patience=1, max_epochs=4, augment=True, seed=5, out_dir="elsewhere",
    )
    default = RunConfig()
    assert set(other) == {f.name for f in dataclasses.fields(RunConfig)} - set(MODEL_KEYS)
    assert all(v != getattr(default, k) for k, v in other.items())
    for mode in MODES:
        cfg = RunConfig(mode=mode)
        recorder = _Recorder(cfg)
        build_model(recorder)
        assert recorder.read <= set(MODEL_KEYS), (mode, recorder.read - set(MODEL_KEYS))

        a, b = build_model(cfg), build_model(dataclasses.replace(cfg, **other))
        a.init_params(RngStream(0))
        b.init_params(RngStream(0))
        for pa, pb in ((a.parameters(), b.parameters()),
                       (a.stub.frozen_parameters(), b.stub.frozen_parameters())):
            assert list(pa) == list(pb), mode
            assert all(pa[k].data.tobytes() == pb[k].data.tobytes() for k in pa), mode
