"""Trainable model assemblies for the 2D slice path and the 3D volume path.

A model is built from a `RunConfig` (`build_model`) and reads only its model
block, `MODEL_KEYS`, whose defaults live in `RunConfig` alone. It bundles the
frozen backbone with whatever adapts on top of it, picked by `mode` (one of
`config.MODES`):

    baseline-frozen  head + pooling query only
    lora             + low-rank adapter on the backbone's final projection
    molre            the same projection, but adapted by a routed expert bank
    molre3d          the 3D path: pooled volume features, routed bank, head

The ladder is strict: the adapter is the expert bank with one expert and no
router, a one-expert mixture with scale alpha/rank computes exactly the
adapter's update, and with no adapter the model is the frozen baseline.

Each model has one forward path. Because the conv trunk is frozen, its
per-sample output can be computed once and cached; `forward_trunk_cached` /
`backward` implement the training step from that cache with explicit
per-layer backward passes, and `forward` is the trunk followed by
`forward_trunk_cached`. `SliceModel` and `VolumeModel` differ only in the
backbone, the attention pooling over slices, and how a raw volume reaches
the trunk; the rest is written once in their shared base.
"""

from __future__ import annotations

import numpy as np

from .adapters import ExpertBank, LoraAdapter, MolreLayer, Router
from .config import RunConfig
from .pipeline import (
    AttentionPooler,
    ClassifierHead,
    SliceBackbone,
    VolumeBackbone,
    slices_of,
)
from .rng import RngStream
from .tensor import Tensor

# (attribute, optimizer group) in parameter order. The AdamW arena layout and
# the clip-norm summation follow this order, and each part draws its init
# from the RNG child named after its attribute.
_PARTS = (("head", "head"), ("pooler", "head"), ("lora", "adapter"), ("molre", "adapter"))


# RunConfig's model block: the only fields a model reads. They fix the tensor
# shapes, the frozen features (stub_seed) or the adapter scale (lora_alpha),
# so a checkpoint must match all of them (`training.load_model_params`).
MODEL_KEYS = (
    "mode", "num_experts", "rank", "lora_alpha", "router_hidden", "feature_dim",
    "num_classes", "stub_seed", "stub_channels",
)


class _Model:
    """Frozen backbone, optional adapter, optional attention pooling, head.
    Subclasses pick the backbone class, the modes they serve and how raw
    volumes reach its trunk."""

    backbone: type
    modes: tuple[str, ...]

    def __init__(self, cfg: RunConfig):
        if cfg.mode not in self.modes:
            raise ValueError(f"{type(self).__name__} does not serve mode {cfg.mode!r}")
        self.stub = self.backbone(cfg.feature_dim, tuple(cfg.stub_channels), cfg.stub_seed)
        p = self.stub.trunk_dim
        self.lora = (
            LoraAdapter(p, cfg.feature_dim, cfg.rank, cfg.lora_alpha)
            if cfg.mode == "lora" else None
        )
        self.molre = (
            MolreLayer(
                self.stub.proj_w,
                ExpertBank(cfg.num_experts, p, cfg.feature_dim, cfg.rank, cfg.lora_alpha),
                Router(p, cfg.num_experts, cfg.router_hidden),
            )
            if cfg.mode in ("molre", "molre3d")
            else None
        )
        self.pooler: AttentionPooler | None = None
        self.head = ClassifierHead(cfg.feature_dim, cfg.num_classes)

    def _parts(self):
        for name, group in _PARTS:
            part = getattr(self, name)
            if part is not None:
                yield name, group, part

    def init_params(self, rng: RngStream) -> None:
        for name, _, part in self._parts():
            part.init(rng.child(name))

    # -- trunk cache entry points ------------------------------------------

    def forward_trunk_cached(self, z: np.ndarray) -> tuple[np.ndarray, dict]:
        """Probabilities from cached trunk features z, (B, S, p) on the slice
        path and (B, p) on the volume path, with the intermediate caches
        needed for backward."""
        zf = z.reshape(-1, z.shape[-1])
        cache: dict = {"zf": zf}
        if self.molre is not None:
            # the mixture applies the frozen projection weight itself
            f, cache["molre"] = self.molre.forward_cached(zf)
            f = f + self.stub.proj_b.data
        else:
            f = self.stub.project(zf)
            if self.lora is not None:
                f = f + self.lora.delta(zf)
        if self.pooler is not None:
            f, cache["pool"] = self.pooler.forward_cached(f.reshape(*z.shape[:-1], -1))
        probs, cache["head"] = self.head.forward_cached(f)
        return probs, cache

    def backward(self, cache: dict, grad_probs: np.ndarray) -> None:
        g = self.head.backward(cache["head"], grad_probs)
        if self.pooler is not None:
            g = self.pooler.backward(cache["pool"], g).reshape(cache["zf"].shape[0], -1)
        if self.molre is not None:
            self.molre.backward(cache["molre"], g)
        elif self.lora is not None:
            self.lora.delta_backward(g, cache["zf"])
        # trunk and projection are frozen: gradient stops here

    # -- parameter plumbing --------------------------------------------------

    def parameters(self) -> dict[str, Tensor]:
        out: dict[str, Tensor] = {}
        for _, _, part in self._parts():
            out.update(part.parameters())
        return out

    def param_groups(self) -> dict[str, dict[str, Tensor]]:
        groups: dict[str, dict[str, Tensor]] = {"head": {}, "adapter": {}}
        for _, group, part in self._parts():
            groups[group].update(part.parameters())
        return groups


class SliceModel(_Model):
    """2D path: per-slice features, optional adapter, attention pooling, head."""

    backbone = SliceBackbone
    modes = ("baseline-frozen", "lora", "molre")

    def __init__(self, cfg: RunConfig):
        super().__init__(cfg)
        self.pooler = AttentionPooler(self.stub.feature_dim)

    def trunk_features(self, channels_vol: np.ndarray) -> np.ndarray:
        """Frozen trunk output for one windowed volume (M, S, H, W) -> (S, p)."""
        return self.stub.trunk(channels_vol.swapaxes(0, 1))

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Full forward from raw windowed volumes (B, M, S, H, W)."""
        b, _, s = x.shape[:3]
        z = self.stub.trunk(slices_of(np.asarray(x, dtype=np.float64)))
        return self.forward_trunk_cached(z.reshape(b, s, -1))[0]


class VolumeModel(_Model):
    """3D path: one pooled feature per volume, mixture routed per volume."""

    backbone = VolumeBackbone
    modes = ("molre3d",)

    def trunk_features(self, channels_vol: np.ndarray) -> np.ndarray:
        """Frozen trunk output for one windowed volume (M, S, H, W) -> (p,)."""
        return self.stub.trunk(channels_vol[None])[0]

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Full forward from raw windowed volumes (B, M, S, H, W)."""
        return self.forward_trunk_cached(self.stub.trunk(x))[0]


def build_model(cfg: RunConfig) -> SliceModel | VolumeModel:
    """The model of cfg's mode, built from its `MODEL_KEYS` fields; its
    trainable parameters are drawn by `init_params`."""
    return (VolumeModel if cfg.mode in VolumeModel.modes else SliceModel)(cfg)
