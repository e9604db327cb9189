"""Trainable model assemblies for the 2D slice path and the 3D volume path.

A model bundles the frozen backbone with whatever adapts on top of it, picked
by `mode` (one of `config.MODES`):

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
from .config import MODES
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


class _Model:
    """Frozen backbone, optional adapter, optional attention pooling, head.
    Subclasses pick the backbone class and how raw volumes reach its trunk."""

    backbone: type

    def __init__(
        self,
        mode: str,
        feature_dim: int = 32,
        num_classes: int = 12,
        num_experts: int = 6,
        rank: int = 8,
        lora_alpha: float = 16.0,
        router_hidden: int = 256,
        stub_seed: int = 1234,
        stub_channels: tuple[int, int, int] = (16, 32, 64),
    ):
        self.mode = mode
        self.stub = self.backbone(feature_dim, stub_channels, stub_seed)
        p = self.stub.trunk_dim
        self.lora = LoraAdapter(p, feature_dim, rank, lora_alpha) if mode == "lora" else None
        self.molre = (
            MolreLayer(
                self.stub.proj_w,
                ExpertBank(num_experts, p, feature_dim, rank, lora_alpha),
                Router(p, num_experts, router_hidden),
            )
            if mode in ("molre", "molre3d")
            else None
        )
        self.pooler: AttentionPooler | None = None
        self.head = ClassifierHead(feature_dim, num_classes)

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

    def frozen_parameters(self) -> dict[str, Tensor]:
        return self.stub.frozen_parameters()

    def zero_grad(self) -> None:
        for t in self.parameters().values():
            t.zero_grad()


class SliceModel(_Model):
    """2D path: per-slice features, optional adapter, attention pooling, head.
    Keyword arguments are those of the shared base after `mode`."""

    backbone = SliceBackbone

    def __init__(self, mode: str = "molre", **kwargs):
        if mode == "molre3d" or mode not in MODES:
            raise ValueError(f"SliceModel does not support mode {mode!r}")
        super().__init__(mode, **kwargs)
        self.pooler = AttentionPooler(self.stub.feature_dim)

    def trunk_features(self, channels_vol: np.ndarray) -> np.ndarray:
        """Frozen trunk output for one windowed volume (M, S, H, W) -> (S, p)."""
        return self.stub.trunk(np.ascontiguousarray(channels_vol.transpose(1, 0, 2, 3)))

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Full forward from raw windowed volumes (B, M, S, H, W)."""
        b, _, s = x.shape[:3]
        z = self.stub.trunk(slices_of(np.asarray(x, dtype=np.float64)))
        return self.forward_trunk_cached(z.reshape(b, s, -1))[0]


class VolumeModel(_Model):
    """3D path: one pooled feature per volume, mixture routed per volume.
    Keyword arguments are those of the shared base; the mode is molre3d."""

    backbone = VolumeBackbone

    def __init__(self, **kwargs):
        super().__init__("molre3d", **kwargs)

    def trunk_features(self, channels_vol: np.ndarray) -> np.ndarray:
        """Frozen trunk output for one windowed volume (M, S, H, W) -> (p,)."""
        return self.stub.trunk(channels_vol[None])[0]

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Full forward from raw windowed volumes (B, M, S, H, W)."""
        return self.forward_trunk_cached(self.stub.trunk(x))[0]
