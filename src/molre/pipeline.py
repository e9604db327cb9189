"""The layers around the adapters: frozen backbone stubs, attention pooling
and the classifier head.

The stubs stand in for large pretrained feature extractors: their weights are
drawn once from a seed and never receive gradients. `SliceBackbone` embeds
single slices with 3x3 convs (the 2D path), `VolumeBackbone` embeds a whole
volume with 3x3x3 convs (the 3D path). Both run one channels-first conv body
(a copy into a zero-bordered padded array, one strided copy of that array
into the column matrix, then `W @ cols`) depth-first: every conv over one
block of inputs, then the next block. A block holds as many inputs as keep
its largest column matrix within _BLOCK_BYTES, and at least one: 7 slices or
1 volume at 32x64x64, at one BLAS thread (`parallel.one_blas_thread`). Each
backbone keeps the convs' buffers in a scratch arena, one set per (block
shape, weight shape), for one trunk input shape at a time: the padded
border is zeroed once, and a conv allocates only for shapes it has not
seen. Then come a global mean pool, a row standardization and a linear
projection, written once in their shared base; the adapters replace or
extend that projection.

`AttentionPooler` collapses a volume's S slice features into one vector with
a single learnable query; `ClassifierHead` scores the C findings with
independent logits, which the focal loss takes as they are. Each takes plain
ndarrays through its one entry point, `forward_cached`. The models in
`model.py` compose these with the adapters; each model has exactly one
forward path.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .parallel import one_blas_thread
from .preprocess import DEFAULT_WINDOWS
from .rng import RngStream
from .tensor import ShapeError, Tensor, softmax, softmax_backward

_BLOCK_BYTES = 2 << 20  # about one core's L2
_NORM_EPS = 1e-6


def _rownorm(z: np.ndarray) -> np.ndarray:
    """Per-row standardization; the frozen trunks end with this so adapters
    and heads always see O(1) features regardless of conv weight draws."""
    mu = z.mean(axis=-1, keepdims=True)
    sd = z.std(axis=-1, keepdims=True)
    return (z - mu) / (sd + _NORM_EPS)


def _conv_buffers(x_shape: tuple, w_shape: tuple) -> tuple:
    """The buffers of one conv: the zeroed padded input, the column matrix,
    a read-only strided view of the padded input shaped like the column
    matrix, and the GEMM output."""
    n, ci, *spatial = x_shape
    out = [(s + 1) // 2 for s in spatial]
    xp = np.zeros((ci, n, *(s + 2 for s in spatial)))
    cols = np.empty((ci, *(3 for _ in spatial), n, *out))
    # view[c, *tap, m, *o] = xp[c, m, *(tap + 2 * o)]
    sc, sm, *ss = xp.strides
    view = as_strided(xp, cols.shape, (sc, *ss, sm, *(2 * s for s in ss)), writeable=False)
    y = np.empty((w_shape[0], n * math.prod(out)))
    return xp, cols, view, y


def _conv_relu(
    x: np.ndarray, w: np.ndarray, b: np.ndarray, arena: dict | None = None
) -> np.ndarray:
    """3x3(x3) stride-2 pad-1 convolution + ReLU over any spatial rank.

    Works channels-first: the (n, ci, *spatial) input is copied into the
    interior of a zero-bordered (ci, n, *spatial+2) array, and the column
    matrix (ci, 3, ..., 3, n, *out) is filled from it in one strided copy,
    so `W @ cols` needs no transpose. Returns the (n, co, *out) view of the
    (co, n, *out) result, which the next conv reads without a copy.

    With `arena`, a dict, the buffers are kept in it under (input shape,
    weight shape) and reused by the next call with those shapes: the border
    is zeroed once, and the returned view is overwritten by that call. With
    no arena every call allocates its own."""
    if arena is None:
        arena = {}  # buffers of this call alone: the caller owns the result
    key = (x.shape, w.shape)
    if key not in arena:
        arena[key] = _conv_buffers(*key)
    xp, cols, view, y = arena[key]
    n, _, *spatial = x.shape
    xp[(..., *(slice(1, -1) for _ in spatial))] = x.swapaxes(0, 1)
    np.copyto(cols, view)
    wm = w.reshape(w.shape[0], -1)
    np.matmul(wm, cols.reshape(wm.shape[1], -1), out=y)
    y += b[:, None]
    np.maximum(y, 0.0, out=y)
    return y.reshape(wm.shape[0], n, *cols.shape[-len(spatial):]).swapaxes(0, 1)


# the names the trunks call (and perfbench traces), one body for both ranks
_conv2d_relu = _conv3d_relu = _conv_relu


class _Backbone:
    """Frozen feature extractor: 3 strided convs, global mean pool, and a
    linear projection to the working feature dimension.

    The input has one channel per HU window of `DEFAULT_WINDOWS`. Weights
    come from `seed` alone, so two stubs built with the same seed produce
    identical features. Nothing here ever receives a gradient. Subclasses
    fix the spatial rank: the kernel shape and the stream the weights are
    drawn from.
    """

    kernel: tuple[int, ...]
    stream: int
    in_channels = len(DEFAULT_WINDOWS)

    def __init__(
        self,
        feature_dim: int = 32,
        channels: tuple[int, int, int] = (16, 32, 64),
        seed: int = 1234,
    ):
        self.feature_dim = feature_dim
        self.channels = tuple(channels)
        self.trunk_dim = self.channels[-1]
        self.seed = seed
        rng = RngStream(seed, self.stream)
        self.conv_w, self.conv_b = [], []
        ci = self.in_channels
        for co in self.channels:
            std = np.sqrt(2.0 / (ci * math.prod(self.kernel)))
            self.conv_w.append(Tensor(rng.normal(0.0, std, (co, ci, *self.kernel))))
            self.conv_b.append(Tensor(np.zeros(co)))
            ci = co
        self.proj_w = Tensor(
            rng.normal(0.0, 1.0 / np.sqrt(self.trunk_dim), (feature_dim, self.trunk_dim))
        )
        self.proj_b = Tensor(np.zeros(feature_dim))
        # the convs' buffers (see `_conv_relu`), for one input shape at a time
        self._arena: dict = {}

    def _pooled(self, x, layout: str, conv) -> np.ndarray:
        """Run the convs depth-first over blocks of inputs (see the module
        docstring) at one BLAS thread, mean-pool every spatial axis, and
        standardize each row."""
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 + len(self.kernel) or x.shape[1] != self.in_channels:
            raise ShapeError(f"backbone expects {layout.format(self.in_channels)}, got {x.shape}")
        cols, spatial = [], x.shape[2:]
        for ci in (self.in_channels, *self.channels[:-1]):
            spatial = [(s + 1) // 2 for s in spatial]
            cols.append(8 * ci * math.prod(self.kernel) * math.prod(spatial))
        block = max(1, _BLOCK_BYTES // max(cols))
        # the first entry is the first conv's, whose block has the trunk
        # input's shape: another input shape drops every buffer
        arena = self._arena
        if arena and next(iter(arena))[0][1:] != x.shape[1:]:
            arena.clear()
        outs = []
        with one_blas_thread():
            for lo in range(0, x.shape[0], block):
                h = x[lo:lo + block]
                for w, b in zip(self.conv_w, self.conv_b):
                    h = conv(h, w.data, b.data, arena)
                # the conv output lives in the arena, and the next block
                # overwrites it; the mean sums in memory order, channels-last,
                # as the features have always been summed
                h = np.moveaxis(np.ascontiguousarray(np.moveaxis(h, 1, -1)), -1, 1)
                outs.append(h.mean(axis=tuple(range(2, h.ndim))))
        return _rownorm(np.concatenate(outs, axis=0))

    def project(self, z: np.ndarray) -> np.ndarray:
        return z @ self.proj_w.data.T + self.proj_b.data

    def frozen_parameters(self) -> dict[str, Tensor]:
        out = {}
        for i, (w, b) in enumerate(zip(self.conv_w, self.conv_b)):
            out[f"backbone.conv{i}.w"] = w
            out[f"backbone.conv{i}.b"] = b
        out["backbone.proj.w"] = self.proj_w
        out["backbone.proj.b"] = self.proj_b
        return out


class SliceBackbone(_Backbone):
    """Per-slice stub: 3x3 convs over single slices."""

    kernel = (3, 3)
    stream = 7

    def trunk(self, x: np.ndarray) -> np.ndarray:
        """Map slices (N, M, H, W) to pre-projection features (N, trunk_dim)."""
        return self._pooled(x, "(N, {}, H, W)", _conv2d_relu)


class VolumeBackbone(_Backbone):
    """Whole-volume stub: 3x3x3 convs over the volume."""

    kernel = (3, 3, 3)
    stream = 13

    def trunk(self, x: np.ndarray) -> np.ndarray:
        """Map volumes (N, M, S, H, W) to pooled features (N, trunk_dim)."""
        return self._pooled(x, "(N, {}, S, H, W)", _conv3d_relu)


class AttentionPooler:
    """Single-query attention over a volume's slice features.

    Weights alpha = softmax(q . F^T / sqrt(d)) over the S slices; the pooled
    vector is the alpha-weighted sum. Gradients flow to the query and to the
    slice features.
    """

    def __init__(self, feature_dim: int):
        self.feature_dim = feature_dim
        self.q = Tensor.zeros((feature_dim,), requires_grad=True)

    def init(self, rng: RngStream) -> None:
        # zero query => uniform attention at init; training sharpens it
        self.q.data.fill(0.0)

    def forward_cached(self, feats: np.ndarray) -> tuple[np.ndarray, dict]:
        """Pooled features (B, d) for slice features (B, S, d)."""
        f = np.asarray(feats, dtype=np.float64)
        if f.ndim != 3 or f.shape[2] != self.feature_dim:
            raise ShapeError(f"pooler expects (B, S, {self.feature_dim}), got {f.shape}")
        if f.shape[1] == 0:
            raise ShapeError("cannot pool an empty volume (S=0)")
        scale = 1.0 / np.sqrt(self.feature_dim)
        scores = (f @ self.q.data) * scale
        alpha = softmax(scores, axis=1)
        h = np.einsum("bs,bsd->bd", alpha, f)
        return h, {"f": f, "alpha": alpha, "scale": scale}

    def backward(self, cache: dict, grad_h: np.ndarray) -> np.ndarray:
        f, alpha, scale = cache["f"], cache["alpha"], cache["scale"]
        galpha = np.einsum("bd,bsd->bs", grad_h, f)
        gf = alpha[:, :, None] * grad_h[:, None, :]
        gscores = softmax_backward(galpha, alpha, axis=1)
        self.q.grad += scale * np.einsum("bs,bsd->d", gscores, f)
        gf += (scale * gscores)[:, :, None] * self.q.data[None, None, :]
        return gf

    def parameters(self) -> dict[str, Tensor]:
        return {"pooler.q": self.q}


class ClassifierHead:
    """Per-class logits: multi-label, no cross-class normalization."""

    def __init__(self, feature_dim: int, num_classes: int):
        self.feature_dim = feature_dim
        self.num_classes = num_classes
        self.w = Tensor.zeros((num_classes, feature_dim), requires_grad=True)
        self.b = Tensor.zeros((num_classes,), requires_grad=True)

    def init(self, rng: RngStream) -> None:
        # zero init: every class starts at p=0.5 and calibrates from the data
        self.w.data.fill(0.0)
        self.b.data.fill(0.0)

    def forward_cached(self, h: np.ndarray) -> tuple[np.ndarray, dict]:
        """Logits (B, C) for pooled features (B, d)."""
        h = np.asarray(h, dtype=np.float64)
        if h.ndim != 2 or h.shape[1] != self.feature_dim:
            raise ShapeError(f"head expects (B, {self.feature_dim}), got {h.shape}")
        return h @ self.w.data.T + self.b.data, {"h": h}

    def backward(self, cache: dict, glogits: np.ndarray) -> np.ndarray:
        self.w.grad += glogits.T @ cache["h"]
        self.b.grad += glogits.sum(axis=0)
        return glogits @ self.w.data

    def parameters(self) -> dict[str, Tensor]:
        return {"head.w": self.w, "head.b": self.b}
