"""HU windowing, spacing resampling, and train-time augmentation.

All geometry runs on the raw HU grid; windowing to [0, 1] channels is the
last step before the network. Augmentation consumes its random draws in a
fixed stage order (elastic, rotation, scaling, brightness, noise, mirror)
so a given stream position always maps to the same transform.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy.ndimage import gaussian_filter, map_coordinates

from .rng import RngStream
from .volumes import DataError, VolumeSample

AIR_HU = -1000.0


@dataclass(frozen=True)
class WindowSpec:
    lo: float
    hi: float

    def __post_init__(self):
        if not self.hi > self.lo:
            raise DataError(f"window needs hi > lo, got [{self.lo}, {self.hi}]")


# brain, subdural, bone
DEFAULT_WINDOWS = (
    WindowSpec(0.0, 80.0),
    WindowSpec(-20.0, 180.0),
    WindowSpec(-800.0, 2000.0),
)

DEFAULT_SPACING = (1.0, 1.0, 4.0)  # (x, y, z) mm


def hu_window(voxels: np.ndarray, windows=DEFAULT_WINDOWS) -> np.ndarray:
    """Map an (S, H, W) HU grid to (M, S, H, W) channels, each clipped
    to its window and scaled linearly to [0, 1]."""
    voxels = np.asarray(voxels, dtype=np.float64)
    out = np.empty((len(windows),) + voxels.shape, dtype=np.float64)
    for m, w in enumerate(windows):
        out[m] = (np.clip(voxels, w.lo, w.hi) - w.lo) / (w.hi - w.lo)
    return out


def _target_len(n_src: int, sp_src: float, sp_tgt: float) -> int:
    # number of target samples that stay inside the source extent
    return int(np.floor((n_src - 1) * sp_src / sp_tgt + 1e-9)) + 1


def resample(sample: VolumeSample, target=DEFAULT_SPACING) -> VolumeSample:
    """Trilinear resample onto an isotropic-in-plane grid with the target
    spacing. Grids share the origin corner; the target never reaches past
    the source extent. Equal spacings return the voxels unchanged."""
    if any(t <= 0 for t in target):
        raise DataError(f"target spacing must be positive, got {target}")
    if tuple(sample.spacing) == tuple(target):
        return replace(sample, voxels=sample.voxels.copy(), spacing=tuple(target))
    # voxel axes are (S, H, W) = (z, y, x); spacing tuples are (x, y, z)
    src_sp = (sample.spacing[2], sample.spacing[1], sample.spacing[0])
    tgt_sp = (target[2], target[1], target[0])
    shape = sample.voxels.shape
    axes = []
    for n, ss, st in zip(shape, src_sp, tgt_sp):
        n_t = _target_len(n, ss, st)
        axes.append(np.arange(n_t, dtype=np.float64) * (st / ss))
    coords = np.meshgrid(*axes, indexing="ij")
    out = map_coordinates(sample.voxels, coords, order=1, mode="nearest")
    return replace(sample, voxels=out, spacing=tuple(target))


@dataclass(frozen=True)
class AugmentConfig:
    """Ranges for the six augmentation stages; each draw is uniform over
    its range. Degenerate ranges collapse a stage to the exact identity."""

    elastic_alpha: tuple[float, float] = (0.0, 200.0)  # field gain, pre-smoothing
    elastic_sigma: tuple[float, float] = (10.0, 13.0)  # field smoothing, voxels
    rotation_rad: tuple[float, float] = (-0.1, 0.1)    # per axis
    scale: tuple[float, float] = (0.85, 1.15)          # per axis
    brightness: tuple[float, float] = (0.99, 1.01)     # multiplicative
    noise_var: tuple[float, float] = (0.0, 0.03)       # additive gaussian
    mirror_p: float = 0.5                               # per axis flip prob

    def __post_init__(self):
        for name in (
            "elastic_alpha", "elastic_sigma", "rotation_rad",
            "scale", "brightness", "noise_var",
        ):
            lo, hi = getattr(self, name)
            if lo > hi:
                raise DataError(f"{name} range has low > high: ({lo}, {hi})")
        if not 0.0 <= self.mirror_p <= 1.0:
            raise DataError(f"mirror_p must be in [0, 1], got {self.mirror_p}")

    @classmethod
    def identity(cls) -> "AugmentConfig":
        return cls(
            elastic_alpha=(0.0, 0.0),
            elastic_sigma=(10.0, 10.0),
            rotation_rad=(0.0, 0.0),
            scale=(1.0, 1.0),
            brightness=(1.0, 1.0),
            noise_var=(0.0, 0.0),
            mirror_p=0.0,
        )


def _rotation_matrix(angles_rad: np.ndarray) -> np.ndarray:
    """Combined rotation about the z, y, x volume axes (applied in that
    order) expressed in (z, y, x) index-aligned physical coordinates."""
    az, ay, ax = angles_rad
    cz, sz = np.cos(az), np.sin(az)
    cy, sy = np.cos(ay), np.sin(ay)
    cx, sx = np.cos(ax), np.sin(ax)
    rz = np.array([[1, 0, 0], [0, cz, -sz], [0, sz, cz]])  # rotates (y, x) plane
    ry = np.array([[cy, 0, sy], [0, 1, 0], [-sy, 0, cy]])
    rx = np.array([[cx, -sx, 0], [sx, cx, 0], [0, 0, 1]])
    return rx @ ry @ rz


def augment(sample: VolumeSample, cfg: AugmentConfig, rng: RngStream) -> VolumeSample:
    """Apply the augmentation chain in HU space. Out-of-field voxels fill
    with air. An identity config returns bitwise-identical voxels."""
    v = sample.voxels.astype(np.float64, copy=True)
    shape = v.shape
    spacing_zyx = np.array(
        [sample.spacing[2], sample.spacing[1], sample.spacing[0]], dtype=np.float64
    )

    # 1) elastic deformation: smoothed random displacement field
    alpha = rng.uniform(cfg.elastic_alpha[0], cfg.elastic_alpha[1])
    if alpha > 0.0:
        sigma = rng.uniform(cfg.elastic_sigma[0], cfg.elastic_sigma[1])
        base = np.meshgrid(*[np.arange(n, dtype=np.float64) for n in shape], indexing="ij")
        coords = [
            b + gaussian_filter(rng.uniform(-1.0, 1.0, size=shape), sigma) * alpha
            for b in base
        ]
        v = map_coordinates(v, coords, order=1, mode="constant", cval=AIR_HU)

    # 2) + 3) rotation then scaling, one shared resampling pass
    angles = rng.uniform(cfg.rotation_rad[0], cfg.rotation_rad[1], size=3)
    scales = rng.uniform(cfg.scale[0], cfg.scale[1], size=3)
    if np.any(angles != 0.0) or np.any(scales != 1.0):
        center = (np.array(shape, dtype=np.float64) - 1.0) / 2.0
        rot = _rotation_matrix(angles)
        # content transform is scale(rotate(v)); pull back target points
        # through the inverse: unscale per axis, then rotate by -angles
        idx = np.stack(
            np.meshgrid(*[np.arange(n, dtype=np.float64) for n in shape], indexing="ij"),
            axis=-1,
        )
        phys = (idx - center) * spacing_zyx
        phys = phys / scales
        phys = phys @ rot  # rows transform by rot.T == inverse rotation
        src = phys / spacing_zyx + center
        v = map_coordinates(
            v, [src[..., 0], src[..., 1], src[..., 2]],
            order=1, mode="constant", cval=AIR_HU,
        )

    # 4) brightness
    gain = rng.uniform(cfg.brightness[0], cfg.brightness[1])
    if gain != 1.0:
        v = v * gain

    # 5) additive gaussian noise
    var = rng.uniform(cfg.noise_var[0], cfg.noise_var[1])
    if var > 0.0:
        v = v + rng.normal(0.0, np.sqrt(var), size=shape)

    # 6) mirroring, per axis
    flips = rng.bernoulli(cfg.mirror_p, size=3)
    for axis in range(3):
        if flips[axis]:
            v = np.flip(v, axis=axis)

    return replace(sample, voxels=np.ascontiguousarray(v))
