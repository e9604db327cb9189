"""Synthetic head-CT-like volumes with multi-label findings.

Each volume is an ellipsoidal head (air, brain tissue, skull shell) whose
cross-section and internal landmarks vary along z: an air sinus low in the
stack, paired ventricles mid-stack, and a midline calcified streak high in
the stack. Labels form a (family x band) grid: four lesion archetypes
(hyperdense blob, hypodense wedge, boundary crescent, diffuse texture
shift), each occurring in one of three z-bands. The band is therefore
readable from slice content, which rewards models that can condition
their feature adaptation on where in the head a slice sits.

Everything is derived from a per-sample stream keyed by (seed, index), so
sample i is identical no matter how many samples are built or in what
order. Voxel values are quantized through float32 so in-memory volumes
match their disk round-trip bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.ndimage import gaussian_filter

from .preprocess import AIR_HU
from .rng import RngStream
from .volumes import DataError, VolumeSample

NUM_FAMILIES = 4
NUM_BANDS = 3
# z extents (fractions of the stack) for the low / mid / high bands
BAND_RANGES = ((0.08, 0.32), (0.40, 0.60), (0.68, 0.92))

TISSUE_HU = 30.0
SKULL_HU = 700.0


@dataclass(frozen=True)
class SynthConfig:
    num_classes: int = 12
    shape: tuple[int, int, int] = (32, 64, 64)  # (S, H, W)
    spacing: tuple[float, float, float] = (1.0, 1.0, 4.0)  # (x, y, z) mm
    prevalence_base: float = 0.4
    prevalence_decay: float = 0.72

    def __post_init__(self):
        if self.num_classes < 1:
            raise DataError("num_classes must be >= 1")
        if any(n < 8 for n in self.shape):
            raise DataError(f"volume shape too small: {self.shape}")


def class_prevalences(cfg: SynthConfig) -> np.ndarray:
    """Long-tailed marginal positive rates, base * decay**c per class."""
    c = np.arange(cfg.num_classes, dtype=np.float64)
    return cfg.prevalence_base * cfg.prevalence_decay ** c


def class_archetype(c: int) -> tuple[int, int]:
    """(family, band) for class c: families cycle fastest, bands next."""
    return c % NUM_FAMILIES, (c // NUM_FAMILIES) % NUM_BANDS


def _inplane_center(rng, yc, xc, ay, ax, gz, rho_max=0.55):
    phi = rng.uniform(0.0, 2.0 * np.pi)
    rho = rng.uniform(0.12, rho_max)
    return yc + rho * ay * gz * np.sin(phi), xc + rho * ax * gz * np.cos(phi)


def _slab(z0: float, dz: float, s: int) -> slice:
    """The slices within dz of z0 and a spare one on each side, against
    rounding: a mask over them covers a region that reaches no further."""
    return slice(max(0, int(np.floor(z0 - dz)) - 1), min(s, int(np.ceil(z0 + dz)) + 2))


def build_volume(rng: RngStream, labels: np.ndarray, cfg: SynthConfig) -> np.ndarray:
    """Render one volume for a fixed label row, consuming draws from `rng`
    in a fixed order (anatomy, texture, lesions by class index, distractors).
    Each landmark, lesion and distractor is drawn on the z-slab it covers."""
    s, h, w = cfg.shape
    zz = np.arange(s, dtype=np.float64)[:, None, None]
    yy = np.arange(h, dtype=np.float64)[None, :, None]
    xx = np.arange(w, dtype=np.float64)[None, None, :]
    zc, yc, xc = (s - 1) / 2.0, (h - 1) / 2.0, (w - 1) / 2.0

    # head / brain ellipsoids with mild per-sample jitter
    az = 0.47 * s * rng.uniform(0.96, 1.04)
    ay = 0.42 * h * rng.uniform(0.96, 1.04)
    ax = 0.38 * w * rng.uniform(0.96, 1.04)
    brain_k = rng.uniform(0.85, 0.90)

    ez = ((zz - zc) / az) ** 2
    ey = ((yy - yc) / ay) ** 2
    ex = ((xx - xc) / ax) ** 2
    e = ez + ey + ex
    brain = e <= brain_k ** 2
    v = np.where(e <= 1.0, SKULL_HU, AIR_HU)

    # smooth parenchymal texture
    field = gaussian_filter(rng.normal(0.0, 1.0, size=cfg.shape), sigma=(1.0, 2.0, 2.0))
    std = field.std()
    if std > 0:
        field *= 3.0 / std
    np.add(field, TISSUE_HU, out=v, where=brain)

    # z landmarks: air sinus (low), paired ventricles (mid), calc streak (high)
    sz0 = (rng.uniform(0.10, 0.22) * (s - 1))
    sy0 = yc + 0.22 * h * rng.uniform(0.9, 1.1)
    sl = _slab(sz0, 0.06 * s, s)
    sinus = (
        ((zz[sl] - sz0) / (0.06 * s)) ** 2
        + ((yy - sy0) / (0.09 * h)) ** 2
        + ((xx - xc) / (0.10 * w)) ** 2
    ) <= 1.0
    v[sl][sinus & brain[sl]] = -850.0

    vz0 = zc + rng.uniform(-0.03, 0.03) * s
    sl = _slab(vz0, 0.09 * s, s)
    for side in (-1.0, 1.0):
        vx0 = xc + side * 0.10 * w * rng.uniform(0.9, 1.1)
        vent = (
            ((zz[sl] - vz0) / (0.09 * s)) ** 2
            + ((yy - yc) / (0.16 * h)) ** 2
            + ((xx - vx0) / (0.05 * w)) ** 2
        ) <= 1.0
        v[sl][vent & brain[sl]] = 8.0

    cz0 = (rng.uniform(0.74, 0.86) * (s - 1))
    sl = _slab(cz0, 0.06 * s, s)
    calc = (
        (np.abs(zz[sl] - cz0) <= 0.06 * s)
        & (np.abs(xx - xc) <= 0.015 * w + 0.6)
        & (yy > yc - 0.05 * h)
    )
    v[sl][calc & brain[sl]] = 140.0

    # lesions, one per positive class, rendered in class order
    labels = np.asarray(labels)
    for c in range(cfg.num_classes):
        if not labels[c]:
            continue
        family, band = class_archetype(c)
        lo, hi = BAND_RANGES[band]
        # z-extent first, then a center that keeps the lesion inside its band
        dz = rng.uniform(*((1.5, 3.0), (2.0, 3.2), (2.2, 3.2), (2.4, 3.3))[family])
        dz = min(dz, 0.5 * ((hi - lo) * (s - 1) - 1.0))
        z0 = rng.uniform(lo * (s - 1) + dz + 0.2, hi * (s - 1) - dz - 0.2)
        gz = float(np.sqrt(max(1e-6, 1.0 - ((z0 - zc) / az) ** 2)))
        sl = _slab(z0, dz, s)
        zsel = np.abs(zz[sl] - z0) <= dz

        if family == 0:  # hyperdense blob
            cy, cx = _inplane_center(rng, yc, xc, ay, ax, gz)
            ry = rng.uniform(4.0, 8.0)
            rx = rng.uniform(4.0, 8.0)
            hu = rng.uniform(62.0, 80.0)
            m = ((zz[sl] - z0) / dz) ** 2 + ((yy - cy) / ry) ** 2 + ((xx - cx) / rx) ** 2
            v[sl][(m <= 1.0) & brain[sl]] = hu

        elif family == 1:  # hypodense wedge (sector about the midline axis)
            phi0 = rng.uniform(0.0, 2.0 * np.pi)
            width = rng.uniform(0.5, 0.9)
            hu = rng.uniform(4.0, 12.0)
            ang = np.arctan2((yy - yc) / ay, (xx - xc) / ax)
            in_sector = np.cos(ang - phi0) >= np.cos(width)
            rad2 = ey + ex
            v[sl][zsel & in_sector & (rad2 >= 0.01) & brain[sl]] = hu

        elif family == 2:  # hyperdense crescent along the inner skull
            phi0 = rng.uniform(0.0, 2.0 * np.pi)
            width = rng.uniform(0.7, 1.1)
            hu = rng.uniform(70.0, 90.0)
            ang = np.arctan2((yy - yc) / ay, (xx - xc) / ax)
            in_sector = np.cos(ang - phi0) >= np.cos(width)
            rim2 = brain_k ** 2 - ez[sl]  # in-plane brain radius^2 at each z
            shell = (ey + ex >= 0.60 * rim2) & (ey + ex <= rim2)
            v[sl][zsel & in_sector & shell & brain[sl]] = hu

        else:  # family 3: diffuse texture/intensity shift across the band
            shift = rng.uniform(10.0, 16.0)
            sig = rng.uniform(5.0, 8.0)
            grain = rng.normal(0.0, sig, size=cfg.shape)[sl]
            m = zsel & brain[sl]
            v[sl][m] += shift + grain[m]

    # unlabeled distractors that weakly mimic families 0 and 1
    for dz, (r_lo, r_hi), (hu_lo, hu_hi) in ((1.0, (1.0, 2.0), (110.0, 170.0)),
                                            (1.5, (1.5, 3.0), (8.0, 16.0))):
        if rng.uniform() < 0.35:
            z0 = rng.uniform(0.1, 0.9) * (s - 1)
            gz = float(np.sqrt(max(1e-6, 1.0 - ((z0 - zc) / az) ** 2)))
            cy, cx = _inplane_center(rng, yc, xc, ay, ax, gz)
            r = rng.uniform(r_lo, r_hi)
            hu = rng.uniform(hu_lo, hu_hi)
            sl = _slab(z0, dz, s)
            m = ((zz[sl] - z0) / dz) ** 2 + ((yy - cy) / r) ** 2 + ((xx - cx) / r) ** 2
            v[sl][(m <= 1.0) & brain[sl]] = hu

    # match the f32 on-disk representation exactly
    return v.astype(np.float32).astype(np.float64)


def synth_sample(index: int, cfg: SynthConfig, seed: int) -> VolumeSample:
    """Build sample `index` deterministically from (seed, index): labels
    first, then the volume, from one per-sample stream."""
    stream = RngStream(seed).child("sample", index)
    prev = class_prevalences(cfg)
    labels = (stream.uniform(size=cfg.num_classes) < prev).astype(np.uint8)
    voxels = build_volume(stream, labels, cfg)
    return VolumeSample(
        f"synth-{seed}-{index:05d}", voxels, cfg.spacing, labels, stream.stream_id
    )


def sample_label_matrix(n: int, cfg: SynthConfig, seed: int) -> np.ndarray:
    """Label rows for samples 0..n-1 without rendering any voxels; row i
    matches synth_sample(i, ...).labels exactly."""
    prev = class_prevalences(cfg)
    out = np.empty((n, cfg.num_classes), dtype=np.uint8)
    root = RngStream(seed)
    for i in range(n):
        stream = root.child("sample", i)
        out[i] = stream.uniform(size=cfg.num_classes) < prev
    return out


class SyntheticDataset:
    """Lazy dataset over synth samples [0, n): labels precomputed, voxels
    rendered on demand."""

    def __init__(self, n: int, cfg: SynthConfig, seed: int, indices=None):
        self.cfg = cfg
        self.seed = seed
        self.indices = list(range(n)) if indices is None else list(indices)
        all_labels = sample_label_matrix(
            max(self.indices) + 1 if self.indices else 0, cfg, seed
        )
        self.labels = all_labels[self.indices]
        self.ids = [f"synth-{seed}-{i:05d}" for i in self.indices]
        self.num_classes = cfg.num_classes

    def __len__(self) -> int:
        return len(self.indices)

    def sample(self, i: int) -> VolumeSample:
        return synth_sample(self.indices[i], self.cfg, self.seed)
