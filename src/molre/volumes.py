"""Volume samples, the on-disk voxel format, and dataset manifests.

A dataset on disk is one `manifest.json` (sample ids, split assignment,
labels, prevalence table) plus one binary file per volume:

    magic "MLVX" | u32 version | u32 S, H, W | f32 spacing x, y, z
    | S*H*W little-endian f32 voxels, row-major

Round-trips are bit-exact: voxel values are quantized through f32 at
generation time, so write -> read -> write reproduces identical bytes.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

VOLUME_MAGIC = b"MLVX"
VOLUME_VERSION = 1
MANIFEST_NAME = "manifest.json"


class DataError(RuntimeError):
    """Raised for malformed volume files, manifests, or missing splits."""


@dataclass
class VolumeSample:
    """One study: an HU voxel grid with spacing metadata and multi-hot labels."""

    sample_id: str
    voxels: np.ndarray          # (S, H, W) float64, HU-like
    spacing: tuple[float, float, float]  # (x, y, z) millimeters
    labels: np.ndarray          # (C,) 0/1
    stream_id: int = 0          # id of the rng stream that owns this sample

    def __post_init__(self):
        self.voxels = np.asarray(self.voxels, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.uint8)
        if self.voxels.ndim != 3:
            raise DataError(f"voxels must be (S, H, W), got {self.voxels.shape}")
        if any(s <= 0 for s in self.spacing):
            raise DataError(f"spacing must be positive, got {self.spacing}")
        if not np.all(np.isfinite(self.voxels)):
            raise DataError(f"sample {self.sample_id}: non-finite voxels")


def write_volume(path: Path, sample: VolumeSample) -> None:
    s, h, w = sample.voxels.shape
    header = VOLUME_MAGIC + struct.pack(
        "<IIIIfff", VOLUME_VERSION, s, h, w, *[float(x) for x in sample.spacing]
    )
    payload = np.ascontiguousarray(sample.voxels, dtype="<f4").tobytes()
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(payload)


def read_volume(path: Path, sample_id: str, labels, stream_id: int = 0) -> VolumeSample:
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != VOLUME_MAGIC:
            raise DataError(f"{path}: bad magic {magic!r}")
        version, s, h, w, sx, sy, sz = struct.unpack("<IIIIfff", fh.read(28))
        if version != VOLUME_VERSION:
            raise DataError(f"{path}: unsupported volume format version {version}")
        raw = fh.read(4 * s * h * w)
        if len(raw) != 4 * s * h * w:
            raise DataError(f"{path}: truncated voxel payload")
    voxels = np.frombuffer(raw, dtype="<f4").reshape(s, h, w).astype(np.float64)
    return VolumeSample(sample_id, voxels, (sx, sy, sz), labels, stream_id)


def write_manifest(root: Path, manifest: dict) -> None:
    with open(Path(root) / MANIFEST_NAME, "w") as fh:
        json.dump(manifest, fh, indent=1, sort_keys=True)
        fh.write("\n")


def read_manifest(root: Path) -> dict:
    path = Path(root) / MANIFEST_NAME
    if not path.exists():
        raise DataError(f"no manifest at {path}")
    with open(path) as fh:
        return json.load(fh)


class DiskDataset:
    """Lazy view over one split of an on-disk dataset."""

    def __init__(self, root: Path, split: str):
        self.root = Path(root)
        manifest = read_manifest(self.root)
        rows = [r for r in manifest["samples"] if r["split"] == split]
        if not rows:
            raise DataError(f"split {split!r} not present in {self.root}")
        self.split = split
        self.num_classes = manifest["num_classes"]
        self.rows = rows
        self.labels = np.array([r["labels"] for r in rows], dtype=np.uint8)
        self.ids = [r["id"] for r in rows]

    def __len__(self) -> int:
        return len(self.rows)

    def sample(self, i: int) -> VolumeSample:
        row = self.rows[i]
        return read_volume(
            self.root / row["file"], row["id"], row["labels"], row.get("stream", 0)
        )
