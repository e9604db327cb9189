"""Volume samples, the on-disk voxel format, and dataset manifests.

A dataset on disk is one `manifest.json` (volume shape, sample ids, split
assignment, labels, prevalence table) plus one binary file per volume:

    magic "MLVX" | u32 version | u32 S, H, W | f32 spacing x, y, z
    | S*H*W little-endian f32 voxels, row-major

Round-trips are bit-exact: voxel values are quantized through f32 at
generation time, so write -> read -> write reproduces identical bytes.

Every file is written atomically: to a uniquely named temporary file in the
same directory, then renamed over the target, so a reader never sees half a
file and two writers of the same file never share a temporary.
`read_manifest` is the one place the manifest's schema is checked.
"""

from __future__ import annotations

import json
import os
import secrets
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

VOLUME_MAGIC = b"MLVX"
VOLUME_VERSION = 1
MANIFEST_NAME = "manifest.json"
_HEADER = struct.Struct("<4sIIIIfff")


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


def atomic_write(path: str | Path, data: bytes) -> None:
    """Write `data` to `path` through a unique temporary file in the same
    directory, renamed over `path`; the file gets the umask's permissions."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{secrets.token_hex(8)}.tmp")
    fd = os.open(tmp, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o666)
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def write_volume(path: Path, sample: VolumeSample) -> None:
    s, h, w = sample.voxels.shape
    header = _HEADER.pack(
        VOLUME_MAGIC, VOLUME_VERSION, s, h, w, *[float(x) for x in sample.spacing]
    )
    payload = np.ascontiguousarray(sample.voxels, dtype="<f4").tobytes()
    atomic_write(path, header + payload)


def read_volume(path: Path, sample_id: str, labels, stream_id: int = 0) -> VolumeSample:
    with open(path, "rb") as fh:
        head = fh.read(_HEADER.size)
        if head[:4] != VOLUME_MAGIC:
            raise DataError(f"{path}: bad magic {head[:4]!r}")
        if len(head) != _HEADER.size:
            raise DataError(f"{path}: truncated header")
        _, version, s, h, w, sx, sy, sz = _HEADER.unpack(head)
        if version != VOLUME_VERSION:
            raise DataError(f"{path}: unsupported volume format version {version}")
        n = 4 * s * h * w
        # checked before reading, so a corrupt shape cannot ask for a huge buffer
        if os.fstat(fh.fileno()).st_size < _HEADER.size + n:
            raise DataError(f"{path}: truncated voxel payload")
        raw = fh.read(n)
    voxels = np.frombuffer(raw, dtype="<f4").reshape(s, h, w).astype(np.float64)
    return VolumeSample(sample_id, voxels, (sx, sy, sz), labels, stream_id)


def write_manifest(root: Path, manifest: dict) -> None:
    doc = json.dumps(manifest, indent=1, sort_keys=True) + "\n"
    atomic_write(Path(root) / MANIFEST_NAME, doc.encode("utf-8"))


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _check_key(where: str, doc: dict, key: str, ok, what: str) -> None:
    if key not in doc:
        raise DataError(f"{where}: missing key {key!r}")
    if not ok(doc[key]):
        raise DataError(f"{where}: {key!r} must be {what}, got {doc[key]!r:.40}")


# (key, check, what the check wants) for the manifest and for each sample
_MANIFEST_KEYS = (
    ("num_classes", lambda v: _is_int(v) and v >= 1, "a positive int"),
    ("volume_shape", lambda v: isinstance(v, list) and len(v) == 3
     and all(_is_int(x) and x >= 1 for x in v), "a list of 3 positive ints"),
    ("samples", lambda v: isinstance(v, list), "a list"),
)
_SAMPLE_KEYS = (
    ("id", lambda v: isinstance(v, str), "a string"),
    ("file", lambda v: isinstance(v, str) and v != "", "a file name"),
    ("split", lambda v: isinstance(v, str), "a string"),
    # JSON gives exact ints, so `type is int` leaves out bools as `_is_int` does
    ("labels", lambda v: isinstance(v, list) and set(map(type, v)) <= {int} and set(v) <= {0, 1},
     "a list of 0/1 ints"),
)


def read_manifest(root: Path) -> dict:
    """The manifest of the dataset at `root`, schema-checked: a JSON object
    with a positive int `num_classes`, the (S, H, W) `volume_shape` of every
    volume, and a `samples` list whose entries each
    have a string `id`, `file` and `split`, `num_classes` 0/1 `labels` and
    an optional int `stream`. Raises DataError naming the key and sample."""
    path = Path(root) / MANIFEST_NAME
    if not path.exists():
        raise DataError(f"no manifest at {path}")
    try:
        manifest = json.loads(path.read_bytes())
    except ValueError as e:
        raise DataError(f"{path}: not valid JSON ({e})") from None
    if not isinstance(manifest, dict):
        raise DataError(f"{path}: top level must be an object, got {type(manifest).__name__}")
    for key, ok, what in _MANIFEST_KEYS:
        _check_key(str(path), manifest, key, ok, what)
    num_classes = manifest["num_classes"]
    for i, row in enumerate(manifest["samples"]):
        where = f"{path}: sample {i}"
        if not isinstance(row, dict):
            raise DataError(f"{where} must be an object, got {type(row).__name__}")
        if isinstance(row.get("id"), str):
            where += f" ({row['id']!r})"
        for key, ok, what in _SAMPLE_KEYS:
            _check_key(where, row, key, ok, what)
        if len(row["labels"]) != num_classes:
            raise DataError(
                f"{where}: 'labels' has {len(row['labels'])} entries, num_classes is {num_classes}"
            )
        if "stream" in row:
            _check_key(where, row, "stream", _is_int, "an int")
    return manifest


class DiskDataset:
    """Lazy view over one split of an on-disk dataset, or over every sample
    in manifest order when `split` is None. `index` holds each row's
    position in the manifest; a `manifest` already read is not read again."""

    def __init__(self, root: Path, split: str | None = None, manifest: dict | None = None):
        self.root = Path(root)
        self.manifest = manifest = read_manifest(self.root) if manifest is None else manifest
        self.index = [
            i for i, r in enumerate(manifest["samples"]) if split is None or r["split"] == split
        ]
        rows = [manifest["samples"][i] for i in self.index]
        if not rows:
            raise DataError(f"split {split!r} not present in {self.root}")
        self.split = split
        self.num_classes = manifest["num_classes"]
        self.volume_shape = tuple(manifest["volume_shape"])
        self.rows = rows
        self.labels = np.array([r["labels"] for r in rows], dtype=np.uint8)
        self.ids = [r["id"] for r in rows]

    def __len__(self) -> int:
        return len(self.rows)

    def sample(self, i: int) -> VolumeSample:
        row = self.rows[i]
        path = self.root / row["file"]
        sample = read_volume(path, row["id"], row["labels"], row.get("stream", 0))
        if sample.voxels.shape != self.volume_shape:
            raise DataError(
                f"{path}: volume is {sample.voxels.shape}, the manifest's volume_shape is "
                f"{self.volume_shape}"
            )
        return sample
