"""Sectioned binary checkpoint container.

Layout (all integers little-endian):

    magic "MLCK" | u32 format version | u32 record count
    then per record, in sorted name order:
      u8 kind | u16 name length | name utf-8
      kind 0 (tensor): u8 ndim | ndim * u64 dims | dims-product * f64 payload
      kind 1 (json):   u64 byte length | utf-8 json document
      u32 CRC32 (zlib) of the record's bytes above, from its kind byte on

Tensors are stored as raw float64, so a save/load round-trip is bit-exact;
that is what makes resumed training reproduce an uninterrupted run. The same
container holds training checkpoints and the trunk feature store.

A file that fails any check raises CheckpointError: bad magic, another
format version, a size that runs past the end of the file, bytes left after
the last record, or a record whose CRC32 does not match, which names the
record. Every single flipped bit is caught by one of these.

Version 3 added the per-record CRC32. Version 2 (no CRC32) and version 1
(one `experts.{i}.A` / `experts.{i}.B` pair per expert where version 2 has
the stacked `experts.A` / `experts.B`) are rejected. Files are written
atomically, through `volumes.atomic_write`."""

from __future__ import annotations

import json
import math
import struct
import zlib
from pathlib import Path

import numpy as np

from .volumes import atomic_write

CHECKPOINT_MAGIC = b"MLCK"
CHECKPOINT_VERSION = 3

_KIND_TENSOR = 0
_KIND_JSON = 1


class CheckpointError(RuntimeError):
    """Raised for bad magic, version mismatch, truncated or corrupt files."""


def _record(name: str, kind: int, payload) -> bytes:
    raw_name = name.encode("utf-8")
    parts = [struct.pack("<BH", kind, len(raw_name)), raw_name]
    if kind == _KIND_TENSOR:
        # asarray, not ascontiguousarray: the latter promotes 0-d to 1-d
        arr = np.asarray(payload, dtype="<f8")
        parts.append(struct.pack(f"<B{arr.ndim}Q", arr.ndim, *arr.shape))
        parts.append(arr.tobytes())
    else:
        doc = json.dumps(payload, sort_keys=True).encode("utf-8")
        parts.append(struct.pack("<Q", len(doc)))
        parts.append(doc)
    body = b"".join(parts)
    return body + struct.pack("<I", zlib.crc32(body))


def save_checkpoint(
    path: str | Path,
    tensors: dict[str, np.ndarray],
    sections: dict[str, dict] | None = None,
) -> None:
    sections = sections or {}
    overlap = set(tensors) & set(sections)
    if overlap:
        raise CheckpointError(f"names used for both tensor and json: {sorted(overlap)}")
    chunks = [CHECKPOINT_MAGIC, struct.pack("<II", CHECKPOINT_VERSION, len(tensors) + len(sections))]
    entries = [(name, _KIND_TENSOR, tensors[name]) for name in sorted(tensors)]
    entries += [(name, _KIND_JSON, sections[name]) for name in sorted(sections)]
    chunks += [_record(*entry) for entry in sorted(entries)]
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    atomic_write(path, b"".join(chunks))


class _Reader:
    """Cursor over a checkpoint's bytes; every read is bounds-checked."""

    def __init__(self, path: Path, raw: bytes):
        self.path, self.raw, self.pos = path, memoryview(raw), 0

    def take(self, n: int, what: str) -> memoryview:
        if n > len(self.raw) - self.pos:
            raise CheckpointError(f"{self.path}: {what} runs past the end of the file "
                                  "(truncated or corrupt checkpoint)")
        self.pos += n
        return self.raw[self.pos - n:self.pos]

    def unpack(self, fmt: str, what: str) -> tuple:
        return struct.unpack(fmt, self.take(struct.calcsize(fmt), what))


def load_checkpoint(path: str | Path) -> tuple[dict[str, np.ndarray], dict[str, dict]]:
    path = Path(path)
    if not path.exists():
        raise CheckpointError(f"no checkpoint at {path}")
    r = _Reader(path, path.read_bytes())
    if bytes(r.take(4, "magic")) != CHECKPOINT_MAGIC:
        raise CheckpointError(f"{path}: not a checkpoint file")
    version, count = r.unpack("<II", "header")
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"{path}: format version {version}, this build reads {CHECKPOINT_VERSION}"
        )
    tensors: dict[str, np.ndarray] = {}
    sections: dict[str, dict] = {}
    for _ in range(count):
        start = r.pos
        kind, name_len = r.unpack("<BH", "record header")
        raw_name = bytes(r.take(name_len, "record name"))
        label = raw_name.decode("utf-8", errors="replace")
        if kind == _KIND_TENSOR:
            (ndim,) = r.unpack("<B", f"ndim of {label!r}")
            dims = r.unpack(f"<{ndim}Q", f"dims of {label!r}")
            payload = r.take(8 * math.prod(dims), f"tensor {label!r}")
        elif kind == _KIND_JSON:
            (blen,) = r.unpack("<Q", f"length of {label!r}")
            payload = r.take(blen, f"json {label!r}")
        else:
            raise CheckpointError(f"{path}: record {label!r} has unknown kind {kind}")
        body = r.raw[start:r.pos]
        (stored,) = r.unpack("<I", f"CRC32 of {label!r}")
        if zlib.crc32(body) != stored:
            raise CheckpointError(f"{path}: record {label!r} fails its CRC32 check")
        name = raw_name.decode("utf-8")
        if kind == _KIND_TENSOR:
            tensors[name] = np.frombuffer(payload, dtype="<f8").reshape(dims).copy()
        else:
            sections[name] = json.loads(bytes(payload))
    if r.pos != len(r.raw):
        raise CheckpointError(f"{path}: {len(r.raw) - r.pos} bytes after the last record")
    return tensors, sections
