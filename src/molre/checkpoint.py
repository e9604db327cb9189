"""Sectioned binary checkpoint container.

Layout (all integers little-endian):

    magic "MLCK" | u32 format version | u32 section count
    then per section, in sorted name order:
      u8 kind | u16 name length | name utf-8
      kind 0 (tensor): u8 ndim | ndim * u64 dims | dims-product * f64 payload
      kind 1 (json):   u64 byte length | utf-8 json document

Tensors are stored as raw float64, so a save/load round-trip is bit-exact;
that is what makes resumed training reproduce an uninterrupted run.

Version 2 stores each expert bank as two stacked tensors, `experts.A` and
`experts.B`; version 1 stored one `experts.{i}.A` / `experts.{i}.B` pair per
expert and is rejected."""

from __future__ import annotations

import json
import struct
from pathlib import Path

import numpy as np

CHECKPOINT_MAGIC = b"MLCK"
CHECKPOINT_VERSION = 2

_KIND_TENSOR = 0
_KIND_JSON = 1


class CheckpointError(RuntimeError):
    """Raised for bad magic, version mismatch, or truncated files."""


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
    for name, kind, payload in sorted(entries):
        raw_name = name.encode("utf-8")
        chunks.append(struct.pack("<BH", kind, len(raw_name)))
        chunks.append(raw_name)
        if kind == _KIND_TENSOR:
            # asarray, not ascontiguousarray: the latter promotes 0-d to 1-d
            arr = np.asarray(payload, dtype="<f8")
            chunks.append(struct.pack("<B", arr.ndim))
            chunks.append(struct.pack(f"<{arr.ndim}Q", *arr.shape) if arr.ndim else b"")
            chunks.append(arr.tobytes())
        else:
            doc = json.dumps(payload, sort_keys=True).encode("utf-8")
            chunks.append(struct.pack("<Q", len(doc)))
            chunks.append(doc)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(path.suffix + ".tmp")
    with open(tmp, "wb") as fh:
        fh.write(b"".join(chunks))
    tmp.replace(path)


def _read_exact(fh, n: int, what: str) -> bytes:
    raw = fh.read(n)
    if len(raw) != n:
        raise CheckpointError(f"truncated checkpoint while reading {what}")
    return raw


def load_checkpoint(path: str | Path) -> tuple[dict[str, np.ndarray], dict[str, dict]]:
    path = Path(path)
    if not path.exists():
        raise CheckpointError(f"no checkpoint at {path}")
    tensors: dict[str, np.ndarray] = {}
    sections: dict[str, dict] = {}
    with open(path, "rb") as fh:
        if _read_exact(fh, 4, "magic") != CHECKPOINT_MAGIC:
            raise CheckpointError(f"{path}: not a checkpoint file")
        version, count = struct.unpack("<II", _read_exact(fh, 8, "header"))
        if version != CHECKPOINT_VERSION:
            raise CheckpointError(
                f"{path}: format version {version}, this build reads {CHECKPOINT_VERSION}"
            )
        for _ in range(count):
            kind, name_len = struct.unpack("<BH", _read_exact(fh, 3, "section header"))
            name = _read_exact(fh, name_len, "section name").decode("utf-8")
            if kind == _KIND_TENSOR:
                (ndim,) = struct.unpack("<B", _read_exact(fh, 1, "ndim"))
                dims = struct.unpack(f"<{ndim}Q", _read_exact(fh, 8 * ndim, "dims")) if ndim else ()
                n = int(np.prod(dims, dtype=np.int64)) if ndim else 1
                raw = _read_exact(fh, 8 * n, f"tensor {name}")
                tensors[name] = np.frombuffer(raw, dtype="<f8").reshape(dims).copy()
            elif kind == _KIND_JSON:
                (blen,) = struct.unpack("<Q", _read_exact(fh, 8, "json length"))
                sections[name] = json.loads(_read_exact(fh, blen, f"json {name}"))
            else:
                raise CheckpointError(f"{path}: unknown section kind {kind}")
    return tensors, sections
