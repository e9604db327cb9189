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

A file that fails any check raises CheckpointError: bad magic, another format
version, a size that runs past the end of the file, bytes left after the last
record, or a record whose CRC32 fails, whose name is not UTF-8 or whose JSON
does not parse, which names the record. Every single flipped bit is caught by
one of these. A read given `names` CRCs and decodes only the tensor records
so named, and every JSON record; it still walks every record header, checks
every size against the file and rejects trailing bytes, so a truncated file
is always caught, but a flipped bit in a record it skips is not. Files are
read with `read` and `seek`, not mapped: a file cut short under a map kills
its reader.

Version 3 added the per-record CRC32; versions 1 and 2 are rejected. Files
are written atomically, through `volumes.atomic_write`."""

from __future__ import annotations

import json
import math
import os
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
    """Reads an open checkpoint front to back, checking every size against the
    file's length first; `crc` runs over the bytes read since it was reset."""

    def __init__(self, path: Path, fh):
        self.path, self.fh, self.crc = path, fh, 0
        self.size = os.fstat(fh.fileno()).st_size

    def take(self, n: int, what: str, skip: bool = False) -> bytearray:
        if n > self.size - self.fh.tell():
            raise CheckpointError(f"{self.path}: {what} runs past the end of the file "
                                  "(truncated or corrupt checkpoint)")
        buf = bytearray(0 if skip else n)
        if self.fh.readinto(buf) != len(buf):
            raise CheckpointError(f"{self.path}: the file shrank while {what} was read")
        self.fh.seek(n - len(buf), os.SEEK_CUR)
        self.crc = zlib.crc32(buf, self.crc)
        return buf

    def unpack(self, fmt: str, what: str) -> tuple:
        return struct.unpack(fmt, self.take(struct.calcsize(fmt), what))


def load_checkpoint(path: str | Path, names=None) -> tuple[dict[str, np.ndarray], dict[str, dict]]:
    """The tensors and JSON sections of the checkpoint at `path`; with `names`,
    only the tensor records so named (see the module docstring)."""
    path = Path(path)
    if not path.exists():
        raise CheckpointError(f"no checkpoint at {path}")
    with open(path, "rb") as fh:
        r = _Reader(path, fh)
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
            r.crc = 0
            kind, name_len = r.unpack("<BH", "record header")
            raw_name = bytes(r.take(name_len, "record name"))
            label = raw_name.decode("utf-8", errors="replace")
            if kind == _KIND_TENSOR:
                (ndim,) = r.unpack("<B", f"ndim of {label!r}")
                dims = r.unpack(f"<{ndim}Q", f"dims of {label!r}")
                if names is not None and label not in names:
                    r.take(8 * math.prod(dims) + 4, f"tensor {label!r}", skip=True)
                    continue
                payload = r.take(8 * math.prod(dims), f"tensor {label!r}")
            elif kind == _KIND_JSON:
                (blen,) = r.unpack("<Q", f"length of {label!r}")
                payload = r.take(blen, f"json {label!r}")
            else:
                raise CheckpointError(f"{path}: record {label!r} has unknown kind {kind}")
            crc = r.crc
            if r.unpack("<I", f"CRC32 of {label!r}") != (crc,):
                raise CheckpointError(f"{path}: record {label!r} fails its CRC32 check")
            try:
                name = raw_name.decode("utf-8")
                if kind == _KIND_JSON:
                    sections[name] = json.loads(payload)
            except ValueError as e:  # UnicodeDecodeError and JSONDecodeError
                raise CheckpointError(f"{path}: record {label!r} does not decode: {e}") from None
            if kind == _KIND_TENSOR:
                # a bytearray is writable, so the array needs no copy
                tensors[name] = np.frombuffer(payload, dtype="<f8").reshape(dims)
        if fh.tell() != r.size:
            raise CheckpointError(f"{path}: {r.size - fh.tell()} bytes after the last record")
    return tensors, sections
