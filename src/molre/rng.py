"""Deterministic, splittable random streams.

Every source of randomness in the package flows through an `RngStream`, a
thin wrapper over numpy's counter-based Philox bit generator keyed by
(seed, stream_id). Identical (seed, stream_id) pairs replay bitwise; child
streams are derived by hashing labels into fresh stream ids, so per-sample /
per-epoch streams are independent of iteration order and never need to be
serialized — a stream is reconstructible from its key alone.
"""

from __future__ import annotations

import hashlib

import numpy as np

_MASK64 = (1 << 64) - 1


def _mix(*parts) -> int:
    """Stable 64-bit hash of a label path (ints and strings)."""
    h = hashlib.blake2b(digest_size=8)
    for p in parts:
        if isinstance(p, (int, np.integer)):
            h.update(b"i" + int(p).to_bytes(8, "little", signed=False))
        else:
            h.update(b"s" + str(p).encode("utf-8"))
        h.update(b"\x00")
    return int.from_bytes(h.digest(), "little")


class RngStream:
    """One independent random stream identified by (seed, stream_id)."""

    def __init__(self, seed: int, stream_id: int = 0):
        self.seed = int(seed) & _MASK64
        self.stream_id = int(stream_id) & _MASK64
        key = np.array([self.seed, self.stream_id], dtype=np.uint64)
        self._gen = np.random.Generator(np.random.Philox(key=key))

    def child(self, *labels) -> "RngStream":
        """Derive an independent stream from a label path, e.g.
        ``root.child("augment", epoch, sample_id)``."""
        return RngStream(self.seed, _mix(self.stream_id, *labels))

    def uniform(self, low=0.0, high=1.0, size=None):
        return self._gen.uniform(low, high, size)

    def normal(self, loc=0.0, scale=1.0, size=None):
        return self._gen.normal(loc, scale, size)

    def integers(self, low, high=None, size=None):
        return self._gen.integers(low, high, size)

    def bernoulli(self, p, size=None):
        return self._gen.uniform(0.0, 1.0, size) < p

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)
