"""Repeat factor sampling for long-tailed multi-label data.

Each class gets a repeat factor r(c) = max(1, sqrt(t / f(c))) from its
empirical frequency f(c); each sample inherits the max over its positive
classes (1 when it has none). Per epoch the index list is expanded by
stochastic rounding — floor(r) copies plus one more with probability
frac(r) — so the expected multiplicity equals r exactly.
"""

from __future__ import annotations

import numpy as np

from .rng import RngStream


def repeat_factors(labels, threshold: float) -> np.ndarray:
    """Per-sample repeat factors from a 0/1 label matrix (N, C)."""
    if not 0.0 < threshold <= 1.0:
        raise ValueError(f"threshold must be in (0, 1], got {threshold}")
    y = np.asarray(labels, dtype=np.float64)
    freq = y.mean(axis=0)
    with np.errstate(divide="ignore"):
        r_class = np.maximum(1.0, np.sqrt(threshold / freq))
    r_class[freq == 0.0] = 1.0  # absent classes cannot ask for repeats
    # every r_class is >= 1, so a 1 in each non-positive cell leaves the max alone
    return np.where(y == 1.0, r_class, 1.0).max(axis=1, initial=1.0)


def expand_indices(factors: np.ndarray, rng: RngStream) -> np.ndarray:
    """Stochastically rounded index list: index i appears floor(r_i) times
    plus once more with probability frac(r_i)."""
    r = np.asarray(factors, dtype=np.float64)
    base = np.floor(r).astype(np.int64)
    extra = rng.uniform(size=r.shape) < (r - base)
    counts = base + extra
    return np.repeat(np.arange(r.size), counts)
