"""Multi-label focal loss with prevalence-based class weights.

Per element, with z the logit, p = sigmoid(z) and a_c the class weight:

    label 1:  a_c * (1 - p)^gamma * (-ln p)
    label 0:  (1 - a_c) * p^gamma * (-ln(1 - p))

averaged over batch * classes. gamma=0 with a_c=0.5 reduces to half the
binary cross-entropy. Both functions take logits: ln p = -logaddexp(0, -z)
and ln(1 - p) = -logaddexp(0, z) are finite at any logit, so nothing is
clamped, and a confidently wrong logit keeps its full gradient.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class FocalLossConfig:
    gamma: float = 2.0
    class_weights: np.ndarray | float = 0.5  # a_c per class, or one shared value

    def weights_for(self, num_classes: int) -> np.ndarray:
        w = np.asarray(self.class_weights, dtype=np.float64)
        if w.ndim == 0:
            w = np.full(num_classes, float(w))
        if w.shape != (num_classes,):
            raise ValueError(f"expected {num_classes} class weights, got {w.shape}")
        return w


def _terms(logits, labels, cfg: FocalLossConfig) -> tuple:
    """The positive mask, the class weights, ln p and ln(1 - p) of a (B, C)
    batch of logits."""
    z = np.asarray(getattr(logits, "data", logits), dtype=np.float64)
    y = np.asarray(labels, dtype=np.float64)
    if z.shape != y.shape:
        raise ValueError(f"logits {z.shape} and labels {y.shape} differ")
    with np.errstate(invalid="ignore"):  # a NaN logit's loss is NaN: the trainer reports it
        lp, lq = -np.logaddexp(0.0, -z), -np.logaddexp(0.0, z)
    return y == 1.0, cfg.weights_for(z.shape[-1]), lp, lq


def focal_loss(logits, labels, cfg: FocalLossConfig) -> float:
    """Mean focal loss over a (B, C) batch of logits."""
    pos, a, lp, lq = _terms(logits, labels, cfg)
    g = cfg.gamma
    loss = np.where(pos, a * np.exp(g * lq) * -lp, (1.0 - a) * np.exp(g * lp) * -lq)
    return float(np.mean(loss))


def focal_loss_backward(logits, labels, cfg: FocalLossConfig) -> np.ndarray:
    """d(mean focal loss)/d(logits)."""
    pos, a, lp, lq = _terms(logits, labels, cfg)
    g = cfg.gamma
    p, q = np.exp(lp), np.exp(lq)
    # d/dz of  -a q^g ln p  and of  -(1-a) p^g ln q,  with dp/dz = p q
    dpos = a * q ** g * (g * p * lp - q)
    dneg = (1.0 - a) * p ** g * (p - g * q * lq)
    return np.where(pos, dpos, dneg) / pos.size


def prevalence_weights(
    labels, clamp_lo: float = 0.05, clamp_hi: float = 0.95
) -> np.ndarray:
    """Per-class weights a_c = clamp(1 - prevalence_c, lo, hi) from a 0/1
    label matrix (N, C). Rare positives get weights near the ceiling."""
    y = np.asarray(labels, dtype=np.float64)
    if y.ndim != 2 or y.shape[0] < 1:
        raise ValueError(f"expected a non-empty (N, C) label matrix, got {y.shape}")
    prevalence = y.mean(axis=0)
    return np.clip(1.0 - prevalence, clamp_lo, clamp_hi)
