"""Per-class AUC, aggregate summaries, and parameter-accounting reports."""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .volumes import atomic_write


class EvaluationError(RuntimeError):
    """Raised when a metric cannot be computed (e.g. no class evaluable)."""


def auc(scores, labels) -> float | None:
    """Probability that a positive outscores a negative, ties counted 0.5
    (Mann-Whitney, via average ranks). None when either class is empty, NaN
    when a score is NaN."""
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels)
    if s.shape != y.shape or s.ndim != 1:
        raise ValueError(f"scores {s.shape} and labels {y.shape} must be equal 1-D")
    pos = y == 1
    n_pos = int(pos.sum())
    n_neg = s.size - n_pos
    if n_pos == 0 or n_neg == 0:
        return None
    if np.isnan(s).any():
        return float("nan")
    # a score's average 1-based rank is (left + right + 1) / 2 of its run of
    # ties in the sorted scores; the half-integers sum exactly
    ordered, x = np.sort(s), s[pos]
    ties = np.searchsorted(ordered, x, "left") + np.searchsorted(ordered, x, "right")
    u = (int(ties.sum()) + n_pos) / 2.0 - n_pos * (n_pos + 1) / 2.0
    return float(u / (n_pos * n_neg))


def per_class_auc(probs: np.ndarray, labels: np.ndarray) -> list[float | None]:
    p = np.asarray(probs, dtype=np.float64)
    y = np.asarray(labels)
    if p.shape != y.shape or p.ndim != 2:
        raise ValueError(f"probs {p.shape} and labels {y.shape} must be equal (N, C)")
    return [auc(p[:, c], y[:, c]) for c in range(p.shape[1])]


def aggregate(per_class: list[float | None]) -> dict:
    """Mean and population std over the evaluable classes, plus bucket
    counts: high is AUC >= 0.90, mid is 0.8 <= AUC < 0.9 (inclusive-left)."""
    vals = np.array([a for a in per_class if a is not None], dtype=np.float64)
    if vals.size == 0:
        raise EvaluationError("no class has both positives and negatives")
    return {
        "mean_auc": float(vals.mean()),
        "std_auc": float(vals.std()),  # population std
        "num_evaluated": int(vals.size),
        "num_skipped": len(per_class) - int(vals.size),
        "bucket_high": int((vals >= 0.90).sum()),
        "bucket_mid": int(((vals >= 0.80) & (vals < 0.90)).sum()),
    }


@dataclass
class MetricsReport:
    per_class_auc: list[float | None]
    mean_auc: float
    std_auc: float
    bucket_high: int
    bucket_mid: int
    n_pos: list[int]
    n_neg: list[int]
    param_table: list[tuple[str, int, bool]] = field(default_factory=list)


def evaluate(probs: np.ndarray, labels: np.ndarray, param_table=None) -> MetricsReport:
    per_class = per_class_auc(probs, labels)
    agg = aggregate(per_class)
    y = np.asarray(labels)
    n_pos = [int((y[:, c] == 1).sum()) for c in range(y.shape[1])]
    n_neg = [int(y.shape[0] - p) for p in n_pos]
    return MetricsReport(
        per_class_auc=per_class,
        mean_auc=agg["mean_auc"],
        std_auc=agg["std_auc"],
        bucket_high=agg["bucket_high"],
        bucket_mid=agg["bucket_mid"],
        n_pos=n_pos,
        n_neg=n_neg,
        param_table=list(param_table or []),
    )


def _size(part) -> int:
    return sum(t.size for t in part.parameters().values())


def param_report(model) -> list[tuple[str, int, bool]]:
    """(component, parameter count, trainable) rows plus totals. Compound
    components are broken out the way the parameter budget is usually
    discussed: backbone, adapter, experts, router, pooling query, head."""
    rows: list[tuple[str, int, bool]] = []
    frozen = sum(t.size for t in model.stub.frozen_parameters().values())
    rows.append(("backbone (frozen)", frozen, False))
    if model.lora is not None:
        rows.append(("lora adapter", _size(model.lora), True))
    if model.molre is not None:
        experts = _size(model.molre.bank)
        router = _size(model.molre.router)
        rows.append(("molre experts", experts, True))
        rows.append(("molre router", router, True))
        rows.append(("molre total", experts + router, True))
    if model.pooler is not None:
        rows.append(("pooler query", _size(model.pooler), True))
    rows.append(("classifier head", _size(model.head), True))
    rows.append(("total trainable", _size(model), True))
    rows.append(("total frozen", frozen, False))
    return rows


def format_param_table(rows) -> str:
    width = max(len(r[0]) for r in rows)
    lines = [f"{'component'.ljust(width)}  {'params':>12}  trainable"]
    for name, count, trainable in rows:
        lines.append(f"{name.ljust(width)}  {count:>12,}  {'yes' if trainable else 'no'}")
    return "\n".join(lines)


def write_report(report: MetricsReport, out_dir: Path) -> None:
    """Serialize one evaluation: a text table with one row per class and a
    machine-readable JSON summary, each written atomically."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    lines = [f"{'class':<12} {'auc':>8} {'n_pos':>7} {'n_neg':>7}"]
    for i, a in enumerate(report.per_class_auc):
        a_str = f"{a:.4f}" if a is not None else "null"
        name = f"class_{i:02d}"
        lines.append(f"{name:<12} {a_str:>8} {report.n_pos[i]:>7} {report.n_neg[i]:>7}")
    lines.append("")
    lines.append(f"mean_auc {report.mean_auc:.4f}  std_auc {report.std_auc:.4f}")
    lines.append(f"bucket_high {report.bucket_high}  bucket_mid {report.bucket_mid}")
    if report.param_table:
        lines.append("")
        lines.append(format_param_table(report.param_table))
    atomic_write(out_dir / "report.txt", ("\n".join(lines) + "\n").encode())
    atomic_write(out_dir / "report.json",
                 (json.dumps(asdict(report), indent=1, sort_keys=True) + "\n").encode())
