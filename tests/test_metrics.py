import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from molre.metrics import (
    EvaluationError,
    aggregate,
    auc,
    evaluate,
    format_param_table,
    param_report,
    per_class_auc,
    write_report,
)
from molre.model import SliceModel
from molre.rng import RngStream


def _pairwise_auc(scores, labels):
    # O(n^2) oracle: count positive-negative pairs, ties worth half
    s = np.asarray(scores, dtype=np.float64)
    pos = s[np.asarray(labels) == 1]
    neg = s[np.asarray(labels) != 1]
    wins = (pos[:, None] > neg[None, :]).sum()
    ties = (pos[:, None] == neg[None, :]).sum()
    return (wins + 0.5 * ties) / (len(pos) * len(neg))


def test_perfect_and_inverted_separation():
    y = np.array([0, 0, 1, 1])
    assert auc([0.1, 0.2, 0.8, 0.9], y) == 1.0
    assert auc([0.9, 0.8, 0.2, 0.1], y) == 0.0


def test_all_tied_scores_give_half():
    assert auc(np.zeros(10), np.array([0, 1] * 5)) == 0.5


def test_known_small_case():
    # pos {0.8, 0.4}, neg {0.6, 0.2}: wins 3 of 4 pairs
    got = auc([0.8, 0.4, 0.6, 0.2], [1, 1, 0, 0])
    assert abs(got - 0.75) < 1e-15


def test_matches_pairwise_oracle_with_ties():
    root = RngStream(0)
    for k in range(300):
        r = root.child("case", k)
        n = int(r.integers(2, 200))
        # coarse grid forces many exact ties
        s = np.round(r.uniform(0, 1, n) * 8) / 8
        y = (r.uniform(0, 1, n) < 0.4).astype(int)
        if y.sum() in (0, n):
            assert auc(s, y) is None
            continue
        assert abs(auc(s, y) - _pairwise_auc(s, y)) < 1e-12


def test_a_nan_score_gives_nan():
    assert np.isnan(auc([0.2, np.nan, 0.7, 0.1], [1, 0, 1, 0]))
    assert auc([np.nan, 0.5], [1, 1]) is None  # one class only: nothing to rank


def test_degenerate_classes_return_none():
    assert auc([0.3, 0.7], [1, 1]) is None
    assert auc([0.3, 0.7], [0, 0]) is None


def test_shape_validation():
    with pytest.raises(ValueError):
        auc(np.zeros((2, 2)), np.zeros((2, 2)))
    with pytest.raises(ValueError):
        per_class_auc(np.zeros(4), np.zeros(4))


def test_per_class_columns_independent():
    probs = np.array([[0.9, 0.1], [0.1, 0.9], [0.8, 0.3], [0.2, 0.7]])
    y = np.array([[1, 0], [0, 1], [1, 1], [0, 0]])
    got = per_class_auc(probs, y)
    assert got[0] == auc(probs[:, 0], y[:, 0])
    assert got[1] == auc(probs[:, 1], y[:, 1])


def test_aggregate_buckets_and_population_std():
    per = [0.95, 0.90, 0.85, 0.80, 0.75, None]
    agg = aggregate(per)
    vals = np.array([0.95, 0.90, 0.85, 0.80, 0.75])
    assert abs(agg["mean_auc"] - vals.mean()) < 1e-15
    assert abs(agg["std_auc"] - vals.std()) < 1e-15  # ddof=0
    assert agg["bucket_high"] == 2      # >= 0.90
    assert agg["bucket_mid"] == 2       # [0.80, 0.90)
    assert agg["num_evaluated"] == 5 and agg["num_skipped"] == 1


def test_aggregate_all_none_raises():
    with pytest.raises(EvaluationError):
        aggregate([None, None])


def test_evaluate_counts_positives():
    probs = np.array([[0.9, 0.2], [0.1, 0.8], [0.6, 0.4]])
    y = np.array([[1, 0], [0, 1], [1, 0]])
    rep = evaluate(probs, y)
    assert rep.n_pos == [2, 1] and rep.n_neg == [1, 2]
    assert rep.mean_auc == aggregate(per_class_auc(probs, y))["mean_auc"]


def test_param_report_totals_consistent():
    for mode in ("baseline-frozen", "lora", "molre"):
        m = SliceModel(mode=mode)
        rows = dict((r[0], r[1]) for r in param_report(m))
        live = sum(t.size for t in m.parameters().values())
        assert rows["total trainable"] == live
        assert rows["backbone (frozen)"] == sum(
            t.size for t in m.stub.frozen_parameters().values()
        )
        if mode == "molre":
            assert rows["molre total"] == rows["molre experts"] + rows["molre router"]
            assert "lora adapter" not in rows
        if mode == "lora":
            assert "molre total" not in rows


def test_format_param_table_is_readable():
    m = SliceModel(mode="molre")
    text = format_param_table(param_report(m))
    assert "component" in text.splitlines()[0]
    assert "molre router" in text
    assert "total trainable" in text


def test_write_report_files(tmp_path):
    probs = np.array([[0.9, 0.2], [0.1, 0.8], [0.6, 0.4]])
    y = np.array([[1, 0], [0, 1], [1, 0]])
    rep = evaluate(probs, y, param_table=param_report(SliceModel("lora")))
    write_report(rep, tmp_path)
    txt = (tmp_path / "report.txt").read_text()
    assert "class_01" in txt and "mean" in txt
    blob = json.loads((tmp_path / "report.json").read_text())
    assert blob["mean_auc"] == rep.mean_auc
    assert blob["n_pos"] == [2, 1]


def test_a_failed_write_leaves_the_previous_report(tmp_path, monkeypatch):
    y = np.array([[1, 0], [0, 1], [1, 0]])
    write_report(evaluate(np.array([[0.9, 0.2], [0.1, 0.8], [0.6, 0.4]]), y), tmp_path)
    before = {name: (tmp_path / name).read_bytes() for name in ("report.txt", "report.json")}
    real = os.fdopen

    class HalfWriter:
        """A file that takes half of what it is given, then fails."""

        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, data):
            self.fh.write(data[:len(data) // 2])
            raise OSError("no space left on device")

    monkeypatch.setattr(os, "fdopen", lambda fd, *args: HalfWriter(real(fd, *args)))
    with pytest.raises(OSError, match="no space left"):
        write_report(evaluate(np.array([[0.1, 0.9], [0.8, 0.2], [0.3, 0.6]]), y), tmp_path)
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


def test_importing_the_cli_leaves_out_scipy_stats():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, molre.cli; print('scipy.stats' in sys.modules)"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
