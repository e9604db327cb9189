"""Smoke tests for the walkthrough scripts under demos/: each runs in
process, so an API change that breaks a demo fails here."""

import json
import runpy
import shutil
from pathlib import Path

DEMOS = Path(__file__).resolve().parent.parent / "demos"


def test_adapter_basics_demo_runs(capsys):
    runpy.run_path(str(DEMOS / "01_adapter_basics.py"), run_name="__main__")
    out = capsys.readouterr().out
    assert "transparent at init: True" in out
    assert "K=1 vs plain adapter, max |diff|: 0.00e+00" in out


def test_synthetic_volumes_demo_runs(capsys):
    runpy.run_path(str(DEMOS / "02_synthetic_volumes.py"), run_name="__main__")
    out = capsys.readouterr().out
    assert "sample 17 reproducible: True" in out
    assert out.count("in [0, 1]: True") == 3


def test_training_and_evaluation_demos_run(tmp_path, capsys):
    # 03 and 04 write runs/ next to themselves, so they run from copies
    for name in ("03_small_training_run.py", "04_evaluate_and_report.py"):
        shutil.copy(DEMOS / name, tmp_path / name)
    runpy.run_path(str(tmp_path / "03_small_training_run.py"), run_name="__main__")
    out = capsys.readouterr().out
    assert "<- best" in out and "stopped at epoch" in out
    log = (tmp_path / "runs" / "demo-run" / "metrics.jsonl").read_text().splitlines()
    epochs = [json.loads(line)["epoch"] for line in log]
    assert epochs == list(range(1, len(epochs) + 1))

    runpy.run_path(str(tmp_path / "04_evaluate_and_report.py"), run_name="__main__")
    out = capsys.readouterr().out
    assert "restored mode=molre" in out and "computed and saved to features-2d-" in out
    assert (tmp_path / "runs" / "demo-run" / "report.json").exists()
    runpy.run_path(str(tmp_path / "04_evaluate_and_report.py"), run_name="__main__")
    assert "read from features-2d-" in capsys.readouterr().out
