"""Smoke tests for the walkthrough scripts under demos/: each runs in
process, so an API change that breaks a demo fails here."""

import runpy
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
