"""The benchmark under perfbench/ traces library functions by name and reads
a deleted one as absent. Checking the names here makes a library change that
drops one fail the tier-1 suite too; a change that means to delete a traced
name remaps it in the benchmark first."""

from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_traced_name_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    assert tracing.absent_targets() == []
