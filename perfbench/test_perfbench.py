"""Self-tests of the benchmark at tiny sizes. Run from the repository root:

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

TINY = workloads.Sizes(
    train_studies=40,
    val_studies=24,
    train_epochs=2,
    cli_epochs=1,
    cli_setups=2,
    cli_set=("volume_shape=8,16,16", "num_samples=30", "batch_size=4"),
)
SEED = 5
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def results(tmp_path_factory):
    """One untraced and one traced tiny measurement per workload."""
    out = {}
    for name in workloads.WORKLOADS:
        for trace in (False, True):
            work = tmp_path_factory.mktemp(f"{name}-{int(trace)}")
            out[name, trace] = run.measure(name, SEED, 0.0, trace, TINY, work)
    return out


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_every_named_metric_prints_with_its_unit(results, name, trace):
    line = run.result_line(results[name, trace], trace)
    wanted = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in line["metrics"].items()} == {m["name"]: m["unit"] for m in wanted}
    assert all(isinstance(v["value"], float) for v in line["metrics"].values())
    if not trace:
        assert all(v["value"] > 0 for v in line["metrics"].values())
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    printed = "\n".join(run.report(results[name, trace], {"seed": SEED}, trace))
    for m in wanted:
        assert m["name"] in printed


def test_benchmark_json_matches_the_metric_tables():
    assert BENCHMARK["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END
    for m in BENCHMARK["end_to_end"]:
        assert m["better"] == ("higher" if m["name"] in run.RATES else "lower")
    layers = [(m.name, m.unit, m.better) for m in tracing.LAYER_METRICS]
    layers += [(f"trace.overhead.{k}", "share", "lower") for k in run.END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]] == layers


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_spans_nest_with_nonnegative_self_time(name):
    tracer = tracing.Tracer()
    with tracing.patched(tracer):
        workloads.WORKLOADS[name](SEED, TINY, _work(name))
    spans = tracer.spans
    assert spans
    for s in spans:
        assert s.start <= s.end
        if s.parent >= 0:
            p = spans[s.parent]
            assert p.start <= s.start and s.end <= p.end
    assert min(tracer.self_times()) >= -1e-9


def test_self_time_excludes_child_spans():
    tracer = tracing.Tracer()
    tracer.spans = [
        tracing.Span("parent", 0.0, 10.0),
        tracing.Span("child", 2.0, 5.0, parent=0),
        tracing.Span("grandchild", 3.0, 4.0, parent=1),
        tracing.Span("child", 6.0, 7.0, parent=0),
    ]
    assert tracer.self_times() == [6.0, 2.0, 1.0, 1.0]


def _work(name: str) -> Path:
    path = ROOT / ".perfbench_out" / f"selftest-{name}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_wrapping_leaves_outputs_bitwise_identical(results, name):
    result = results[name, True]
    assert not result["failures"]
    plain = workloads.WORKLOADS[name](SEED, TINY, _work(name))
    tracer = tracing.Tracer()
    with tracing.patched(tracer):
        traced = workloads.WORKLOADS[name](SEED, TINY, _work(name))
    assert plain.outputs and run._fingerprint(traced.outputs) == run._fingerprint(plain.outputs)


def test_patching_is_undone():
    import molre.adapters
    import molre.training

    before = (molre.training.focal_loss, molre.adapters.Router.__dict__["forward_cached"])
    with tracing.patched(tracing.Tracer()):
        assert molre.training.focal_loss is not before[0]
    assert (molre.training.focal_loss, molre.adapters.Router.__dict__["forward_cached"]) == before


def test_a_differing_repeat_is_a_failed_operation():
    first = workloads.Repeat(outputs=[(0.5, 0.75)], attempted=3)
    same = workloads.Repeat(outputs=[(0.5, 0.75)], attempted=3)
    off = workloads.Repeat(outputs=[(0.5, 0.75 + 2**-52)], attempted=3)
    assert run.check_repeats([first, same], []) == (7, [])
    attempted, failures = run.check_repeats([first, same], [off])
    assert attempted == 11 and len(failures) == 1 and "traced repeat" in failures[0]


def test_a_deleted_target_is_reported_absent_by_name(monkeypatch, results):
    import molre.adapters

    monkeypatch.delattr(molre.adapters, "LoraAdapter")
    result = run.measure("train-molre", SEED, 0.0, True, TINY, _work("absent"))
    assert not result["failures"]
    assert "molre.adapters:LoraAdapter.delta" in result["absent_targets"]
    assert result["layers"]["adapters.lora.fwd_s"] is None
    assert result["layers"]["adapters.bank.fwd_s"] > 0
    line = run.result_line(result, True)
    assert line["metrics"]["adapters.lora.fwd_s"]["value"] is None
    assert "adapters.lora.fwd_s" in "\n".join(
        l for l in run.report(result, {}, True) if "ABSENT" in l
    )


def test_a_span_that_never_fires_on_its_workload_is_flagged(monkeypatch, results):
    assert results["train-molre", True]["never_fired"] == []
    assert results["cli-cycle", True]["never_fired"] == []
    lora = next(m for m in tracing.LAYER_METRICS if m.name == "adapters.lora.fwd_s")
    monkeypatch.setattr(tracing, "LAYER_METRICS", (replace(lora, fires_on=("train-molre",)),))
    result = run.measure("train-molre", SEED, 0.0, True, TINY, _work("flag"))
    assert result["never_fired"] == ["adapters.lora.fwd_s"]
    assert any("FLAG" in l for l in run.report(result, {}, True))


def test_layers_stress_their_workloads(results):
    molre, cli = (results[n, True] for n in ("train-molre", "cli-cycle"))
    assert molre["layers"]["adapters.bank.fwd_s"] > 0 and molre["layers"]["adapters.lora.fwd_s"] == 0
    assert cli["layers"]["adapters.lora.fwd_s"] > 0 and cli["layers"]["adapters.bank.fwd_s"] > 0
    assert molre["layers"]["pipeline.trunk2d_s"] == 0 and molre["shares"]["trunk"] == 0
    assert cli["layers"]["pipeline.trunk.slices"] > 0
    assert cli["layers"]["pipeline.trunk.unique_ratio"] == pytest.approx(1 / 3)


def test_end_to_end_takes_medians_over_all_repeats():
    repeats = [
        workloads.Repeat(setup_s=[1.0, 3.0], cycle_s=[5.0, 6.0], train=[(2.0, 10.0)], score=[(1.0, 4.0)]),
        workloads.Repeat(setup_s=[2.0], cycle_s=[4.0], train=[(1.0, 10.0), (4.0, 10.0)],
                         score=[(2.0, 4.0), (4.0, 4.0)]),
    ]
    assert run.end_to_end(repeats) == {
        "setup_s": 2.0, "cycle_s": 5.0, "train_samples_per_s": 5.0, "val_studies_per_s": 2.0,
    }


def test_percentiles_keep_ten_samples_beyond():
    assert set(run.percentiles(list(range(19)))) == {"n", "p50"}
    assert run.percentiles([float(i) for i in range(100)])["p90"] == 89.0
    assert "p99" in run.percentiles([1.0] * 1000)


def test_refuses_to_run_without_the_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train-molre", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
