import json

import numpy as np
import pytest

from molre.cli import _resolve_config, build_parser, main
from molre.training import NumericalAbort
from molre.volumes import DiskDataset

TINY = [
    "--set", "volume_shape=8,16,16",
    "--set", "num_classes=3",
    "--set", "num_samples=20",
    "--set", "train_frac=0.6",
    "--set", "val_frac=0.2",
    "--set", "test_frac=0.2",
    "--set", "feature_dim=8",
    "--set", "num_experts=3",
    "--set", "rank=2",
    "--set", "router_hidden=5",
    "--set", "batch_size=4",
    "--set", "min_epochs=1",
    "--set", "patience=1",
    "--set", "max_epochs=2",
]


def _synth(tmp_path):
    data_dir = tmp_path / "data"
    code = main(["synth", *TINY, "--out", str(data_dir)])
    assert code == 0
    return data_dir


# -- flag plumbing -------------------------------------------------------------


def test_resolve_config_applies_flags(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("gamma = 1.5\nrank = 4\n")
    args = build_parser().parse_args(
        ["train", "--config", str(cfg_file), "--set", "rank=2",
         "--seed", "9", "--out", "elsewhere"]
    )
    cfg = _resolve_config(args)
    assert cfg.gamma == 1.5
    assert cfg.rank == 2  # --set wins over the file
    assert cfg.seed == 9
    assert cfg.out_dir == "elsewhere"


def test_count_params_prints_table(capsys):
    assert main(["count-params"]) == 0
    out = capsys.readouterr().out
    assert "total" in out.lower()
    assert "router" in out


def test_missing_subcommand_exits_config():
    assert main([]) == 2


# -- synth ----------------------------------------------------------------


def test_synth_writes_dataset_and_manifest(tmp_path):
    data_dir = _synth(tmp_path)
    manifest = json.loads((data_dir / "manifest.json").read_text())
    assert manifest["num_classes"] == 3
    assert manifest["volume_shape"] == [8, 16, 16]
    assert len(manifest["samples"]) == 20
    splits = [r["split"] for r in manifest["samples"]]
    assert splits.count("train") == 12 and splits.count("val") == 4 and splits.count("test") == 4
    for row in manifest["samples"]:
        assert (data_dir / row["file"]).exists()
    ds = DiskDataset(data_dir, "train")
    assert len(ds) == 12
    s = ds.sample(0)
    assert s.voxels.shape == (8, 16, 16)
    assert np.array_equal(ds.labels[0], manifest["samples"][0]["labels"])


def test_synth_bad_override_exits_config(tmp_path):
    assert main(["synth", "--set", "no_such_key=1", "--out", str(tmp_path / "d")]) == 2
    assert main(["synth", "--set", "gamma=not_a_number", "--out", str(tmp_path / "d")]) == 2


def test_config_file_error_exits_config(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("mystery_key = 3\n")
    assert main(["count-params", "--config", str(bad)]) == 2


# -- train / eval ------------------------------------------------------------


def test_train_eval_roundtrip(tmp_path, capsys):
    data_dir = _synth(tmp_path)
    run_dir = tmp_path / "run"
    code = main([
        "train", *TINY,
        "--set", f"data_dir={data_dir}",
        "--out", str(run_dir),
    ])
    assert code == 0
    assert (run_dir / "best.ckpt").exists()
    assert (run_dir / "last.ckpt").exists()
    records = [json.loads(l) for l in (run_dir / "metrics.jsonl").read_text().splitlines()]
    assert records[-1]["stop"] is True
    out = capsys.readouterr().out
    assert "best val mean AUC" in out

    eval_dir = tmp_path / "eval"
    code = main([
        "eval", "--checkpoint", str(run_dir / "best.ckpt"),
        "--split", "test", "--out", str(eval_dir),
    ])
    assert code == 0
    report = json.loads((eval_dir / "report.json").read_text())
    assert len(report["per_class_auc"]) == 3
    assert (eval_dir / "report.txt").exists()
    assert "mean AUC" in capsys.readouterr().out


def test_train_without_data_dir_exits_data(tmp_path):
    assert main(["train", *TINY, "--out", str(tmp_path / "run")]) == 3


def test_eval_missing_checkpoint_exits_data(tmp_path):
    assert main(["eval", "--checkpoint", str(tmp_path / "nope.ckpt")]) == 3


def test_eval_split_without_evaluable_class_exits_data(tmp_path, capsys):
    data_dir = _synth(tmp_path)
    run_dir = tmp_path / "run"
    assert main(["train", *TINY, "--set", f"data_dir={data_dir}", "--out", str(run_dir)]) == 0
    # every test study negative for every class: no class has both labels
    manifest_path = data_dir / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    for row in manifest["samples"]:
        if row["split"] == "test":
            row["labels"] = [0] * len(row["labels"])
    manifest_path.write_text(json.dumps(manifest))
    capsys.readouterr()
    code = main(["eval", "--checkpoint", str(run_dir / "best.ckpt"), "--split", "test",
                 "--out", str(tmp_path / "ev")])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("data error:") and "both" in err


@pytest.mark.parametrize("override", ["rank=4", "stub_seed=99"])
def test_eval_rejects_checkpoint_that_does_not_match_the_run(tmp_path, capsys, override):
    # rank changes a tensor shape; stub_seed changes only the frozen features
    data_dir = _synth(tmp_path)
    run_dir = tmp_path / "run"
    assert main(["train", *TINY, "--set", f"data_dir={data_dir}", "--out", str(run_dir)]) == 0
    capsys.readouterr()
    code = main(["eval", "--checkpoint", str(run_dir / "best.ckpt"), "--split", "test",
                 "--set", override, "--out", str(tmp_path / "ev")])
    assert code == 3
    err = capsys.readouterr().err
    key = override.split("=")[0]
    assert err.startswith("data error:") and f"this run has {key}=" in err
    assert "Traceback" not in err
    assert not (tmp_path / "ev").exists()


def test_numerical_abort_exits_4(monkeypatch, tmp_path):
    data_dir = _synth(tmp_path)

    class Boom:
        def __init__(self, *a, **k):
            raise NumericalAbort("synthetic blow-up")

    monkeypatch.setattr("molre.cli.Trainer", Boom)
    code = main(["train", *TINY, "--set", f"data_dir={data_dir}",
                 "--out", str(tmp_path / "run")])
    assert code == 4


def test_eval_respects_split_override(tmp_path):
    data_dir = _synth(tmp_path)
    run_dir = tmp_path / "run"
    main(["train", *TINY, "--set", f"data_dir={data_dir}", "--out", str(run_dir)])
    out_val = tmp_path / "ev"
    code = main(["eval", "--checkpoint", str(run_dir / "best.ckpt"),
                 "--split", "val", "--out", str(out_val)])
    assert code == 0
    report = json.loads((out_val / "report.json").read_text())
    manifest = json.loads((data_dir / "manifest.json").read_text())
    val_labels = np.array([r["labels"] for r in manifest["samples"] if r["split"] == "val"])
    assert report["n_pos"] == val_labels.sum(axis=0).tolist()
    # seed 7 happens to leave class 1 one-sided in this val split
    assert report["per_class_auc"][1] is None
