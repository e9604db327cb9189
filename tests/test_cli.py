import hashlib
import json
import os
import re
import shutil
import signal

import numpy as np
import pytest

from molre.checkpoint import load_checkpoint, save_checkpoint
from molre.cli import _resolve_config, build_parser, main
from molre.synthetic import synth_sample
from molre.training import NumericalAbort
from molre.volumes import DataError, DiskDataset, write_volume

TINY = [
    "--set", "volume_shape=8,16,16",
    "--set", "num_classes=3",
    "--set", "num_samples=20",
    "--set", "train_frac=0.6",
    "--set", "val_frac=0.2",
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


@pytest.mark.parametrize("overrides", [
    ["stub_channels="],
    ["stub_channels=4,0,4"],
    ["stub_channels=4,4,4", "rank=8"],  # rank above the trunk width the adapters read
])
def test_count_params_rejects_stub_channels_the_trunk_cannot_build(capsys, overrides):
    sets = [arg for ov in overrides for arg in ("--set", ov)]
    assert main(["count-params", *sets]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "stub_channels" in err
    assert "Traceback" not in err


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


def _cpus(monkeypatch, n):
    # synth runs one process per CPU of the affinity mask
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


def test_synth_writes_the_same_bytes_on_any_worker_count(tmp_path, monkeypatch):
    rendered = []  # the parent's list: a worker appends to its own copy

    def counted(i, *args):
        rendered.append(i)
        return synth_sample(i, *args)

    monkeypatch.setattr("molre.cli.synth_sample", counted)
    digests = {}
    for workers in (1, 3):
        _cpus(monkeypatch, workers)
        rendered.clear()
        data_dir = tmp_path / f"workers-{workers}"
        assert main(["synth", *TINY, "--out", str(data_dir)]) == 0
        assert rendered == list(range(0, 20, workers))  # the parent renders its share only
        digests[workers] = {f.name: hashlib.sha256(f.read_bytes()).hexdigest()
                            for f in data_dir.iterdir()}
    assert len(digests[1]) == 21 and digests[3] == digests[1]


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("bad", [1, 3], ids=["in-a-worker", "in-the-parent"])
def test_synth_data_error_in_any_share_exits_3(tmp_path, monkeypatch, capfd, bad):
    # with three workers, sample 1 is worker 1's and sample 3 the parent's
    def failing(i, *args):
        if i == bad:
            raise DataError(f"cannot render sample {i}")
        return synth_sample(i, *args)

    monkeypatch.setattr("molre.cli.synth_sample", failing)
    _cpus(monkeypatch, 3)
    data_dir = tmp_path / "data"
    assert main(["synth", *TINY, "--out", str(data_dir)]) == 3
    assert capfd.readouterr().err.splitlines() == [f"data error: cannot render sample {bad}"]
    assert not (data_dir / "manifest.json").exists()
    _no_child_left()


def test_synth_names_a_worker_that_died_before_reporting(tmp_path, monkeypatch, capfd):
    parent = os.getpid()

    def dying(i, *args):
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return synth_sample(i, *args)

    monkeypatch.setattr("molre.cli.synth_sample", dying)
    _cpus(monkeypatch, 3)
    data_dir = tmp_path / "data"
    assert main(["synth", *TINY, "--out", str(data_dir)]) == 3
    err = capfd.readouterr().err.splitlines()
    assert len(err) == 1 and re.fullmatch(
        rf"data error: synth worker 1 \(pid \d+\) was killed by signal {signal.SIGKILL:d} "
        r"before reporting", err[0]), err
    assert not (data_dir / "manifest.json").exists()
    _no_child_left()


def test_synth_bad_override_exits_config(tmp_path):
    assert main(["synth", "--set", "no_such_key=1", "--out", str(tmp_path / "d")]) == 2
    assert main(["synth", "--set", "gamma=not_a_number", "--out", str(tmp_path / "d")]) == 2


def test_config_file_error_exits_config(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("mystery_key = 3\n")
    assert main(["count-params", "--config", str(bad)]) == 2


# -- train / eval ------------------------------------------------------------


def test_train_eval_roundtrip(tmp_path, capsys, monkeypatch):
    data_dir = _synth(tmp_path)
    run_dir = tmp_path / "run"
    built = []  # the split of every DiskDataset a command builds
    init = DiskDataset.__init__
    monkeypatch.setattr(DiskDataset, "__init__",
                        lambda self, root, split=None, manifest=None:
                        built.append(split) or init(self, root, split, manifest))
    code = main([
        "train", *TINY,
        "--set", f"data_dir={data_dir}",
        "--out", str(run_dir),
    ])
    assert code == 0
    assert built == [None, "train", "val"]  # one every-row view, shared with the store
    assert (run_dir / "best.ckpt").exists()
    assert (run_dir / "last.ckpt").exists()
    records = [json.loads(l) for l in (run_dir / "metrics.jsonl").read_text().splitlines()]
    assert records[-1]["stop"] is True
    out = capsys.readouterr().out
    assert "best val mean AUC" in out

    eval_dir = tmp_path / "eval"
    built.clear()
    code = main([
        "eval", "--checkpoint", str(run_dir / "best.ckpt"),
        "--split", "test", "--out", str(eval_dir),
    ])
    assert code == 0
    assert built == [None, "test"]
    report = json.loads((eval_dir / "report.json").read_text())
    assert len(report["per_class_auc"]) == 3
    assert (eval_dir / "report.txt").exists()
    assert "mean AUC" in capsys.readouterr().out


def test_train_with_augmentation(tmp_path, capsys):
    # augmented epochs embed the train studies afresh instead of reading the store
    data_dir = _synth(tmp_path)
    run_dir = tmp_path / "run"
    assert main(["train", *TINY, "--set", "augment=true", "--set", f"data_dir={data_dir}",
                 "--out", str(run_dir)]) == 0
    records = [json.loads(l) for l in (run_dir / "metrics.jsonl").read_text().splitlines()]
    assert [r["epoch"] for r in records] == [1, 2]
    assert all(np.isfinite(r["train_loss"]) for r in records)
    assert "Traceback" not in capsys.readouterr().err


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


# -- bad inputs: one contract ---------------------------------------------------


def _manifest(text):
    def corrupt(data_dir, ckpt):
        (data_dir / "manifest.json").write_text(text)
    return corrupt


def _edit_manifest(edit):
    def corrupt(data_dir, ckpt):
        path = data_dir / "manifest.json"
        manifest = json.loads(path.read_text())
        edit(manifest)
        path.write_text(json.dumps(manifest))
    return corrupt


def _truncate_vol(data_dir, ckpt):
    vol = data_dir / json.loads((data_dir / "manifest.json").read_text())["samples"][-1]["file"]
    vol.write_bytes(vol.read_bytes()[:-100])


def _vol_of_another_shape(data_dir, ckpt):
    # the same study with two more slices, as a dataset of another volume_shape has it
    row = json.loads((data_dir / "manifest.json").read_text())["samples"][4]
    sample = DiskDataset(data_dir).sample(4)
    sample.voxels = np.concatenate([sample.voxels, sample.voxels[:2]])
    write_volume(data_dir / row["file"], sample)


def _edit_ckpt(edit):
    def corrupt(data_dir, ckpt):
        raw = bytearray(ckpt.read_bytes())
        edit(raw)
        ckpt.write_bytes(bytes(raw))
    return corrupt


def _edit_ckpt_config(edit):
    def corrupt(data_dir, ckpt):
        tensors, sections = load_checkpoint(ckpt)
        edit(sections["config"])
        save_checkpoint(ckpt, tensors, sections)
    return corrupt


def _store_as_ckpt(data_dir, ckpt):
    (store,) = data_dir.glob("features-*.ckpt")
    shutil.copy(store, ckpt)


def _with_classes(n):
    def edit(manifest):
        manifest["num_classes"] = n
        for row in manifest["samples"]:
            row["labels"] = (row["labels"] + [0] * n)[:n]
    return _edit_manifest(edit)


def _flip_middle_bit(raw):
    raw[len(raw) // 2] ^= 0x01


def _overwrite_near_start(raw):
    raw[40:50] = b"\xff" * 10


def _as_version_2(raw):
    raw[4:8] = (2).to_bytes(4, "little")


def _truncate(raw):
    del raw[len(raw) // 2:]


BAD_INPUTS = [
    # (case, command, corruption, what the message must say)
    ("manifest-invalid-json", "eval", _manifest("{not json"), "not valid JSON"),
    ("manifest-no-samples", "eval", _edit_manifest(lambda m: m.pop("samples")),
     "missing key 'samples'"),
    ("manifest-sample-without-file", "eval",
     _edit_manifest(lambda m: m["samples"][0].pop("file")), "sample 0 ('synth-7-00000'): missing key 'file'"),
    ("manifest-ragged-labels", "eval",
     _edit_manifest(lambda m: m["samples"][5]["labels"].pop()), "sample 5 ('synth-7-00005'): 'labels' has 2"),
    ("manifest-top-level-list", "eval", _manifest("[]"), "top level must be an object, got list"),
    ("manifest-sample-without-file-train", "train",
     _edit_manifest(lambda m: m["samples"][3].pop("file")), "missing key 'file'"),
    ("vol-truncated", "eval", _truncate_vol, "truncated voxel payload"),
    ("vol-truncated-train", "train", _truncate_vol, "truncated voxel payload"),
    ("vol-other-shape-train", "train", _vol_of_another_shape,
     "synth-7-00004.vol: volume is (10, 16, 16), the manifest's volume_shape is (8, 16, 16)"),
    ("vol-other-shape-train-3d", "train --set mode=molre3d", _vol_of_another_shape,
     "synth-7-00004.vol: volume is (10, 16, 16), the manifest's volume_shape is (8, 16, 16)"),
    ("ckpt-truncated", "eval", _edit_ckpt(_truncate), "(truncated or corrupt checkpoint)"),
    ("ckpt-bit-flipped", "eval", _edit_ckpt(_flip_middle_bit), "fails its CRC32 check"),
    ("ckpt-overwritten-near-start", "eval", _edit_ckpt(_overwrite_near_start),
     "'best.experts.A' runs past the end"),
    ("ckpt-version-2", "eval", _edit_ckpt(_as_version_2), "format version 2, this build reads 3"),
    ("ckpt-without-config", "eval", _store_as_ckpt, "checkpoint has no config section"),
    # a key an older version wrote: the checkpoint is at fault, not the user's config
    ("ckpt-config-unknown-key", "eval", _edit_ckpt_config(lambda c: c.update(in_channels=3)),
     "unknown config keys: ['in_channels']"),
    ("manifest-other-class-count", "eval", _with_classes(5),
     "has 5 classes, the run has num_classes=3"),
    ("manifest-other-class-count-train", "train", _with_classes(2),
     "has 2 classes, the run has num_classes=3"),
]


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """A tiny dataset, its feature store and one trained checkpoint."""
    root = tmp_path_factory.mktemp("trained")
    assert main(["synth", *TINY, "--out", str(root / "data")]) == 0
    assert main(["train", *TINY, "--set", f"data_dir={root / 'data'}", "--out", str(root / "run")]) == 0
    return root


@pytest.mark.parametrize("case, command, corrupt, says", BAD_INPUTS, ids=[c[0] for c in BAD_INPUTS])
def test_bad_input_exits_data_error(trained, tmp_path, capsys, case, command, corrupt, says):
    data_dir, ckpt = tmp_path / "data", tmp_path / "best.ckpt"
    shutil.copytree(trained / "data", data_dir)
    shutil.copy(trained / "run" / "best.ckpt", ckpt)
    corrupt(data_dir, ckpt)
    capsys.readouterr()
    command, *extra = command.split()
    if command == "eval":
        argv = ["eval", "--checkpoint", str(ckpt), "--set", f"data_dir={data_dir}"]
    else:
        argv = ["train", *TINY, "--set", f"data_dir={data_dir}"]
    code = main([*argv, *extra, "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 3, err
    # a changed .vol file is first noticed by the feature store, on its own line
    last = err.splitlines()[-1]
    assert last.startswith("data error:") and says in last, err
    assert "Traceback" not in err
