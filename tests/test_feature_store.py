"""The on-disk feature store: `training.stored_features` and its use by
`molre train` / `molre eval`."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import molre
import molre.model
import molre.pipeline
import molre.training
from molre.cli import main
from molre.config import RunConfig
from molre.pipeline import SliceBackbone, VolumeBackbone
from molre.training import build_model, stored_features, trunk_cache
from molre.volumes import DiskDataset

SIZES = {
    "volume_shape": "8,16,16", "num_classes": "3", "num_samples": "12",
    "train_frac": "0.5", "val_frac": "0.25",
    "feature_dim": "8", "num_experts": "3", "rank": "2", "router_hidden": "5",
    "batch_size": "4", "min_epochs": "1", "patience": "1", "max_epochs": "1",
}
SETS = [a for k, v in SIZES.items() for a in ("--set", f"{k}={v}")]


@pytest.fixture
def data_dir(tmp_path):
    out = tmp_path / "data"
    assert main(["synth", *SETS, "--out", str(out)]) == 0
    return out


def _stores(data_dir: Path) -> list[str]:
    return sorted(p.name for p in data_dir.glob("features-*.ckpt"))


@pytest.fixture
def trunk_calls(monkeypatch):
    """Counts calls of both frozen trunks."""
    calls = []
    for cls in (SliceBackbone, VolumeBackbone):
        real = cls.trunk

        def counted(self, x, real=real):
            calls.append(x.shape)
            return real(self, x)

        monkeypatch.setattr(cls, "trunk", counted)
    return calls


@pytest.mark.parametrize("mode", ["molre", "molre3d"])
def test_stored_features_equal_in_process_trunk_cache(data_dir, mode, trunk_calls):
    model = build_model(RunConfig(mode=mode))
    for split in ("train", "val", "test"):
        ds = DiskDataset(data_dir, split)
        ref = trunk_cache(model, ds)
        del trunk_calls[:]
        got = stored_features(model, data_dir)[ds.index]
        assert got.dtype == np.float64 and np.array_equal(got, ref)
        # the first call built the store for every split at once
        assert len(trunk_calls) == (12 if split == "train" else 0)
    assert np.array_equal(stored_features(model, data_dir), trunk_cache(model, DiskDataset(data_dir)))
    assert [name.split("-")[1] for name in _stores(data_dir)] == ["3d" if mode == "molre3d" else "2d"]


def test_second_train_and_eval_call_no_trunk(data_dir, tmp_path, trunk_calls, capsys):
    run = ["train", *SETS, "--set", f"data_dir={data_dir}"]
    assert main([*run, "--set", "mode=baseline-frozen", "--out", str(tmp_path / "a")]) == 0
    assert len(trunk_calls) == 12  # every study in the manifest, once
    del trunk_calls[:]
    assert main([*run, "--set", "mode=lora", "--out", str(tmp_path / "b")]) == 0
    assert main(["eval", "--checkpoint", str(tmp_path / "b" / "best.ckpt"),
                 "--out", str(tmp_path / "b")]) == 0
    assert trunk_calls == []
    assert len(_stores(data_dir)) == 1
    assert capsys.readouterr().err == ""


def test_store_is_read_by_another_process(data_dir, tmp_path):
    run = ["train", *SETS, "--set", f"data_dir={data_dir}"]
    assert main([*run, "--set", "mode=baseline-frozen", "--out", str(tmp_path / "a")]) == 0
    # a fresh interpreter whose 2D trunk fails if it is ever called
    script = (
        "import sys\n"
        "from molre.pipeline import SliceBackbone\n"
        "def trunk(self, x):\n"
        "    raise SystemExit('the trunk ran')\n"
        "SliceBackbone.trunk = trunk\n"
        "from molre.cli import main\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    src = str(Path(molre.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-c", script, *run, "--set", "mode=molre", "--out", str(tmp_path / "m")],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert (tmp_path / "m" / "best.ckpt").exists()


def _change_a_vol_byte(data_dir, model, monkeypatch):
    vol = sorted(data_dir.glob("*.vol"))[3]
    raw = bytearray(vol.read_bytes())
    raw[-4] ^= 0x01  # low mantissa bit of the last f32 voxel: still a valid volume
    vol.write_bytes(bytes(raw))
    return model


def _flip_a_store_bit(data_dir, model, monkeypatch):
    (store,) = data_dir.glob("features-*.ckpt")
    raw = bytearray(store.read_bytes())
    raw[len(raw) // 2] ^= 0x04
    store.write_bytes(bytes(raw))
    return model


def _edit_the_trunk_code(data_dir, model, monkeypatch):
    # stands in for an edit of one of the files: the hashed code differs
    monkeypatch.setattr(molre.training, "TRUNK_CODE", molre.training.TRUNK_CODE[:-1])
    return model


@pytest.mark.parametrize("change, stderr", [
    (_change_a_vol_byte, "was built from other .vol files; rebuilding"),
    (_edit_the_trunk_code, "was built from other trunk code; rebuilding"),
    (lambda data_dir, model, mp: build_model(RunConfig(stub_seed=99)), ""),
    (lambda data_dir, model, mp: build_model(RunConfig(stub_channels=(8, 8, 16))), ""),
    (_flip_a_store_bit, "fails its CRC32 check"),
], ids=["vol-byte", "trunk-code", "stub-seed", "stub-channels", "store-bit"])
def test_store_is_rebuilt(data_dir, trunk_calls, capsys, monkeypatch, change, stderr):
    model = build_model(RunConfig())
    everything = DiskDataset(data_dir)
    stored_features(model, data_dir)
    model = change(data_dir, model, monkeypatch)
    del trunk_calls[:]
    capsys.readouterr()
    got = stored_features(model, data_dir)
    assert len(trunk_calls) == 12
    err = capsys.readouterr().err
    assert (stderr in err and err.count("\n") == 1) if stderr else err == ""
    assert np.array_equal(got, trunk_cache(model, everything))
    # the rebuilt store is served from then on
    del trunk_calls[:]
    assert np.array_equal(stored_features(model, data_dir), got) and trunk_calls == []


def test_store_key_covers_every_file_of_the_trunk_code():
    src = Path(molre.training.__file__).parent
    for name in molre.training.TRUNK_CODE:
        assert (src / name).is_file(), name
    # the code behind trunk_cache: windowing, the stubs' convs and pooling,
    # the models' trunk_features, and trunk_cache itself
    for fn in (molre.training.hu_window, molre.pipeline._conv2d_relu, molre.pipeline._conv3d_relu,
               molre.model.SliceModel.trunk_features, molre.model.VolumeModel.trunk_features,
               molre.training.windowed, molre.training.trunk_cache):
        assert Path(fn.__code__.co_filename).name in molre.training.TRUNK_CODE, fn


def test_unwritable_store_still_trains(data_dir, tmp_path, monkeypatch, capsys):
    real = os.open

    def fake_open(path, *args, **kwargs):
        if Path(path).parent == data_dir:
            raise PermissionError("read-only data dir")
        return real(path, *args, **kwargs)

    monkeypatch.setattr(os, "open", fake_open)
    code = main(["train", *SETS, "--set", f"data_dir={data_dir}", "--out", str(tmp_path / "r")])
    assert code == 0
    assert "feature store not written (read-only data dir)" in capsys.readouterr().err
    assert _stores(data_dir) == []
