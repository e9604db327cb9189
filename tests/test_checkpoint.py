import numpy as np
import pytest

from molre.checkpoint import (
    CheckpointError,
    load_checkpoint,
    save_checkpoint,
)


def _tensors():
    rng = np.random.default_rng(0)
    return {
        "head.w": rng.normal(size=(12, 32)),
        "experts.0.A": rng.normal(size=(8, 64)),
        "scalarish": rng.normal(size=()),  # 0-d tensor
        "opt.m.head.w": np.zeros((12, 32)),
    }


def test_roundtrip_bit_exact(tmp_path):
    t = _tensors()
    s = {"config": {"mode": "molre", "seed": 3}, "train_state": {"epoch": 7}}
    p = tmp_path / "run.ckpt"
    save_checkpoint(p, t, s)
    t2, s2 = load_checkpoint(p)
    assert set(t2) == set(t)
    for name in t:
        assert np.array_equal(t2[name], t[name]), name
        assert t2[name].dtype == np.float64
    assert s2 == s


def test_save_is_deterministic(tmp_path):
    t = _tensors()
    s = {"config": {"a": 1}}
    save_checkpoint(tmp_path / "a.ckpt", t, s)
    save_checkpoint(tmp_path / "b.ckpt", t, s)
    assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()


def test_insertion_order_does_not_matter(tmp_path):
    t = _tensors()
    rev = dict(reversed(list(t.items())))
    save_checkpoint(tmp_path / "a.ckpt", t)
    save_checkpoint(tmp_path / "b.ckpt", rev)
    assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()


def test_no_tmp_file_left_behind(tmp_path):
    save_checkpoint(tmp_path / "run.ckpt", _tensors())
    assert [f.name for f in tmp_path.iterdir()] == ["run.ckpt"]


def test_name_collision_rejected(tmp_path):
    with pytest.raises(CheckpointError):
        save_checkpoint(tmp_path / "x.ckpt", {"a": np.zeros(2)}, {"a": {}})


def test_missing_file(tmp_path):
    with pytest.raises(CheckpointError):
        load_checkpoint(tmp_path / "none.ckpt")


def test_bad_magic(tmp_path):
    p = tmp_path / "x.ckpt"
    save_checkpoint(p, _tensors())
    raw = bytearray(p.read_bytes())
    raw[:4] = b"XXXX"
    p.write_bytes(bytes(raw))
    with pytest.raises(CheckpointError):
        load_checkpoint(p)


def test_bad_version(tmp_path):
    p = tmp_path / "x.ckpt"
    # version 1 stored one experts.{i}.A/B pair per expert
    for version in (1, 42):
        save_checkpoint(p, _tensors())
        raw = bytearray(p.read_bytes())
        raw[4:8] = version.to_bytes(4, "little")
        p.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match=f"format version {version}, this build reads 2"):
            load_checkpoint(p)


def test_truncation_detected(tmp_path):
    p = tmp_path / "x.ckpt"
    save_checkpoint(p, _tensors(), {"config": {"mode": "lora"}})
    raw = p.read_bytes()
    for cut in (10, len(raw) // 2, len(raw) - 3):
        p.write_bytes(raw[:cut])
        with pytest.raises(CheckpointError):
            load_checkpoint(p)


def test_empty_checkpoint_roundtrip(tmp_path):
    p = tmp_path / "empty.ckpt"
    save_checkpoint(p, {})
    t, s = load_checkpoint(p)
    assert t == {} and s == {}
