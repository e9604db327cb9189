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
    # version 1 stored one experts.{i}.A/B pair per expert; version 2 had no CRC32
    for version in (1, 2, 42):
        save_checkpoint(p, _tensors())
        raw = bytearray(p.read_bytes())
        raw[4:8] = version.to_bytes(4, "little")
        p.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match=f"format version {version}, this build reads 3"):
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


def test_flipped_bit_names_the_record(tmp_path):
    p = tmp_path / "x.ckpt"
    t = _tensors()
    save_checkpoint(p, t, {"config": {"mode": "lora"}})
    raw = bytearray(p.read_bytes())
    # the middle of head.w's payload: the file is the records in name order
    at = raw.index(b"head.w") + len("head.w") + 1 + 16 + 8 * 12 * 16
    raw[at] ^= 0x10
    p.write_bytes(bytes(raw))
    with pytest.raises(CheckpointError, match="record 'head.w' fails its CRC32 check"):
        load_checkpoint(p)


def test_every_single_bit_flip_is_caught(tmp_path):
    p = tmp_path / "x.ckpt"
    save_checkpoint(p, {"w": np.arange(3.0), "s": np.float64(2.0)}, {"config": {"k": [1, 2]}})
    good = p.read_bytes()
    for bit in range(8 * len(good)):
        raw = bytearray(good)
        raw[bit // 8] ^= 1 << (bit % 8)
        p.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError):
            load_checkpoint(p)


def test_trailing_bytes_rejected(tmp_path):
    p = tmp_path / "x.ckpt"
    save_checkpoint(p, _tensors())
    p.write_bytes(p.read_bytes() + b"\0")
    with pytest.raises(CheckpointError, match="1 bytes after the last record"):
        load_checkpoint(p)


def test_writers_of_one_file_use_their_own_temporaries(tmp_path, monkeypatch):
    # a second save of the same path while the first is mid-write: with one
    # fixed temporary name the first rename would find its file gone
    import molre.volumes as volumes

    p = tmp_path / "x.ckpt"
    real_replace = volumes.os.replace
    nested = []

    def replace(src, dst):
        if not nested:
            nested.append(src)
            save_checkpoint(p, {"b": np.ones(2)})
        real_replace(src, dst)

    monkeypatch.setattr(volumes.os, "replace", replace)
    save_checkpoint(p, {"a": np.zeros(2)})
    assert set(load_checkpoint(p)[0]) == {"a"}
    assert [f.name for f in tmp_path.iterdir()] == ["x.ckpt"]


# -- a read of named records ---------------------------------------------------


def _named_file(tmp_path):
    p = tmp_path / "x.ckpt"
    save_checkpoint(p, {"w": np.arange(3.0), "s": np.float64(2.0)}, {"config": {"k": [1, 2]}})
    return p, p.read_bytes()


def test_a_named_read_decodes_the_named_tensors_and_every_section(tmp_path):
    p, _ = _named_file(tmp_path)
    tensors, sections = load_checkpoint(p, {"w", "no-such-record"})
    assert set(tensors) == {"w"} and np.array_equal(tensors["w"], np.arange(3.0))
    assert sections == {"config": {"k": [1, 2]}}
    assert load_checkpoint(p, set()) == ({}, {"config": {"k": [1, 2]}})


def test_a_named_read_checks_bounds_and_trailing_bytes(tmp_path):
    p, good = _named_file(tmp_path)
    for cut in range(len(good)):
        p.write_bytes(good[:cut])
        with pytest.raises(CheckpointError):
            load_checkpoint(p, set())
    p.write_bytes(good + b"\0")
    with pytest.raises(CheckpointError, match="1 bytes after the last record"):
        load_checkpoint(p, set())


def test_a_named_read_catches_every_single_bit_flip_in_a_named_record(tmp_path):
    p, good = _named_file(tmp_path)
    # records sort by name: config, s, w; w's record runs to the end of the file
    at = good.index(b"\x00\x01\x00w")
    for bit in range(8 * at, 8 * len(good)):
        raw = bytearray(good)
        raw[bit // 8] ^= 1 << (bit % 8)
        p.write_bytes(bytes(raw))
        if bit // 8 == at + 3:
            # a flip in the name gives the record another name, which is not read
            assert set(load_checkpoint(p, {"w"})[0]) == set()
            continue
        with pytest.raises(CheckpointError):
            load_checkpoint(p, {"w"})
    # a flipped payload bit in a record that is not named is not looked for
    raw = bytearray(good)
    raw[at - 5] ^= 0x01
    p.write_bytes(bytes(raw))
    assert np.array_equal(load_checkpoint(p, {"w"})[0]["w"], np.arange(3.0))
    with pytest.raises(CheckpointError, match="record 's' fails its CRC32 check"):
        load_checkpoint(p)
