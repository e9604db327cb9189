import os
import re

import numpy as np
import pytest

from molre.volumes import (
    DataError,
    DiskDataset,
    VolumeSample,
    atomic_write,
    read_manifest,
    read_volume,
    write_manifest,
    write_volume,
)


def _sample(sample_id="v0", shape=(3, 4, 5), seed=0):
    rng = np.random.default_rng(seed)
    # quantize through f32 so disk round-trips are bit-exact
    v = rng.normal(30.0, 100.0, shape).astype(np.float32).astype(np.float64)
    return VolumeSample(sample_id, v, (1.0, 1.0, 4.0),
                        np.array([1, 0, 1], dtype=np.uint8), 9)


def test_sample_validation():
    with pytest.raises(DataError):
        VolumeSample("x", np.zeros((4, 4)), (1, 1, 1), np.zeros(2))
    with pytest.raises(DataError):
        VolumeSample("x", np.zeros((4, 4, 4)), (1.0, 0.0, 1.0), np.zeros(2))
    bad = np.zeros((4, 4, 4)); bad[0, 0, 0] = np.nan
    with pytest.raises(DataError):
        VolumeSample("x", bad, (1, 1, 1), np.zeros(2))


def test_sample_coerces_dtypes():
    s = VolumeSample("x", np.zeros((2, 2, 2), dtype=np.float32), (1, 1, 1), [1, 0])
    assert s.voxels.dtype == np.float64
    assert s.labels.dtype == np.uint8


def test_volume_roundtrip_bit_exact(tmp_path):
    s = _sample()
    path = tmp_path / "v0.mlvx"
    write_volume(path, s)
    back = read_volume(path, "v0", s.labels, 9)
    assert np.array_equal(back.voxels, s.voxels)
    assert back.spacing == (1.0, 1.0, 4.0)
    assert back.stream_id == 9
    assert np.array_equal(back.labels, s.labels)
    # rewrite reproduces identical bytes
    path2 = tmp_path / "again.mlvx"
    write_volume(path2, back)
    assert path.read_bytes() == path2.read_bytes()


def test_read_rejects_bad_magic(tmp_path):
    p = tmp_path / "bad.mlvx"
    p.write_bytes(b"NOPE" + bytes(28))
    with pytest.raises(DataError):
        read_volume(p, "x", np.zeros(1))


def test_read_rejects_bad_version(tmp_path):
    s = _sample()
    p = tmp_path / "v.mlvx"
    write_volume(p, s)
    raw = bytearray(p.read_bytes())
    raw[4] = 99  # little-endian version field
    p.write_bytes(bytes(raw))
    with pytest.raises(DataError):
        read_volume(p, "x", np.zeros(1))


def test_read_rejects_truncation(tmp_path):
    s = _sample()
    p = tmp_path / "v.mlvx"
    write_volume(p, s)
    p.write_bytes(p.read_bytes()[:-10])
    with pytest.raises(DataError):
        read_volume(p, "x", np.zeros(1))


def _write_dataset(tmp_path, n=4):
    rows = []
    for i in range(n):
        s = _sample(f"s{i:03d}", seed=i)
        fname = f"s{i:03d}.mlvx"
        write_volume(tmp_path / fname, s)
        rows.append({
            "id": s.sample_id,
            "split": "train" if i < n - 1 else "val",
            "labels": s.labels.tolist(),
            "file": fname,
            "stream": i,
        })
    write_manifest(tmp_path, {"num_classes": 3, "volume_shape": [3, 4, 5], "samples": rows})
    return rows


def test_manifest_roundtrip(tmp_path):
    rows = _write_dataset(tmp_path)
    m = read_manifest(tmp_path)
    assert m["num_classes"] == 3
    assert m["samples"] == rows


def test_manifest_missing(tmp_path):
    with pytest.raises(DataError):
        read_manifest(tmp_path)


def test_disk_dataset_split_view(tmp_path):
    _write_dataset(tmp_path, n=5)
    train = DiskDataset(tmp_path, "train")
    val = DiskDataset(tmp_path, "val")
    assert len(train) == 4 and len(val) == 1
    assert train.num_classes == 3
    assert train.labels.shape == (4, 3) and train.labels.dtype == np.uint8
    s = train.sample(2)
    assert s.sample_id == "s002" and s.stream_id == 2
    assert np.array_equal(s.voxels, _sample("s002", seed=2).voxels)


def test_disk_dataset_rejects_a_volume_of_another_shape(tmp_path):
    rows = _write_dataset(tmp_path)
    write_volume(tmp_path / rows[1]["file"], _sample("s001", shape=(4, 4, 5), seed=1))
    train = DiskDataset(tmp_path, "train")
    train.sample(0)
    with pytest.raises(DataError, match=re.escape(
            "s001.mlvx: volume is (4, 4, 5), the manifest's volume_shape is (3, 4, 5)")):
        train.sample(1)


def test_disk_dataset_missing_split(tmp_path):
    _write_dataset(tmp_path)
    with pytest.raises(DataError):
        DiskDataset(tmp_path, "test")


def test_read_rejects_truncated_header(tmp_path):
    p = tmp_path / "v.mlvx"
    write_volume(p, _sample())
    p.write_bytes(p.read_bytes()[:10])
    with pytest.raises(DataError, match="truncated header"):
        read_volume(p, "x", np.zeros(1))


def test_writes_leave_no_temporary_behind(tmp_path):
    _write_dataset(tmp_path, n=2)
    assert sorted(f.name for f in tmp_path.iterdir()) == ["manifest.json", "s000.mlvx", "s001.mlvx"]


@pytest.mark.parametrize("umask", [0o022, 0o077])
def test_written_files_get_the_umask_permissions(tmp_path, umask):
    old = os.umask(umask)
    try:
        atomic_write(tmp_path / "f", b"x")
    finally:
        os.umask(old)
    assert (tmp_path / "f").stat().st_mode & 0o777 == 0o666 & ~umask


@pytest.mark.parametrize("edit, says", [
    (lambda m: m.pop("num_classes"), "missing key 'num_classes'"),
    (lambda m: m.update(samples={}), "'samples' must be a list"),
    (lambda m: m.pop("volume_shape"), "missing key 'volume_shape'"),
    (lambda m: m.update(volume_shape=[3, 4]), "'volume_shape' must be a list of 3 positive ints"),
    (lambda m: m["samples"].append(3), "sample 4 must be an object, got int"),
    (lambda m: m["samples"][1].pop("split"), "sample 1 ('s001'): missing key 'split'"),
    (lambda m: m["samples"][2].update(labels=[1, 0, 2]), "sample 2 ('s002'): 'labels' must be a list of 0/1"),
    (lambda m: m["samples"][2].update(labels=[True, 0, 1]), "sample 2 ('s002'): 'labels' must be a list of 0/1"),
    (lambda m: m["samples"][2].update(labels=[1.0, 0, 1]), "sample 2 ('s002'): 'labels' must be a list of 0/1"),
    (lambda m: m["samples"][0].update(labels=[1, 0, 1, 0]), "'labels' has 4 entries, num_classes is 3"),
    (lambda m: m["samples"][0].update(stream="7"), "sample 0 ('s000'): 'stream' must be an int"),
    (lambda m: m["samples"][0].update(id=5), "sample 0: 'id' must be a string"),
])
def test_read_manifest_names_the_bad_key_and_sample(tmp_path, edit, says):
    _write_dataset(tmp_path)
    manifest = read_manifest(tmp_path)
    edit(manifest)
    write_manifest(tmp_path, manifest)
    with pytest.raises(DataError, match=re.escape(says)):
        read_manifest(tmp_path)
    with pytest.raises(DataError, match=re.escape(says)):
        DiskDataset(tmp_path, "train")


def test_disk_dataset_without_split_is_every_sample(tmp_path):
    rows = _write_dataset(tmp_path, n=5)
    every = DiskDataset(tmp_path)
    assert every.ids == [r["id"] for r in rows] and every.index == [0, 1, 2, 3, 4]
    assert DiskDataset(tmp_path, "val").index == [4]
