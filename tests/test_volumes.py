import numpy as np
import pytest

from molre.volumes import (
    DataError,
    DiskDataset,
    VolumeSample,
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
    write_manifest(tmp_path, {"num_classes": 3, "samples": rows})
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


def test_disk_dataset_missing_split(tmp_path):
    _write_dataset(tmp_path)
    with pytest.raises(DataError):
        DiskDataset(tmp_path, "test")
