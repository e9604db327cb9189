"""The on-disk feature store: `training.stored_features` and its use by
`molre train` / `molre eval`."""

import json
import os
import re
import shutil
import signal
import struct
import subprocess
import sys
import zlib
from pathlib import Path

import numpy as np
import pytest

import molre
import molre.checkpoint
import molre.model
import molre.pipeline
import molre.training
import molre.volumes
from molre.checkpoint import load_checkpoint
from molre.cli import main
from molre.config import RunConfig
from molre.model import build_model
from molre.pipeline import SliceBackbone, VolumeBackbone
from molre.training import stored_features, trunk_cache
from molre.volumes import DiskDataset

SIZES = {
    "volume_shape": "8,16,16", "num_classes": "3", "num_samples": "12",
    "train_frac": "0.5", "val_frac": "0.25",
    "feature_dim": "8", "num_experts": "3", "rank": "2", "router_hidden": "5",
    "batch_size": "4", "min_epochs": "1", "patience": "1", "max_epochs": "1",
}
SETS = [a for k, v in SIZES.items() for a in ("--set", f"{k}={v}")]
STUDY = tuple(int(n) for n in SIZES["volume_shape"].split(","))


def _study_shaped(x) -> bool:
    """Whether a trunk input holds one study: (S, M, H, W) slices in 2D, a
    (1, M, S, H, W) volume in 3D. Every command also embeds the store's
    canary, a smaller grid, which this leaves out."""
    return (x.shape[0], *x.shape[2:]) == STUDY if x.ndim == 4 else x.shape[2:] == STUDY


@pytest.fixture
def data_dir(tmp_path):
    out = tmp_path / "data"
    assert main(["synth", *SETS, "--out", str(out)]) == 0
    return out


def _stores(data_dir: Path) -> list[str]:
    return sorted(p.name for p in data_dir.glob("features-*.ckpt"))


def _cpus(monkeypatch, n):
    # a store build runs one process per CPU of the affinity mask
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


@pytest.fixture(autouse=True)
def three_workers(monkeypatch):
    """Every store build here forks two workers, whatever the host's CPUs."""
    _cpus(monkeypatch, 3)


class _Calls:
    """Calls logged to a file, one line per call, so a forked worker's calls
    count too. Iterates, compares, measures and clears like a list of those
    lines."""

    def __init__(self, path: Path):
        self.path = path
        path.write_text("")

    def log(self, line: str) -> None:
        fd = os.open(self.path, os.O_WRONLY | os.O_APPEND)
        try:
            os.write(fd, f"{line}\n".encode())  # one write: lines never interleave
        finally:
            os.close(fd)

    def lines(self) -> list[str]:
        return self.path.read_text().split()

    def pids(self) -> list[int]:
        return [int(line) for line in self.lines()]

    def __iter__(self):
        return iter(self.lines())

    def __len__(self) -> int:
        return len(self.lines())

    def __eq__(self, other) -> bool:
        return self.lines() == other

    def __delitem__(self, _) -> None:
        self.path.write_text("")

    def __repr__(self) -> str:
        return repr(self.pids())


@pytest.fixture
def trunk_calls(monkeypatch, tmp_path):
    """Counts calls of both frozen trunks on a study, in this process and its
    workers, logging the caller's pid."""
    calls = _Calls(tmp_path / "trunk-calls.log")
    for cls in (SliceBackbone, VolumeBackbone):
        real = cls.trunk

        def counted(self, x, real=real):
            if _study_shaped(x):
                calls.log(str(os.getpid()))
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
    # a fresh interpreter whose 2D trunk fails if it is ever called on a
    # study; it embeds the canary, at either BLAS thread count, as this one did
    script = (
        "import sys\n"
        "from molre.pipeline import SliceBackbone\n"
        "def trunk(self, x, real=SliceBackbone.trunk):\n"
        f"    if (x.shape[0], *x.shape[2:]) == {STUDY}:\n"
        "        raise SystemExit('the trunk ran')\n"
        "    return real(self, x)\n"
        "SliceBackbone.trunk = trunk\n"
        "from molre.cli import main\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    src = str(Path(molre.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    for threads in ({}, {"OPENBLAS_NUM_THREADS": "1"}):
        out = tmp_path / f"m{len(threads)}"
        proc = subprocess.run(
            [sys.executable, "-c", script, *run, "--set", "mode=molre", "--out", str(out)],
            env={**env, **threads}, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""
        assert (out / "best.ckpt").exists()


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


def _mutate_a_conv(data_dir, model, monkeypatch):
    # an edit of the trunk's maths: every 2D conv squares its output
    def squared(x, w, b, arena=None, real=molre.pipeline._conv2d_relu):
        h = real(x, w, b, arena)
        return h * h

    monkeypatch.setattr(molre.pipeline, "_conv2d_relu", squared)
    return model


def _shrink_the_records(data_dir, model, monkeypatch):
    monkeypatch.setattr(molre.training, "_CHUNK_BYTES", molre.training._CHUNK_BYTES // 4)
    return model


@pytest.mark.parametrize("change, stderr", [
    (_change_a_vol_byte, "was built from other .vol files; rebuilding"),
    (_mutate_a_conv, "was built from other trunk code; rebuilding"),
    (_shrink_the_records, "was built from other record layout; rebuilding"),
    (lambda data_dir, model, mp: build_model(RunConfig(stub_seed=99)), ""),
    (lambda data_dir, model, mp: build_model(RunConfig(stub_channels=(8, 8, 16))), ""),
    (_flip_a_store_bit, "fails its CRC32 check"),
], ids=["vol-byte", "trunk-code", "record-layout", "stub-seed", "stub-channels", "store-bit"])
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


# -- the store is built on every CPU -----------------------------------------


@pytest.mark.parametrize("mode", ["molre", "molre3d"])
def test_forked_build_is_bitwise_equal_at_any_worker_count(data_dir, monkeypatch, mode):
    model = build_model(RunConfig(mode=mode))
    built = {}
    for workers in (1, 3):
        _cpus(monkeypatch, workers)
        for store in data_dir.glob("features-*.ckpt"):
            store.unlink()
        rows = stored_features(model, data_dir)
        built[workers] = rows, *load_checkpoint(_store(data_dir))
    (rows1, records1, sections1), (rows3, records3, sections3) = built[1], built[3]
    assert rows1.dtype == np.float64 and np.array_equal(rows3, rows1)
    assert list(records3) == list(records1)
    assert all(np.array_equal(records3[name], records1[name]) for name in records1)
    # each .vol's CRC32, taken by whichever process embedded it, is its file's
    files = [r["file"] for r in DiskDataset(data_dir).rows]
    assert sections3["key"] == sections1["key"]
    assert sections1["key"]["vol_crc32"] == [zlib.crc32((data_dir / f).read_bytes()) for f in files]


def test_a_store_build_embeds_every_row_once(data_dir, trunk_calls, vol_reads):
    stored_features(build_model(RunConfig()), data_dir)
    # rows are handed out on demand: any of the three processes may read and
    # embed any row, each once
    assert sorted(vol_reads) == _files(data_dir, "train", "val", "test")
    assert len(trunk_calls) == 12 and len(set(trunk_calls.pids())) <= 3


def _truncate(vol: Path) -> None:
    vol.write_bytes(vol.read_bytes()[:-100])


def _two_more_slices(vol: Path) -> None:
    sample = molre.volumes.read_volume(vol, "s", [0, 0, 0])
    sample.voxels = np.concatenate([sample.voxels, sample.voxels[:2]])
    molre.volumes.write_volume(vol, sample)


@pytest.mark.parametrize("where", ["in-a-worker", "in-the-parent"])
@pytest.mark.parametrize("corrupt, says", [
    (_truncate, "truncated voxel payload"),
    (_two_more_slices, "volume is (10, 16, 16), the manifest's volume_shape is (8, 16, 16)"),
], ids=["truncated", "other-shape"])
def test_a_broken_vol_in_any_share_fails_the_build(data_dir, tmp_path, capfd, monkeypatch,
                                                   rendezvous, where, corrupt, says):
    parent, real = os.getpid(), DiskDataset.sample

    # each of the three processes takes a row; the .vol of the parent's
    # first row, or of each worker's, breaks just before it is read
    def sample(self, i):
        rendezvous(3)
        if (os.getpid() == parent) == (where == "in-the-parent"):
            corrupt(self.root / self.rows[i]["file"])
        return real(self, i)

    monkeypatch.setattr(DiskDataset, "sample", sample)
    capfd.readouterr()
    assert main(["train", *SETS, "--set", f"data_dir={data_dir}", "--out", str(tmp_path)]) == 3
    err = capfd.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("data error:") and says in err[0], err
    assert _stores(data_dir) == []
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_a_worker_killed_before_reporting_is_named(data_dir, tmp_path, monkeypatch, capfd,
                                                   rendezvous):
    parent, real = os.getpid(), SliceBackbone.trunk

    def dying(self, x):
        if _study_shaped(x):  # not the canary, which the parent embeds first
            rendezvous(3)  # both workers take a row
            if os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
        return real(self, x)

    monkeypatch.setattr(SliceBackbone, "trunk", dying)
    capfd.readouterr()
    assert main(["train", *SETS, "--set", f"data_dir={data_dir}", "--out", str(tmp_path)]) == 3
    err = capfd.readouterr().err.splitlines()
    assert len(err) == 1 and re.fullmatch(
        rf"data error: trunk worker 1 \(pid \d+\) was killed by signal {signal.SIGKILL:d} "
        r"before reporting", err[0]), err
    assert _stores(data_dir) == []
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_a_comment_only_edit_is_served_from_the_store(data_dir, tmp_path):
    run = ["train", *SETS, "--set", f"data_dir={data_dir}"]
    assert main([*run, "--out", str(tmp_path / "a")]) == 0
    store = _store(data_dir)
    built = store.read_bytes()
    # a copy of the package whose pipeline.py differs in one comment
    copy = tmp_path / "src"
    shutil.copytree(Path(molre.__file__).parent, copy / "molre",
                    ignore=shutil.ignore_patterns("__pycache__"))
    pipeline = copy / "molre" / "pipeline.py"
    pipeline.write_text("# an edited comment\n" + pipeline.read_text())
    script = (
        "import sys\n"
        "import molre.pipeline\n"
        f"assert molre.pipeline.__file__ == {str(pipeline)!r}, molre.pipeline.__file__\n"
        "from molre.cli import main\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(copy)}
    proc = subprocess.run([sys.executable, "-c", script, *run, "--out", str(tmp_path / "b")],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert _stores(data_dir) == [store.name] and store.read_bytes() == built


def test_stored_features_refuses_a_split(data_dir):
    with pytest.raises(ValueError, match="needs every row, not split 'test'"):
        stored_features(build_model(RunConfig()), DiskDataset(data_dir, "test"))


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


# -- a command checks the rows it serves ------------------------------------


def _files(data_dir: Path, *splits: str) -> list[str]:
    rows = json.loads((data_dir / "manifest.json").read_text())["samples"]
    return sorted(r["file"] for r in rows if r["split"] in splits)


def _flip_a_vol_byte(data_dir: Path, split: str) -> None:
    vol = data_dir / _files(data_dir, split)[0]
    raw = bytearray(vol.read_bytes())
    raw[-4] ^= 0x01  # low mantissa bit of the last f32 voxel: still a valid volume
    vol.write_bytes(bytes(raw))


@pytest.fixture
def trained(data_dir, tmp_path):
    """A run trained on data_dir, which built the 2D store."""
    run = tmp_path / "run"
    assert main(["train", *SETS, "--set", f"data_dir={data_dir}", "--out", str(run)]) == 0
    return run


def _eval(run: Path, out: Path) -> bytes:
    assert main(["eval", "--checkpoint", str(run / "best.ckpt"), "--split", "test",
                 "--out", str(out)]) == 0
    return (out / "report.json").read_bytes()


@pytest.fixture
def vol_reads(monkeypatch, tmp_path):
    """Names of the .vol files read, in this process and its workers: read
    whole by the store's CRC32 check, or by `read_volume` for embedding."""
    reads = _Calls(tmp_path / "vol-reads.log")
    real_bytes, real_read = Path.read_bytes, molre.volumes.read_volume

    def read_bytes(self):
        if self.suffix == ".vol":
            reads.log(self.name)
        return real_bytes(self)

    def read_volume(path, *args):
        reads.log(Path(path).name)
        return real_read(path, *args)

    monkeypatch.setattr(Path, "read_bytes", read_bytes)
    monkeypatch.setattr(molre.volumes, "read_volume", read_volume)
    return reads


def test_a_command_crcs_the_rows_it_serves(data_dir, tmp_path, vol_reads, trunk_calls):
    train = ["train", *SETS, "--set", f"data_dir={data_dir}", "--out", str(tmp_path / "run")]
    assert main(train) == 0
    # the build reads every row once, and CRCs the bytes it embeds
    assert sorted(vol_reads) == _files(data_dir, "train", "val", "test") and len(trunk_calls) == 12
    del vol_reads[:], trunk_calls[:]
    assert main(train) == 0
    assert sorted(vol_reads) == _files(data_dir, "train", "val")
    del vol_reads[:]
    _eval(tmp_path / "run", tmp_path / "eval")
    assert sorted(vol_reads) == _files(data_dir, "test")
    assert trunk_calls == []


def test_an_augmented_train_serves_only_the_val_rows(data_dir, trained, tmp_path, vol_reads,
                                                     trunk_calls):
    del vol_reads[:], trunk_calls[:]
    assert main(["train", *SETS, "--set", f"data_dir={data_dir}", "--set", "augment=true",
                 "--out", str(tmp_path / "aug")]) == 0
    # the store CRCs each val .vol; the one epoch reads and embeds each train study
    assert sorted(vol_reads) == _files(data_dir, "train", "val")
    assert len(trunk_calls) == len(_files(data_dir, "train"))


def test_a_command_reads_the_manifest_once(data_dir, tmp_path, monkeypatch):
    reads = []
    real = molre.volumes.read_manifest

    def counted(root):
        reads.append(root)
        return real(root)

    monkeypatch.setattr(molre.volumes, "read_manifest", counted)
    train = ["train", *SETS, "--set", f"data_dir={data_dir}", "--out", str(tmp_path / "run")]
    assert main(train) == 0 and len(reads) == 1  # builds the store
    del reads[:]
    assert main(train) == 0 and len(reads) == 1  # reads it
    del reads[:]
    _eval(tmp_path / "run", tmp_path / "eval")
    assert len(reads) == 1


def test_a_changed_test_vol_rebuilds_for_eval(data_dir, trained, tmp_path, trunk_calls, capsys):
    _flip_a_vol_byte(data_dir, "test")
    del trunk_calls[:]
    capsys.readouterr()
    rebuilt = _eval(trained, tmp_path / "rebuilt")
    err = capsys.readouterr().err
    assert "was built from other .vol files; rebuilding" in err and err.count("\n") == 1
    assert len(trunk_calls) == 12
    for store in data_dir.glob("features-*.ckpt"):
        store.unlink()
    assert _eval(trained, tmp_path / "fresh") == rebuilt


def test_a_changed_train_vol_waits_for_train(data_dir, trained, tmp_path, trunk_calls, capsys):
    before = _eval(trained, tmp_path / "before")
    _flip_a_vol_byte(data_dir, "train")
    del trunk_calls[:]
    capsys.readouterr()
    assert _eval(trained, tmp_path / "after") == before
    assert trunk_calls == [] and capsys.readouterr().err == ""
    # the next command that serves the row rebuilds
    assert main(["train", *SETS, "--set", f"data_dir={data_dir}", "--out", str(tmp_path / "r2")]) == 0
    err = capsys.readouterr().err
    assert "was built from other .vol files; rebuilding" in err and err.count("\n") == 1
    assert len(trunk_calls) == 12


def test_swapped_file_names_rebuild(data_dir, trained, tmp_path, trunk_calls, capsys):
    path = data_dir / "manifest.json"
    manifest = json.loads(path.read_text())
    rows = manifest["samples"]
    assert rows[0]["split"] == rows[1]["split"] == "train"
    rows[0]["file"], rows[1]["file"] = rows[1]["file"], rows[0]["file"]
    path.write_text(json.dumps(manifest))
    del trunk_calls[:]
    capsys.readouterr()
    _eval(trained, tmp_path / "eval")  # serves the test rows, whose bytes are unchanged
    err = capsys.readouterr().err
    assert "was built from other .vol files; rebuilding" in err and err.count("\n") == 1
    assert len(trunk_calls) == 12
    model = build_model(RunConfig())
    assert np.array_equal(stored_features(model, data_dir), trunk_cache(model, DiskDataset(data_dir)))


def test_a_broken_vol_fails_the_command_that_notices_it(data_dir, trained, tmp_path, capsys):
    vol = data_dir / _files(data_dir, "train")[0]
    good = vol.read_bytes()
    # an overwritten header keeps the size: noticed by the first command that serves the row
    vol.write_bytes(b"XXXX" + good[4:])
    before = _eval(trained, tmp_path / "before")
    train = ["train", *SETS, "--set", f"data_dir={data_dir}", "--out", str(tmp_path / "r2")]
    capsys.readouterr()
    assert main(train) == 3
    assert capsys.readouterr().err.splitlines()[-1].endswith("bad magic b'XXXX'")
    # a truncated file has another size: noticed by every command
    vol.write_bytes(good[:-100])
    assert main(["eval", "--checkpoint", str(trained / "best.ckpt"), "--split", "test",
                 "--out", str(tmp_path / "after")]) == 3
    assert "truncated voxel payload" in capsys.readouterr().err.splitlines()[-1]
    vol.write_bytes(good)
    assert _eval(trained, tmp_path / "again") == before


# -- the store's records: a command reads the runs of rows it serves ---------

# a test row is 8 slices x 64 trunk features of float64
ROW_BYTES = 8 * 64 * 8


def _chunk_rows(monkeypatch, rows: int) -> None:
    monkeypatch.setattr(molre.training, "_CHUNK_BYTES", rows * ROW_BYTES)


@pytest.fixture
def chunked(monkeypatch):
    """Store records of two rows each: six for the twelve studies. Train rows
    0-5 and val rows 6-8 sit in records 0-4, test rows 9-11 in records 4-5."""
    _chunk_rows(monkeypatch, 2)


@pytest.fixture
def chunked_run(data_dir, tmp_path, chunked):
    """A run trained on data_dir, which built the 2D store in two-row records."""
    run = tmp_path / "run"
    assert main(["train", *SETS, "--set", f"data_dir={data_dir}", "--out", str(run)]) == 0
    return run


def _store(data_dir: Path) -> Path:
    (store,) = data_dir.glob("features-*.ckpt")
    return store


def _flip_a_record_bit(data_dir: Path, name: str) -> None:
    store = _store(data_dir)
    raw = bytearray(store.read_bytes())
    # past the name, ndim and three dims: inside the record's payload
    raw[raw.index(name.encode()) + len(name) + 1 + 3 * 8 + 100] ^= 0x04
    store.write_bytes(bytes(raw))


@pytest.mark.parametrize("rows, names", [
    (1, [f"features.{c:02d}" for c in range(12)]),
    (2, [f"features.{c}" for c in range(6)]),
    (5, ["features.0", "features.1", "features.2"]),
])
def test_the_store_holds_runs_of_rows_in_name_order(data_dir, monkeypatch, rows, names):
    _chunk_rows(monkeypatch, rows)
    model = build_model(RunConfig())
    everything = stored_features(model, data_dir)
    tensors, sections = load_checkpoint(_store(data_dir))
    assert list(tensors) == names and set(sections) == {"key"}
    assert [len(t) for t in tensors.values()] == [min(rows, 12 - c * rows) for c in range(len(names))]
    assert np.array_equal(np.concatenate(list(tensors.values())), everything)


@pytest.mark.parametrize("rows", [[11, 0, 7, 3], [5, 5, 2, 5, 5], [1, 2, 3, 4, 5, 6], [9, 10, 11], [4]])
def test_stored_rows_come_back_in_the_order_given(data_dir, chunked, trunk_calls, rows):
    model = build_model(RunConfig())
    ref = trunk_cache(model, DiskDataset(data_dir))[rows]
    del trunk_calls[:]
    assert np.array_equal(stored_features(model, data_dir, rows), ref)  # builds the store
    assert len(trunk_calls) == 12
    assert np.array_equal(stored_features(model, data_dir, np.array(rows)), ref)  # reads it
    assert len(trunk_calls) == 12


def test_a_command_crcs_the_store_records_it_serves(data_dir, chunked_run, tmp_path, monkeypatch):
    tensors, _ = load_checkpoint(_store(data_dir))
    # each record's CRC32, as the store holds it
    record_crcs = {name: struct.unpack("<I", molre.checkpoint._record(name, 0, t)[-4:])[0]
                   for name, t in tensors.items()}
    crcs = []
    real = zlib.crc32

    def counted(data, value=0):
        crcs.append(real(data, value))
        return crcs[-1]

    monkeypatch.setattr(zlib, "crc32", counted)

    def checked():
        names = sorted(name for name, crc in record_crcs.items() if crc in crcs)
        del crcs[:]
        return names

    assert main(["train", *SETS, "--set", f"data_dir={data_dir}",
                 "--out", str(tmp_path / "again")]) == 0
    assert checked() == [f"features.{c}" for c in range(5)]
    _eval(chunked_run, tmp_path / "eval")
    assert checked() == ["features.4", "features.5"]


def test_a_flipped_bit_in_a_served_record_rebuilds(data_dir, chunked_run, tmp_path, trunk_calls,
                                                    capsys):
    _flip_a_record_bit(data_dir, "features.5")  # test rows only
    del trunk_calls[:]
    capsys.readouterr()
    rebuilt = _eval(chunked_run, tmp_path / "rebuilt")
    err = capsys.readouterr().err
    assert "record 'features.5' fails its CRC32 check" in err and err.count("\n") == 1
    assert "; rebuilding" in err and len(trunk_calls) == 12
    _store(data_dir).unlink()
    assert _eval(chunked_run, tmp_path / "fresh") == rebuilt


def test_a_flipped_bit_in_an_unserved_record_waits_for_train(data_dir, chunked_run, tmp_path,
                                                             trunk_calls, capsys):
    before = _eval(chunked_run, tmp_path / "before")
    _flip_a_record_bit(data_dir, "features.0")  # train rows only
    del trunk_calls[:]
    capsys.readouterr()
    assert _eval(chunked_run, tmp_path / "after") == before
    assert trunk_calls == [] and capsys.readouterr().err == ""
    # the next command that serves the record rebuilds
    assert main(["train", *SETS, "--set", f"data_dir={data_dir}", "--out", str(tmp_path / "r2")]) == 0
    err = capsys.readouterr().err
    assert "record 'features.0' fails its CRC32 check" in err and err.count("\n") == 1
    assert len(trunk_calls) == 12


def test_a_truncated_store_is_rejected_by_eval(data_dir, chunked_run, tmp_path, trunk_calls, capsys):
    before = _eval(chunked_run, tmp_path / "before")
    store = _store(data_dir)
    raw = store.read_bytes()
    store.write_bytes(raw[:len(raw) // 3])  # cut inside the records eval does not serve
    del trunk_calls[:]
    capsys.readouterr()
    assert _eval(chunked_run, tmp_path / "after") == before
    err = capsys.readouterr().err
    assert "truncated or corrupt checkpoint" in err and "; rebuilding" in err
    assert err.count("\n") == 1 and len(trunk_calls) == 12
    assert _store(data_dir).read_bytes() == raw
