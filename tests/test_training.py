import dataclasses
import json
import os

import numpy as np
import pytest

import molre.training
from molre.checkpoint import CheckpointError, load_checkpoint
from molre.config import RunConfig
from molre.model import build_model
from molre.pipeline import SliceBackbone, VolumeBackbone
from molre.sampling import expand_indices
from molre.training import (
    EarlyStopState,
    NumericalAbort,
    Trainer,
    predict_probs,
    trunk_cache,
    windowed,
)
from molre.volumes import VolumeSample


class FakeDataset:
    """Tiny in-memory stand-in: random HU volumes with random labels."""

    def __init__(self, n, shape=(4, 8, 8), num_classes=3, seed=0):
        rng = np.random.default_rng(seed)
        self.voxels = rng.uniform(-200, 400, (n,) + shape)
        self.labels = (rng.uniform(size=(n, num_classes)) < 0.4).astype(np.float64)
        self.labels[0] = 1.0  # keep every class represented
        self.labels[1] = 0.0  # ... and both outcomes present
        self.ids = [f"s{i:03d}" for i in range(n)]

    def __len__(self):
        return len(self.ids)

    def sample(self, i):
        return VolumeSample(self.ids[i], self.voxels[i], (1.0, 1.0, 4.0), self.labels[i])


def tiny_cfg(**over):
    base = dict(
        mode="molre", num_experts=3, rank=2, router_hidden=5, feature_dim=8,
        num_classes=3, volume_shape=(8, 8, 8), batch_size=4,
        min_epochs=2, patience=1, max_epochs=6, seed=0,
    )
    base.update(over)
    return RunConfig(**base)


# -- early-stop bookkeeping ---------------------------------------------------


def test_early_stop_constant_metric_stops_at_min_plus_patience():
    st = EarlyStopState(min_epochs=20, patience=5)
    stopped_at = None
    for epoch in range(1, 100):
        st.update(epoch, 0.5)
        if st.should_stop(epoch):
            stopped_at = epoch
            break
    assert stopped_at == 25
    assert st.best_epoch == 1  # first sighting of the constant value is best


def test_early_stop_window_slides_with_improvement():
    st = EarlyStopState(min_epochs=3, patience=2)
    aucs = {1: 0.5, 2: 0.6, 3: 0.6, 4: 0.7, 5: 0.7, 6: 0.7, 7: 0.7}
    stopped_at = None
    for epoch in range(1, 8):
        st.update(epoch, aucs[epoch])
        if st.should_stop(epoch):
            stopped_at = epoch
            break
    assert st.best_epoch == 4  # ties never steal the best
    assert stopped_at == 6  # patience 2 counted from epoch 4


def test_early_stop_never_fires_before_min_epochs():
    st = EarlyStopState(min_epochs=10, patience=1)
    for epoch in range(1, 10):
        st.update(epoch, 0.5)
        assert not st.should_stop(epoch)


# -- trainer behavior --------------------------------------------------------


def test_trainer_stops_on_patched_constant_auc(monkeypatch, tmp_path):
    data = FakeDataset(8)
    cfg = tiny_cfg(min_epochs=3, patience=2, max_epochs=50)
    monkeypatch.setattr(Trainer, "validate", lambda self: 0.5)
    result = Trainer(cfg, data, data, run_dir=tmp_path).train()
    assert result.stopped_epoch == 5  # min_epochs + patience exactly
    assert result.best_epoch == 1


def test_trainer_reports_best_epoch_from_peaked_sequence(monkeypatch):
    data = FakeDataset(8)
    cfg = tiny_cfg(min_epochs=1, patience=2, max_epochs=50)
    sequence = {1: 0.55, 2: 0.70, 3: 0.60, 4: 0.58, 5: 0.57}
    monkeypatch.setattr(Trainer, "validate", lambda self: sequence[self.epochs_done + 1])
    trainer = Trainer(cfg, data, data)
    result = trainer.train()
    assert result.best_epoch == 2
    assert result.best_val_auc == 0.70
    assert result.stopped_epoch == 4  # patience 2 after the epoch-2 peak
    # train() leaves the model with the best snapshot restored
    for name, t in trainer.model.parameters().items():
        assert np.array_equal(t.data, trainer.best_params[name]), name


def test_last_ckpt_holds_the_last_epoch_and_best_ckpt_the_best(monkeypatch, tmp_path):
    data = FakeDataset(8)
    cfg = tiny_cfg(min_epochs=1, patience=2, max_epochs=50)
    sequence = {1: 0.70, 2: 0.60, 3: 0.55}
    monkeypatch.setattr(Trainer, "validate", lambda self: sequence[self.epochs_done + 1])
    result = Trainer(cfg, data, data, run_dir=tmp_path / "run").train()
    assert (result.best_epoch, result.stopped_epoch) == (1, 3)
    replay = Trainer(cfg, data, data)
    for _ in range(3):
        replay.step_epoch()
    last, sections = load_checkpoint(tmp_path / "run" / "last.ckpt")
    best, _ = load_checkpoint(tmp_path / "run" / "best.ckpt")
    assert sections["train_state"]["epoch"] == 3
    params = replay.model.parameters()
    for name, t in params.items():
        assert np.array_equal(last[name], t.data), name
    assert any(not np.array_equal(last[name], best[name]) for name in params)


def test_trainer_respects_max_epochs(monkeypatch):
    data = FakeDataset(8)
    cfg = tiny_cfg(min_epochs=1, patience=50, max_epochs=3)
    monkeypatch.setattr(Trainer, "validate", lambda self: 0.5)
    result = Trainer(cfg, data, data).train()
    assert result.stopped_epoch == 3


def test_trainer_logs_jsonl_and_best_checkpoint(tmp_path):
    data = FakeDataset(8)
    trainer = Trainer(tiny_cfg(), data, data, run_dir=tmp_path)
    rec1 = trainer.step_epoch()
    rec2 = trainer.step_epoch()
    lines = (tmp_path / "metrics.jsonl").read_text().strip().splitlines()
    assert [json.loads(l)["epoch"] for l in lines] == [1, 2]
    for line, rec in zip(lines, (rec1, rec2)):
        parsed = json.loads(line)
        assert parsed == rec
        assert {"epoch", "train_loss", "val_mean_auc", "best_epoch", "stop"} <= set(parsed)
        # the learning rates are config constants, kept in the checkpoint's config
        assert not [k for k in parsed if k.startswith("lr_")]
    assert (tmp_path / "best.ckpt").exists()  # epoch 1 improved over -inf


def test_a_resumed_run_rewinds_the_log_to_its_checkpoint_and_a_new_one_restarts_it(tmp_path):
    data = FakeDataset(8)
    cfg = tiny_cfg(min_epochs=4, max_epochs=4)
    log = tmp_path / "metrics.jsonl"
    first = Trainer(cfg, data, data, run_dir=tmp_path)
    for _ in range(3):
        first.step_epoch()
    first.save_state(tmp_path / "mid.ckpt")
    first.step_epoch()  # logged after the checkpoint, so a resume replays it

    resumed = Trainer(cfg, data, data, run_dir=tmp_path)
    resumed.load_state(tmp_path / "mid.ckpt")
    assert [json.loads(l)["epoch"] for l in log.read_text().splitlines()] == [1, 2, 3]
    resumed.step_epoch()
    # one record per epoch, the replayed one bitwise equal to the first run's
    assert resumed.history == first.history[3:]
    assert [json.loads(l) for l in log.read_text().splitlines()] == first.history

    again = Trainer(cfg, data, data, run_dir=tmp_path)
    again.train()
    assert [json.loads(l)["epoch"] for l in log.read_text().splitlines()] == [1, 2, 3, 4]
    assert [json.loads(l) for l in log.read_text().splitlines()] == again.history


@pytest.mark.filterwarnings("error")  # the abort is the one report: numpy warns of nothing
def test_trainer_abort_on_nonfinite_loss():
    data = FakeDataset(8)
    trainer = Trainer(tiny_cfg(), data, data)
    trainer.model.head.w.data[...] = np.nan
    with pytest.raises(NumericalAbort) as err:
        trainer.run_epoch(1)
    msg = str(err.value)
    assert "non-finite" in msg and "epoch 1" in msg and "s0" in msg


def test_trainer_abort_on_nonfinite_gradient():
    data = FakeDataset(8)
    trainer = Trainer(tiny_cfg(), data, data)
    backward = trainer.model.backward

    def poisoned(cache, grad):
        backward(cache, grad)
        trainer.model.molre.bank.A.grad[0, 0] = np.nan  # loss stays finite

    trainer.model.backward = poisoned
    before = {name: t.data.copy() for name, t in trainer.model.parameters().items()}
    with pytest.raises(NumericalAbort) as err:
        trainer.run_epoch(1)
    msg = str(err.value)
    assert "non-finite gradient norm nan" in msg
    assert "epoch 1, batch 0" in msg and "samples ['s0" in msg and "head.w=" in msg
    # the abort comes before the step: no NaN reaches the parameters
    for name, t in trainer.model.parameters().items():
        assert np.array_equal(t.data, before[name]), name


def test_resume_is_bitwise_identical(tmp_path):
    data = FakeDataset(10, seed=3)
    cfg = tiny_cfg(max_epochs=20, min_epochs=20)

    a = Trainer(cfg, data, data)
    for _ in range(5):
        a.step_epoch()
    a.save_state(tmp_path / "state.ckpt")
    for _ in range(3):
        a.step_epoch()

    b = Trainer(cfg, data, data)
    b.load_state(tmp_path / "state.ckpt")
    assert b.epochs_done == 5
    for _ in range(3):
        b.step_epoch()

    pa, pb = a.model.parameters(), b.model.parameters()
    for name in pa:
        assert np.array_equal(pa[name].data, pb[name].data), name
    assert np.array_equal(
        a.optimizer.state_tensors()["opt.m.head.w"],
        b.optimizer.state_tensors()["opt.m.head.w"],
    )
    assert a.stopper.best_epoch == b.stopper.best_epoch
    assert a.stopper.best_auc == b.stopper.best_auc
    z = trunk_cache(a.model, data)
    assert np.array_equal(predict_probs(a.model, z), predict_probs(b.model, z))


def test_resume_under_augmentation_is_bitwise_identical(tmp_path):
    # augmented epochs embed each study afresh with its own (epoch, id) draw
    data = FakeDataset(6, seed=2)
    cfg = tiny_cfg(augment=True, min_epochs=3, max_epochs=3)

    a = Trainer(cfg, data, data)
    assert a.train_z is None
    a.step_epoch()
    a.save_state(tmp_path / "state.ckpt")
    for _ in range(2):
        a.step_epoch()

    b = Trainer(cfg, data, data)
    b.load_state(tmp_path / "state.ckpt")
    for _ in range(2):
        b.step_epoch()

    assert a.history[1:] == b.history
    sa, sb = a.optimizer.state_tensors(), b.optimizer.state_tensors()
    for name, t in a.model.parameters().items():
        assert np.array_equal(t.data, b.model.parameters()[name].data), name
    for name in sa:
        assert np.array_equal(sa[name], sb[name]), name


def _augmented_run(monkeypatch, log, mode, cpus, rendezvous=None):
    """Two augmented epochs on `cpus` CPUs. Each trunk call and each augment
    logs `epoch pid` or `epoch pid id` to `log`, from whichever process
    makes it; with `rendezvous`, every process takes a row of each epoch."""
    data = FakeDataset(8, seed=4)
    trainer = Trainer(tiny_cfg(mode=mode, augment=True, sampler_threshold=1.0,
                               min_epochs=2, max_epochs=2), data, data)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    epoch = [0]

    def write(*fields):
        fd = os.open(log, os.O_WRONLY | os.O_APPEND | os.O_CREAT)
        try:
            os.write(fd, (" ".join(map(str, (epoch[0], os.getpid(), *fields))) + "\n").encode())
        finally:
            os.close(fd)

    for cls in (SliceBackbone, VolumeBackbone):
        def trunk(self, x, real=cls.trunk):
            write()
            return real(self, x)
        monkeypatch.setattr(cls, "trunk", trunk)

    def augment(sample, cfg, rng, real=molre.training.augment):
        if rendezvous is not None:
            rendezvous(3 + 2 * (epoch[0] - 1))  # the parent and this epoch's two workers
        write(sample.sample_id)
        return real(sample, cfg, rng)

    def run_epoch(self, e, real=Trainer.run_epoch):
        epoch[0] = e
        return real(self, e)

    monkeypatch.setattr(molre.training, "augment", augment)
    monkeypatch.setattr(Trainer, "run_epoch", run_epoch)
    trainer.train()
    monkeypatch.undo()
    return trainer, [line.split() for line in log.read_text().splitlines()]


@pytest.mark.parametrize("mode", ["molre", "molre3d"])
def test_an_augmented_epoch_embeds_each_study_once_on_every_cpu(tmp_path, monkeypatch,
                                                                rendezvous, mode):
    forked, lines = _augmented_run(monkeypatch, tmp_path / "forked.log", mode, 3, rendezvous)
    ids = forked.train_data.ids
    for e in (1, 2):
        # a rare class repeats some study within the epoch ...
        drawn = expand_indices(forked.factors, forked.root.child("sampler", e))
        assert drawn.size > np.unique(drawn).size
        # ... and yet each is augmented and embedded once, by more than one process
        augmented = [line[2] for line in lines if line[0] == str(e) and len(line) == 3]
        trunk = [line[1] for line in lines if line[0] == str(e) and len(line) == 2]
        assert sorted(augmented) == ids and len(trunk) == len(ids)
        assert len(set(trunk)) > 1, trunk
    serial, _ = _augmented_run(monkeypatch, tmp_path / "serial.log", mode, 1)
    assert forked.history == serial.history
    a, b = ({**{n: t.data for n, t in run.model.parameters().items()},
             **run.optimizer.state_tensors()} for run in (forked, serial))
    assert a.keys() == b.keys()
    for name in a:
        assert np.array_equal(a[name], b[name]), name


def test_load_state_rejects_mode_mismatch(tmp_path):
    def trainer(cfg):
        # features straight from the cache: the trunk never sees the voxels
        z = np.random.default_rng(0).normal(size=(8, 8, cfg.stub_channels[-1]))
        data = FakeDataset(8, num_classes=cfg.num_classes)
        return Trainer(cfg, data, data, train_cache=z, val_cache=z)

    # every key of the model block, the mode first: the shape keys, then the
    # two that change the frozen features or the adapter scale but no shape
    for key, value in [
        ("mode", "lora"),
        ("num_experts", 2),
        ("rank", 1),
        ("router_hidden", 4),
        ("feature_dim", 6),
        ("num_classes", 2),
        ("stub_channels", (8, 16, 32)),
        ("stub_seed", 99),
        ("lora_alpha", 8.0),
    ]:
        path = tmp_path / f"{key}.ckpt"
        trainer(tiny_cfg(**{key: value})).save_state(path)
        with pytest.raises(CheckpointError, match=f"with {key}=.*this run has {key}="):
            trainer(tiny_cfg()).load_state(path)

    # a list and a tuple of the same channels give the same shapes
    trainer(tiny_cfg()).save_state(tmp_path / "same.ckpt")
    trainer(tiny_cfg(stub_channels=[16, 32, 64])).load_state(tmp_path / "same.ckpt")


def test_precomputed_cache_matches_internal(tmp_path):
    data = FakeDataset(10, seed=4)
    cfg = tiny_cfg(max_epochs=3, min_epochs=3, patience=1)

    plain = Trainer(cfg, data, data)
    model = build_model(cfg)
    z = trunk_cache(model, data)
    cached = Trainer(cfg, data, data, train_cache=z, val_cache=z)
    assert np.array_equal(plain.train_z, cached.train_z)

    ra = plain.train()
    rb = cached.train()
    assert [r["val_mean_auc"] for r in ra.history] == [r["val_mean_auc"] for r in rb.history]


def test_training_moves_validation_auc_on_separable_data():
    # one active voxel region decides the single label: easily separable
    rng = np.random.default_rng(5)
    data = FakeDataset(24, num_classes=2, seed=5)
    hot = rng.uniform(size=24) < 0.5
    data.voxels[:, :2] = -80.0
    data.voxels[hot, :2] = 300.0
    data.labels[:, 0] = hot
    data.labels[:, 1] = ~hot
    cfg = tiny_cfg(num_classes=2, min_epochs=8, patience=3, max_epochs=12, batch_size=6)
    result = Trainer(cfg, data, data).train()
    assert result.best_val_auc > 0.9


def test_windowed_shape():
    s = VolumeSample("x", np.zeros((4, 8, 8)), (1.0, 1.0, 4.0), [0])
    assert windowed(s).shape == (3, 4, 8, 8)
