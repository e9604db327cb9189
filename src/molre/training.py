"""The training protocol: repeat-factor sampling, focal loss, two-group
AdamW, per-epoch validation AUC, early stopping, and bit-exact checkpoints.

Epochs are 1-based. Per epoch: expand the train indices by their repeat
factors (stochastic rounding), shuffle, run minibatches of forward/backward
over cached frozen-trunk features, clip the global gradient norm, and step.
Validation mean AUC drives early stopping: training halts once at least
`min_epochs` epochs ran and `patience` epochs passed with no improvement
(counted from the later of the best epoch and the minimum), and the *best*
validation checkpoint — not the last — is what training returns.

All randomness is drawn from streams keyed by (seed, purpose, epoch, ...),
so a run never depends on how it was interrupted: resuming from a
checkpoint replays the remaining epochs bitwise. The model is built from
the run's `RunConfig` by `model.build_model`, and a checkpoint loads only
into a run whose `MODEL_KEYS` fields match its own.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import zlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from .config import ConfigError, RunConfig
from .losses import FocalLossConfig, focal_loss, focal_loss_backward, prevalence_weights
from .metrics import aggregate, per_class_auc
from .model import MODEL_KEYS, build_model
from .optim import AdamW
from .parallel import fork_rows
from .preprocess import DEFAULT_WINDOWS, AugmentConfig, augment, hu_window
from .rng import RngStream
from .sampling import expand_indices, repeat_factors
from .volumes import DiskDataset


# studies per forward call in `predict_probs`
_PREDICT_BATCH = 64


class NumericalAbort(RuntimeError):
    """Raised when a loss or gradient goes non-finite; the message names the
    epoch, batch, sample ids, and current parameter norms."""


@dataclass
class EarlyStopState:
    """Best-so-far tracker with a minimum epoch count and a patience window.

    Patience is counted from the later of the best epoch and `min_epochs`,
    so a run whose best never moves still trains min_epochs + patience
    epochs before stopping."""

    min_epochs: int
    patience: int
    best_auc: float = -np.inf
    best_epoch: int = 0

    def update(self, epoch: int, val_auc: float) -> bool:
        """Record epoch's metric; True when it strictly improves the best."""
        if val_auc > self.best_auc:
            self.best_auc = float(val_auc)
            self.best_epoch = int(epoch)
            return True
        return False

    def should_stop(self, epoch: int) -> bool:
        if epoch < self.min_epochs:
            return False
        return epoch - max(self.best_epoch, self.min_epochs) >= self.patience


def checkpoint_config(sections: dict) -> RunConfig:
    """The RunConfig a checkpoint was written with, from its `config`
    section. Raises CheckpointError when the section is missing or does not
    make a valid config, e.g. it holds a key this version does not know."""
    if not isinstance(sections.get("config"), dict):
        raise CheckpointError("checkpoint has no config section: not a training checkpoint")
    try:
        return RunConfig.from_dict(sections["config"])
    except ConfigError as e:
        raise CheckpointError(f"checkpoint config: {e}") from None


def load_model_params(model, cfg: RunConfig, tensors: dict, saved: RunConfig) -> None:
    """Copy a checkpoint's parameters into `model`, which was built from `cfg`;
    `saved` is the checkpoint's own config (`checkpoint_config`).

    Raises CheckpointError naming the first model-block key on which `saved`
    and `cfg` differ, or the first parameter the checkpoint lacks or holds at
    another shape; the model is untouched then.
    """
    # compared as plain JSON values, so a list and a tuple of the same ints match
    theirs, ours = saved.to_dict(), cfg.to_dict()
    for key in MODEL_KEYS:
        if theirs[key] != ours[key]:
            raise CheckpointError(
                f"checkpoint was trained with {key}={theirs[key]!r}, "
                f"this run has {key}={ours[key]!r}"
            )
    params = model.parameters()
    for name, t in params.items():
        if name not in tensors:
            raise CheckpointError(f"checkpoint is missing parameter {name!r}")
        if tensors[name].shape != t.shape:
            raise CheckpointError(
                f"checkpoint parameter {name!r} has shape {tensors[name].shape}, "
                f"the model needs {t.shape}"
            )
    for name, t in params.items():
        t.data[...] = tensors[name]


def windowed(sample) -> np.ndarray:
    return hu_window(sample.voxels, DEFAULT_WINDOWS)


def trunk_cache(model, dataset, crcs: list | None = None) -> np.ndarray:
    """Frozen-trunk features for every sample: (N, S, p) on the slice path,
    (N, p) on the volume path. Valid across epochs because the trunk never
    trains; an augmented epoch embeds its own samples here. The samples are
    read, windowed and embedded on every CPU (`parallel.fork_rows`); `crcs`,
    if given, is filled with each sample's .vol CRC32, from that one read."""

    def embed(i):
        sample = dataset.sample(i)
        return model.trunk_features(windowed(sample)), sample.crc32

    rows = fork_rows(embed, len(dataset), "trunk")
    if crcs is not None:
        crcs[:] = [crc for _, crc in rows]
    return np.stack([feats for feats, _ in rows])


# a fixed HU grid from air to dense bone, across all three windows: the
# SHA-256 of its features keys the store on what the trunk computes
_CANARY = RngStream(0).child("feature-store canary").uniform(-1000.0, 2000.0, (2, 16, 16))

# a store record holds as many rows as fit this budget, and at least one
_CHUNK_BYTES = 256 << 10


def stored_features(model, root: str | Path | DiskDataset, rows=None) -> np.ndarray:
    """Frozen-trunk features of manifest rows `rows` (default: all), in that
    order, as `trunk_cache` gives them, from the feature store of the dataset
    at `root`: a directory, or a DiskDataset over every row (`split` None),
    whose manifest is not re-read.

    The store is `features-<trunk>-<digest>.ckpt` next to manifest.json. Its
    name holds the trunk kind (2d/3d) and a digest of that kind, the SHA-256
    of the trunk's frozen conv parameters and DEFAULT_WINDOWS. The file also
    records the SHA-256 of the trunk's features of _CANARY, which every call
    recomputes, the rows per record, and each row's .vol file name, size and
    CRC32. The features are records `features.<k>` of consecutive rows
    within _CHUNK_BYTES; a call reads and CRCs only the records and .vol
    files that hold `rows`. A missing store is built from every row, on
    every CPU (`trunk_cache`), which reads each .vol file once and CRCs the
    bytes it embeds. One that fails a checksum a call reads, or whose trunk
    computes another canary, or that was built from other .vol files or in
    other records, is rebuilt with one line on stderr; it is never served.
    If the store cannot be written, the computed features are returned all
    the same."""
    everything = root if isinstance(root, DiskDataset) else DiskDataset(root)
    if everything.split is not None:
        raise ValueError(f"stored_features needs every row, not split {everything.split!r}")
    h = hashlib.sha256()
    for name, t in model.stub.frozen_parameters().items():
        if name.startswith("backbone.conv"):  # the projection runs after the store
            h.update(f"{name}{t.data.shape}".encode())
            h.update(t.data.tobytes())
    key = {
        "trunk": f"{len(model.stub.kernel)}d",
        "stub_sha256": h.hexdigest(),
        "windows": [[w.lo, w.hi] for w in DEFAULT_WINDOWS],
    }
    digest = hashlib.sha256(json.dumps(key, sort_keys=True).encode()).hexdigest()[:16]
    path = everything.root / f"features-{key['trunk']}-{digest}.ckpt"
    canary = model.trunk_features(hu_window(_CANARY, DEFAULT_WINDOWS))
    key["canary_sha256"] = hashlib.sha256(canary.tobytes()).hexdigest()
    files = [os.path.join(everything.root, r["file"]) for r in everything.rows]
    key["vols"] = [[r["file"], os.stat(f).st_size] for r, f in zip(everything.rows, files)]
    # a 2D row is (slices, p), a 3D row (p,)
    row = 8 * model.stub.trunk_dim * (everything.volume_shape[0] if key["trunk"] == "2d" else 1)
    n, per = len(everything), max(1, _CHUNK_BYTES // row)
    key["rows_per_record"] = per
    names = [f"features.{c:0{len(str((n - 1) // per))}d}" for c in range(-(-n // per))]
    want = range(n) if rows is None else rows
    served = {names[r // per] for r in want}

    if path.exists():
        try:
            tensors, sections = load_checkpoint(path, served)
        except CheckpointError as e:
            print(f"feature store rejected ({e}); rebuilding", file=sys.stderr)
        else:
            built = sections.get("key") if isinstance(sections.get("key"), dict) else {}
            differs = [k for k in key if built.get(k) != key[k]]
            if not differs and any(built["vol_crc32"][i] != zlib.crc32(Path(files[i]).read_bytes())
                                   for i in want):
                differs = ["vol_crc32"]
            if not differs and served <= tensors.keys():
                return np.stack([tensors[names[r // per]][r % per] for r in want])
            # the name's digest covers the rest of the key
            what = {"canary_sha256": "trunk code", "rows_per_record": "record layout",
                    "vols": ".vol files", "vol_crc32": ".vol files"}
            other = " and ".join(what[k] for k in differs if k in what) or "data"
            print(f"feature store {path} was built from other {other}; rebuilding", file=sys.stderr)
    key["vol_crc32"] = []
    feats = trunk_cache(model, everything, key["vol_crc32"])
    try:
        chunks = {name: feats[c * per:(c + 1) * per] for c, name in enumerate(names)}
        save_checkpoint(path, chunks, {"key": key})
    except OSError as e:
        print(f"feature store not written ({e}); using the computed features", file=sys.stderr)
    return feats if rows is None else feats[rows]


def predict_probs(model, z: np.ndarray) -> np.ndarray:
    """Deterministic forward over cached trunk features z, (N, C)
    probabilities."""
    out = []
    for lo in range(0, len(z), _PREDICT_BATCH):
        probs, _ = model.forward_trunk_cached(z[lo:lo + _PREDICT_BATCH])
        out.append(probs)
    return np.concatenate(out, axis=0)


@dataclass
class TrainResult:
    best_epoch: int
    best_val_auc: float
    stopped_epoch: int
    history: list[dict] = field(default_factory=list)


class _Augmented:
    """A trainer's train set as one epoch augments it: `sample(i)` draws
    from the `("augment", epoch, id)` stream of study i."""

    def __init__(self, trainer: Trainer, epoch: int):
        self.trainer, self.epoch = trainer, epoch

    def __len__(self) -> int:
        return len(self.trainer.train_data)

    def sample(self, i: int):
        t = self.trainer
        sample = t.train_data.sample(i)
        return augment(sample, t.aug_cfg, t.root.child("augment", self.epoch, sample.sample_id))


class Trainer:
    """Owns one run: model, optimizer, loss weights, feature caches, and the
    early-stop/best-checkpoint bookkeeping."""

    def __init__(
        self,
        cfg: RunConfig,
        train_data,
        val_data,
        run_dir: str | Path | None = None,
        train_cache: np.ndarray | None = None,
        val_cache: np.ndarray | None = None,
    ):
        self.cfg = cfg.validate()
        self.train_data = train_data
        self.val_data = val_data
        self.run_dir = Path(run_dir) if run_dir is not None else None
        if self.run_dir is not None:
            self.run_dir.mkdir(parents=True, exist_ok=True)

        self.model = build_model(cfg)
        self.root = RngStream(cfg.seed)
        self.model.init_params(self.root.child("init"))
        self.optimizer = AdamW(
            self.model.param_groups(),
            {"head": cfg.lr_head, "adapter": cfg.lr_adapter},
            weight_decay=cfg.weight_decay,
            betas=(cfg.beta1, cfg.beta2),
            eps=cfg.adam_eps,
        )
        self.labels = np.asarray(train_data.labels, dtype=np.float64)
        weights = prevalence_weights(
            self.labels, cfg.weight_clamp_lo, cfg.weight_clamp_hi
        )
        self.loss_cfg = FocalLossConfig(gamma=cfg.gamma, class_weights=weights)
        self.factors = repeat_factors(self.labels, cfg.sampler_threshold)
        self.aug_cfg = AugmentConfig() if cfg.augment else None

        if self.aug_cfg is None:
            self.train_z = train_cache if train_cache is not None else trunk_cache(self.model, train_data)
        else:
            self.train_z = None  # embedded afresh by each epoch (`run_epoch`)
        self.val_z = val_cache if val_cache is not None else trunk_cache(self.model, val_data)

        self.stopper = EarlyStopState(cfg.min_epochs, cfg.patience)
        self.epochs_done = 0
        self.history: list[dict] = []
        self.best_params: dict[str, np.ndarray] = {}

    # -- training ------------------------------------------------------------

    def _abort(self, what: str, epoch: int, batch_no: int, idx: np.ndarray) -> NumericalAbort:
        norms = ", ".join(
            f"{name}={np.linalg.norm(t.data):.3e}"
            for name, t in self.model.parameters().items()
        )
        ids = [self.train_data.ids[int(i)] for i in idx]
        return NumericalAbort(
            f"non-finite {what} at epoch {epoch}, batch {batch_no} "
            f"(samples {ids}); parameter norms: {norms}"
        )

    def run_epoch(self, epoch: int) -> float:
        """One pass over the repeat-expanded, shuffled train set; returns the
        mean minibatch loss. Under `augment` every train study is first
        augmented from its `("augment", epoch, id)` stream and embedded once,
        on every CPU (`trunk_cache`)."""
        cfg = self.cfg
        if self.aug_cfg is not None:
            self.train_z = trunk_cache(self.model, _Augmented(self, epoch))
        ep_rng = self.root.child("sampler", epoch)
        expanded = expand_indices(self.factors, ep_rng)
        order = expanded[ep_rng.permutation(expanded.size)]
        losses = []
        for batch_no, lo in enumerate(range(0, order.size, cfg.batch_size)):
            idx = order[lo:lo + cfg.batch_size]
            probs, fwd_cache = self.model.forward_trunk_cached(self.train_z[idx])
            y = self.labels[idx]
            loss = focal_loss(probs, y, self.loss_cfg)
            if not np.isfinite(loss):
                raise self._abort(f"loss {loss}", epoch, batch_no, idx)
            grad = focal_loss_backward(probs, y, self.loss_cfg)
            self.optimizer.zero_grad()
            self.model.backward(fwd_cache, grad)
            grad_norm = self.optimizer.clip_global_norm(cfg.clip_norm)
            if not np.isfinite(grad_norm):
                raise self._abort(f"gradient norm {grad_norm}", epoch, batch_no, idx)
            self.optimizer.step()
            losses.append(loss)
        return float(np.mean(losses)) if losses else 0.0

    def validate(self) -> float:
        probs = predict_probs(self.model, self.val_z)
        return aggregate(per_class_auc(probs, self.val_data.labels))["mean_auc"]

    def _snapshot_best(self) -> None:
        self.best_params = {
            name: t.data.copy() for name, t in self.model.parameters().items()
        }

    def _log(self, record: dict) -> None:
        self.history.append(record)
        if self.run_dir is not None:
            # a run's first epoch starts the log; a resumed run appends to it
            with open(self.run_dir / "metrics.jsonl", "w" if record["epoch"] == 1 else "a") as fh:
                fh.write(json.dumps(record) + "\n")

    def step_epoch(self) -> dict:
        """Run the next epoch end to end (train pass, validation, early-stop
        bookkeeping, best snapshot, log record); returns the epoch record."""
        cfg = self.cfg
        epoch = self.epochs_done + 1
        train_loss = self.run_epoch(epoch)
        val_auc = self.validate()
        self.epochs_done = epoch
        if self.stopper.update(epoch, val_auc):
            self._snapshot_best()
            if self.run_dir is not None:
                self.save_state(self.run_dir / "best.ckpt")
        stop = self.stopper.should_stop(epoch) or epoch >= cfg.max_epochs
        record = {
            "epoch": epoch,
            "train_loss": train_loss,
            "val_mean_auc": val_auc,
            "best_epoch": self.stopper.best_epoch,
            "stop": bool(stop),
        }
        self._log(record)
        return record

    def train(self) -> TrainResult:
        while self.epochs_done < self.cfg.max_epochs:
            if self.step_epoch()["stop"]:
                break
        self.load_best_params()
        return TrainResult(
            best_epoch=self.stopper.best_epoch,
            best_val_auc=self.stopper.best_auc,
            stopped_epoch=self.epochs_done,
            history=self.history,
        )

    def load_best_params(self) -> None:
        """Restore the best-validation parameters into the live model."""
        for name, data in self.best_params.items():
            self.model.parameters()[name].data[...] = data

    # -- checkpointing ---------------------------------------------------------

    def save_state(self, path: str | Path) -> None:
        tensors: dict[str, np.ndarray] = {
            name: t.data for name, t in self.model.parameters().items()
        }
        tensors.update(self.optimizer.state_tensors())
        for name, data in self.best_params.items():
            tensors[f"best.{name}"] = data
        sections = {
            "config": self.cfg.to_dict(),
            "train_state": {
                "epoch": self.epochs_done,
                "step_count": self.optimizer.step_count,
                "best_epoch": self.stopper.best_epoch,
                "best_val_auc": (
                    None if np.isneginf(self.stopper.best_auc) else self.stopper.best_auc
                ),
            },
        }
        save_checkpoint(path, tensors, sections)

    def load_state(self, path: str | Path) -> None:
        tensors, sections = load_checkpoint(path)
        load_model_params(self.model, self.cfg, tensors, checkpoint_config(sections))
        state = sections["train_state"]
        self.optimizer.load_state(tensors, state["step_count"])
        self.epochs_done = int(state["epoch"])
        self.stopper.best_epoch = int(state["best_epoch"])
        self.stopper.best_auc = (
            -np.inf if state["best_val_auc"] is None else float(state["best_val_auc"])
        )
        self.best_params = {
            name[len("best."):]: arr
            for name, arr in tensors.items()
            if name.startswith("best.")
        }
        if self.run_dir is not None and (log := self.run_dir / "metrics.jsonl").exists():
            # the epochs after the checkpoint run again, so their records go
            records = log.read_text().splitlines(keepends=True)
            log.write_text("".join(r for r in records if json.loads(r)["epoch"] <= self.epochs_done))
