"""The benchmark's workloads. Each is a closed loop with one client in one
process: every call waits for the one before it, as a training job does.

Each workload is run as repeats of one fixed piece of work. A repeat sets
up from the workload seed, does the work and returns what it measured,
the loss/AUC trace that later repeats must reproduce bit for bit, and the
operations it attempted and saw fail.

    train-molre  Trainer(mode="molre") over cached trunk-shaped features;
                 the expert bank and router do most of the step work.
    cli-cycle    `molre synth`, then `molre train` and `molre eval --split
                 test` for each mode, in process: the frozen trunk, render,
                 volume I/O, checkpoints and AUC reporting dominate. Its
                 lora and baseline-frozen runs train no expert bank.

Features are generated rather than rendered and embedded because routing
is soft, so step time depends on shapes, not values, and embedding 2,400
studies would add about two minutes of set-up to every run.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
import tempfile
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from molre.cli import main as molre_main
from molre.config import RunConfig
from molre.sampling import repeat_factors
from molre.synthetic import SynthConfig, sample_label_matrix
from molre.training import Trainer

CLI_MODES = ("baseline-frozen", "lora", "molre", "molre3d")


@dataclass(frozen=True)
class Sizes:
    """Work in one repeat. The defaults are the benchmark's; the self-tests
    shrink them."""

    train_studies: int = 2000
    val_studies: int = 400
    train_epochs: int = 8    # step_epoch calls per train-molre repeat
    cli_epochs: int = 2      # min_epochs = max_epochs of each `molre train`
    train_setups: int = 3    # set-ups per train-molre repeat, for a median
    cli_setups: int = 3      # set-ups before each of the 5 phases of a cli-cycle repeat
    cli_set: tuple[str, ...] = ()  # extra `--set key=value` for synth/train


@dataclass
class Repeat:
    """What one repeat measured."""

    setup_s: list[float] = field(default_factory=list)
    cycle_s: list[float] = field(default_factory=list)  # per step_epoch call; on cli-cycle, the whole cycle
    train: list[tuple[float, float]] = field(default_factory=list)  # (seconds, samples) per training call
    score: list[tuple[float, float]] = field(default_factory=list)  # (seconds, studies) per scoring call
    # on cli-cycle, `train` and `score` hold one entry that sums the four modes
    phases: dict[str, float] = field(default_factory=dict)  # named wall times for the report
    outputs: list = field(default_factory=list)  # loss/AUC trace, compared bitwise across repeats
    attempted: int = 0
    failures: list[str] = field(default_factory=list)


def _finite(*values) -> bool:
    return all(isinstance(v, float) and math.isfinite(v) for v in values)


# -- train-molre ---------------------------------------------------------------

class CachedSplit:
    """A split whose trunk features are passed to the Trainer directly:
    labels and ids, no voxels."""

    def __init__(self, labels: np.ndarray, prefix: str):
        self.labels = labels
        self.ids = [f"{prefix}-{i:05d}" for i in range(len(labels))]

    def __len__(self) -> int:
        return len(self.labels)


def trunk_like(rng: np.random.Generator, n: int) -> np.ndarray:
    """(n, slices, trunk_dim) features, standardised per row like the
    frozen trunk's output."""
    cfg = RunConfig()
    z = rng.standard_normal((n, cfg.volume_shape[0], cfg.stub_channels[-1]))
    return (z - z.mean(axis=-1, keepdims=True)) / (z.std(axis=-1, keepdims=True) + 1e-6)


def _timed(fn, into: list[float]):
    def call(*args, **kwargs):
        t0 = perf_counter()
        out = fn(*args, **kwargs)
        into.append(perf_counter() - t0)
        return out

    return call


def train_repeat(mode: str, seed: int, sizes: Sizes) -> Repeat:
    rep = Repeat()
    n_train, n_val = sizes.train_studies, sizes.val_studies
    cfg = RunConfig(
        mode=mode, seed=seed, min_epochs=sizes.train_epochs, max_epochs=sizes.train_epochs
    )
    for _ in range(sizes.train_setups):  # the same set-up each time; the last one is used
        t0 = perf_counter()
        labels = sample_label_matrix(n_train + n_val, SynthConfig(), seed)
        train, val = CachedSplit(labels[:n_train], "train"), CachedSplit(labels[n_train:], "val")
        rng = np.random.default_rng(seed)
        trainer = Trainer(
            cfg, train, val, train_cache=trunk_like(rng, n_train), val_cache=trunk_like(rng, n_val)
        )
        rep.setup_s.append(perf_counter() - t0)

    # expected repeat-expanded samples per epoch; the trainer rounds each
    # factor stochastically, so this is exact in expectation
    samples = float(repeat_factors(train.labels, cfg.sampler_threshold).sum())
    epoch_s: list[float] = []
    val_s: list[float] = []
    trainer.run_epoch = _timed(trainer.run_epoch, epoch_s)
    trainer.validate = _timed(trainer.validate, val_s)
    for _ in range(sizes.train_epochs):
        rep.attempted += 1
        t0 = perf_counter()
        try:
            record = trainer.step_epoch()
        except Exception:
            rep.failures.append(traceback.format_exc())
            break
        rep.cycle_s.append(perf_counter() - t0)
        loss, auc = record["train_loss"], record["val_mean_auc"]
        if not _finite(loss, auc):
            rep.failures.append(f"epoch {record['epoch']}: loss {loss!r}, val AUC {auc!r}")
        rep.outputs.append((loss, auc))
    # the timers refer back to the trainer; dropping them frees its features now
    del trainer.run_epoch, trainer.validate
    rep.train = [(s, samples) for s in epoch_s]
    rep.score = [(s, float(n_val)) for s in val_s]
    return rep


# -- cli-cycle ----------------------------------------------------------------

def _cli(argv: list[str]) -> tuple[int, str]:
    """One in-process CLI call: its exit code and its messages, which are
    kept off the benchmark's output. An exception the CLI does not map to
    an exit code is reported as code -1 with its traceback."""
    sink = io.StringIO()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = molre_main(argv)
    except Exception:
        return -1, traceback.format_exc()
    return code, sink.getvalue()


def _check_train(run: Path, rep: Repeat) -> None:
    try:
        records = [json.loads(line) for line in (run / "metrics.jsonl").read_text().splitlines()]
    except (OSError, ValueError) as e:
        rep.failures.append(f"{run.name}: metrics.jsonl unreadable: {e}")
        return
    trace = [(r["train_loss"], r["val_mean_auc"]) for r in records]
    if not trace or not all(_finite(*pair) for pair in trace):
        rep.failures.append(f"{run.name}: non-finite or missing loss/AUC trace {trace}")
    rep.outputs.append((run.name, trace))


def _check_eval(run: Path, rep: Repeat) -> None:
    try:
        report = json.loads((run / "report.json").read_text())
    except (OSError, ValueError) as e:
        rep.failures.append(f"{run.name}: report.json unreadable: {e}")
        return
    mean_auc = report.get("mean_auc")
    if not (_finite(mean_auc) and 0.0 <= mean_auc <= 1.0):
        rep.failures.append(f"{run.name}: test mean AUC {mean_auc!r} outside [0, 1]")
    rep.outputs.append((run.name, mean_auc, report.get("per_class_auc")))


def cli_repeat(seed: int, sizes: Sizes, work_root: Path) -> Repeat:
    rep = Repeat()
    sets = [a for kv in sizes.cli_set for a in ("--set", kv)]
    ws = Path(tempfile.mkdtemp(prefix="cycle-", dir=work_root))
    try:
        _cycle(seed, sizes, ws, sets, rep)
    finally:
        shutil.rmtree(ws)
    return rep


def _setups(sizes: Sizes, sets: list[str], work_root: Path, rep: Repeat) -> None:
    """Set up `sizes.cli_setups` times: a fresh workspace, and every model of
    the cycle built once. The first set-ups warm the process up, so the
    first train call does not pay for that. They run before each phase of
    the cycle, so their median follows the host's speed over the whole run
    rather than at one moment."""
    for _ in range(sizes.cli_setups):
        t0 = perf_counter()
        ws = tempfile.mkdtemp(prefix="setup-", dir=work_root)
        for mode in CLI_MODES:
            rep.attempted += 1
            code, said = _cli(["count-params", *sets, "--set", f"mode={mode}"])
            if code != 0:
                rep.failures.append(f"count-params mode={mode} exited {code}: {said}")
        rep.setup_s.append(perf_counter() - t0)
        shutil.rmtree(ws)


def _cycle(seed: int, sizes: Sizes, ws: Path, sets: list[str], rep: Repeat) -> None:
    data = ws / "data"
    epochs = [f"min_epochs={sizes.cli_epochs}", f"max_epochs={sizes.cli_epochs}"]
    epochs = [a for kv in epochs for a in ("--set", kv)]
    _setups(sizes, sets, ws.parent, rep)
    rep.attempted += 1
    t0 = perf_counter()
    code, said = _cli(["synth", *sets, "--set", f"data_seed={seed}", "--out", str(data)])
    rep.phases["synth_s"] = perf_counter() - t0
    if code != 0:
        rep.failures.append(f"synth exited {code}: {said}")
        return
    splits = [r["split"] for r in json.loads((data / "manifest.json").read_text())["samples"]]
    trained, evaluated = [], []
    rep.phases["eval_s"] = 0.0
    for mode in CLI_MODES:
        run = ws / mode
        _setups(sizes, sets, ws.parent, rep)
        rep.attempted += 1
        t0 = perf_counter()
        code, said = _cli([
            "train", *sets, *epochs, "--set", f"data_dir={data}", "--set", f"mode={mode}",
            "--seed", str(seed), "--out", str(run),
        ])
        dt = perf_counter() - t0
        rep.phases[f"train_s.{mode}"] = dt
        if code != 0:
            rep.failures.append(f"train {mode} exited {code}: {said}")
            continue
        trained.append(run)
        rep.attempted += 1
        t0 = perf_counter()
        code, said = _cli(["eval", "--checkpoint", str(run / "best.ckpt"), "--split", "test",
                           "--out", str(run)])
        dt = perf_counter() - t0
        rep.phases["eval_s"] += dt
        if code != 0:
            rep.failures.append(f"eval {mode} exited {code}: {said}")
            continue
        evaluated.append(run)
    rep.cycle_s.append(sum(rep.phases.values()))  # synth, trains and evals; not the set-ups
    # one training and one scoring entry per cycle, over all four modes
    train_s = sum(rep.phases[f"train_s.{run.name}"] for run in trained)
    rep.train = [(train_s, float(splits.count("train") * sizes.cli_epochs * len(trained)))]
    rep.score = [(rep.phases["eval_s"], float(splits.count("test") * len(evaluated)))]
    for run in trained:
        _check_train(run, rep)
    for run in evaluated:
        _check_eval(run, rep)


WORKLOADS = {
    "train-molre": lambda seed, sizes, work_root: train_repeat("molre", seed, sizes),
    "cli-cycle": cli_repeat,
}
