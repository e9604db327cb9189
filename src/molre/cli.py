"""Command-line surface: dataset synthesis, training, evaluation, and
parameter accounting.

    molre synth        --config c.cfg [--set k=v ...] [--seed N] [--out DIR]
    molre train        --config c.cfg [--set k=v ...] [--seed N] [--out DIR]
    molre eval         --checkpoint best.ckpt [--split test] [--set k=v ...] [--out DIR]
    molre count-params [--config c.cfg] [--set k=v ...]

`train` and `eval` read the manifest once and the frozen trunk's features
from the dataset's feature store (`training.stored_features`):
`features-<trunk>-<digest>.ckpt` next to `manifest.json`, built by the first
command that needs it and rebuilt, with one line on stderr, when the trunk
computes other features of a fixed canary grid, when a `.vol` file's name
or size, or the bytes of a `.vol` or of a store record the command serves
changed (eval serves its split's rows, train the train and val rows, and
only the val rows when `augment = true`), or when the store is cut short.
Deleting the file only costs one rebuild.

`train` writes `best.ckpt` at each epoch that improves the validation AUC
and `last.ckpt` after the last epoch; each holds the state after its epoch
(parameters, AdamW moments, step count), and the best parameters so far.
`eval` rebuilds the run from the checkpoint's own config, with any `--set`
applied on top.

`synth` renders its studies, `train` and `eval` build a missing store, and
`train` embeds each augmented epoch (`augment = true`), on every CPU of the
affinity mask (`parallel.fork_rows`), with the bytes of one process.
Studies are handed out on demand, so each process takes the next one when
it is free. A worker's error, or its death, is a data error. A tracer
patched into this module or the trunk sees the parent's share only, and
that share varies from run to run.

Exit codes: 0 success, 2 config error (an unknown key, or a malformed, NaN,
infinite or out-of-range value, in the config file or `--set`, or a config
file that cannot be read or is not UTF-8), 3 data error (a missing,
malformed or corrupt manifest, `.vol` file or checkpoint, a dataset with
another class count than the run, a checkpoint of another format version
or another run, one with no config section, a config key this version does
not know or a value of another type or out of its range, a record that does
not decode, or an evaluation split where no class has both labels), 4
numerical abort. Each error is one stderr line with its prefix
(`config error:`, `data error:`, `numerical abort:`).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .checkpoint import CheckpointError, load_checkpoint
from .config import ConfigError, RunConfig, apply_overrides, load_config
from .metrics import EvaluationError, evaluate, format_param_table, param_report, write_report
from .model import build_model
from .parallel import fork_rows
from .synthetic import SynthConfig, class_prevalences, synth_sample
from .training import (
    NumericalAbort,
    Trainer,
    checkpoint_config,
    load_model_params,
    predict_probs,
    stored_features,
)
from .volumes import DataError, DiskDataset, write_manifest, write_volume

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4


def _resolve_config(args) -> RunConfig:
    cfg = load_config(args.config) if args.config else RunConfig()
    cfg = apply_overrides(cfg, args.set or [])
    if getattr(args, "seed", None) is not None:
        cfg.seed = args.seed
    if getattr(args, "out", None):
        cfg.out_dir = args.out
    return cfg.validate()


def _dataset(cfg: RunConfig) -> DiskDataset:
    """Every row of the dataset at cfg.data_dir, which must have the run's
    class count; its splits share this one read of the manifest."""
    if not cfg.data_dir:
        raise DataError("no data_dir: pass --set data_dir=DIR naming a synthesized dataset")
    data = DiskDataset(cfg.data_dir)
    if data.num_classes != cfg.num_classes:
        raise DataError(
            f"{cfg.data_dir} has {data.num_classes} classes, the run has "
            f"num_classes={cfg.num_classes}"
        )
    return data


def _split_counts(n: int, cfg: RunConfig) -> tuple[int, int]:
    n_train = int(n * cfg.train_frac)
    n_val = int(n * cfg.val_frac)
    if n_train < 1 or n_val < 1 or n_train + n_val >= n:
        raise ConfigError(
            f"split fractions {cfg.train_frac}/{cfg.val_frac} leave no usable "
            f"train/val/test split for n={n}"
        )
    return n_train, n_val


def cmd_synth(cfg: RunConfig) -> int:
    out_dir = Path(cfg.data_dir or cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    scfg = SynthConfig(
        num_classes=cfg.num_classes,
        shape=tuple(cfg.volume_shape),
        spacing=tuple(cfg.spacing),
    )
    n = cfg.num_samples
    n_train, n_val = _split_counts(n, cfg)

    def render(i: int) -> dict:
        sample = synth_sample(i, scfg, cfg.data_seed)
        fname = f"{sample.sample_id}.vol"
        write_volume(out_dir / fname, sample)
        split = "train" if i < n_train else ("val" if i < n_train + n_val else "test")
        return {
            "id": sample.sample_id,
            "split": split,
            "labels": [int(x) for x in sample.labels],
            "file": fname,
            "stream": sample.stream_id,
        }

    rows = fork_rows(render, n, "synth")
    labels = np.array([r["labels"] for r in rows], dtype=np.float64)
    manifest = {
        "format_version": 1,
        "num_classes": cfg.num_classes,
        "volume_shape": list(cfg.volume_shape),
        "spacing": list(cfg.spacing),
        "seed": cfg.data_seed,
        "target_prevalence": [float(p) for p in class_prevalences(scfg)],
        "prevalence": [float(p) for p in labels.mean(axis=0)],
        "samples": rows,
    }
    write_manifest(out_dir, manifest)
    print(f"wrote {n} volumes + manifest to {out_dir}")
    return EXIT_OK


def cmd_train(cfg: RunConfig) -> int:
    data = _dataset(cfg)
    train_data, val_data = (DiskDataset(data.root, s, data.manifest) for s in ("train", "val"))
    run_dir = Path(cfg.out_dir)
    # an augmented run embeds its train rows afresh each epoch (`Trainer.run_epoch`)
    n = 0 if cfg.augment else len(train_data)
    # every model of cfg has the frozen trunk of build_model(cfg)
    feats = stored_features(build_model(cfg), data, train_data.index[:n] + val_data.index)
    trainer = Trainer(
        cfg, train_data, val_data, run_dir=run_dir, train_cache=feats[:n], val_cache=feats[n:],
    )
    result = trainer.train()
    print(
        f"stopped at epoch {result.stopped_epoch}; "
        f"best val mean AUC {result.best_val_auc:.4f} at epoch {result.best_epoch}; "
        f"checkpoints in {run_dir}"
    )
    return EXIT_OK


def cmd_eval(args) -> int:
    tensors, sections = load_checkpoint(args.checkpoint)
    saved = checkpoint_config(sections)
    cfg = apply_overrides(saved, args.set or [])
    model = build_model(cfg)
    load_model_params(model, cfg, tensors, saved)
    data = _dataset(cfg)
    dataset = DiskDataset(data.root, args.split, data.manifest)
    probs = predict_probs(model, stored_features(model, data, dataset.index))
    report = evaluate(probs, dataset.labels, param_report(model))
    out_dir = Path(args.out or cfg.out_dir)
    write_report(report, out_dir)
    print(
        f"{args.split}: mean AUC {report.mean_auc:.4f} ± {report.std_auc:.4f} "
        f"over {sum(a is not None for a in report.per_class_auc)} classes; "
        f"high {report.bucket_high}, mid {report.bucket_mid}; reports in {out_dir}"
    )
    return EXIT_OK


def cmd_count_params(cfg: RunConfig) -> int:
    model = build_model(cfg)
    print(format_param_table(param_report(model)))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="molre",
        description="Mixture-of-low-rank-experts adapters over frozen backbones.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, seed=True, out=True):
        p.add_argument("--config", help="path to a key = value config file")
        p.add_argument(
            "--set", action="append", metavar="KEY=VALUE",
            help="override a config key (repeatable)",
        )
        if seed:
            p.add_argument("--seed", type=int, help="override the run seed")
        if out:
            p.add_argument("--out", help="override the output directory")

    common(sub.add_parser("synth", help="generate a synthetic dataset"))
    common(sub.add_parser("train", help="train one run per the protocol"))
    p_eval = sub.add_parser("eval", help="evaluate a checkpoint on a split")
    p_eval.add_argument("--checkpoint", required=True, help="path to a .ckpt file")
    p_eval.add_argument("--split", default="test", choices=("train", "val", "test"))
    p_eval.add_argument(
        "--set", action="append", metavar="KEY=VALUE",
        help="override a config key (repeatable)",
    )
    p_eval.add_argument("--out", help="directory for report files")
    common(sub.add_parser("count-params", help="print the parameter table"), seed=False, out=False)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code) if e.code else 0
    try:
        if args.command == "eval":
            return cmd_eval(args)
        cfg = _resolve_config(args)
        if args.command == "synth":
            return cmd_synth(cfg)
        if args.command == "train":
            return cmd_train(cfg)
        return cmd_count_params(cfg)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except (DataError, CheckpointError, EvaluationError, OSError) as e:
        print(f"data error: {e}", file=sys.stderr)
        return EXIT_DATA
    except NumericalAbort as e:
        print(f"numerical abort: {e}", file=sys.stderr)
        return EXIT_NUMERIC


def entry() -> None:
    sys.exit(main())
