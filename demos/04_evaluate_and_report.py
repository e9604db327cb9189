"""
Evaluating a checkpoint
=======================

Loads the best checkpoint written by 03_small_training_run.py, rebuilds
the model from the config stored inside it, scores the held-out test
split, and writes the report files (report.txt / report.json).

Demo 03 trained on studies rendered in memory. Here the same studies are
written to disk, as `molre synth` would, so that the test split is scored
through the dataset's feature store: the first run computes the frozen
trunk's features for every study and saves them next to manifest.json,
and every later run, and every `molre train` / `molre eval` on that data,
reads them back instead of running the trunk again.

The equivalent from a shell:

    molre eval --checkpoint runs/demo-run/best.ckpt --split test --out runs/demo-run \
        --set data_dir=runs/demo-data
"""

import sys
from dataclasses import replace
from pathlib import Path

from molre.checkpoint import load_checkpoint
from molre.cli import cmd_synth
from molre.metrics import evaluate, param_report, write_report
from molre.model import build_model
from molre.training import (
    checkpoint_config,
    load_model_params,
    predict_probs,
    stored_features,
)
from molre.volumes import MANIFEST_NAME, DiskDataset

RUN_DIR = Path(__file__).resolve().parent / "runs" / "demo-run"
DATA_DIR = RUN_DIR.parent / "demo-data"
ckpt = RUN_DIR / "best.ckpt"
if not ckpt.exists():
    sys.exit(f"{ckpt} not found -- run demos/03_small_training_run.py first")

# the checkpoint carries everything needed to rebuild the model; the same
# check as `molre eval` makes sure its tensors fit the rebuilt model
tensors, sections = load_checkpoint(ckpt)
cfg = checkpoint_config(sections)
model = build_model(cfg)
load_model_params(model, cfg, tensors, cfg)
print(f"restored mode={cfg.mode} from epoch {sections['train_state']['epoch']} "
      f"(best val AUC {sections['train_state']['best_val_auc']:.4f})")

# the checkpoint's config names the synthetic dataset; its test split is the
# tail of the same deterministic sequence demo 03 trained on
if not (DATA_DIR / MANIFEST_NAME).exists():
    cmd_synth(replace(cfg, data_dir=str(DATA_DIR)))
data = DiskDataset(DATA_DIR)  # every row: the store is built for all of them
test_data = DiskDataset(DATA_DIR, "test", data.manifest)

had_store = sorted(p.name for p in DATA_DIR.glob("features-*.ckpt"))
z = stored_features(model, data, test_data.index)
(store,) = DATA_DIR.glob("features-*.ckpt")
print(f"trunk features of {len(test_data)} test studies "
      f"{'read from' if had_store else 'computed and saved to'} {store.name}")

probs = predict_probs(model, z)
report = evaluate(probs, test_data.labels, param_report(model))
write_report(report, RUN_DIR)

print()
print((RUN_DIR / "report.txt").read_text())
print(f"report files in {RUN_DIR}")
