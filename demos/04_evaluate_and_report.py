"""
Evaluating a checkpoint
=======================

Loads the best checkpoint written by 03_small_training_run.py, rebuilds
the model from the config stored inside it, scores the held-out test
split, and writes the report files (report.txt / report.json).

The equivalent from a shell:

    molre eval --checkpoint runs/demo-run/best.ckpt --split test --out runs/demo-run
"""

import sys
from pathlib import Path

from molre.checkpoint import load_checkpoint
from molre.config import RunConfig
from molre.metrics import evaluate, param_report, write_report
from molre.synthetic import SynthConfig, SyntheticDataset
from molre.training import build_model, load_model_params, predict_probs

RUN_DIR = Path(__file__).resolve().parent / "runs" / "demo-run"
ckpt = RUN_DIR / "best.ckpt"
if not ckpt.exists():
    sys.exit(f"{ckpt} not found -- run demos/03_small_training_run.py first")

# the checkpoint carries everything needed to rebuild the model; the same
# check as `molre eval` makes sure its tensors fit the rebuilt model
tensors, sections = load_checkpoint(ckpt)
cfg = RunConfig.from_dict(sections["config"])
model = build_model(cfg)
load_model_params(model, cfg, tensors, sections)
print(f"restored mode={cfg.mode} from epoch {sections['train_state']['epoch']} "
      f"(best val AUC {sections['train_state']['best_val_auc']:.4f})")

# the test split is the tail of the same deterministic synthetic sequence
scfg = SynthConfig(num_classes=cfg.num_classes, shape=tuple(cfg.volume_shape))
n_train = int(cfg.num_samples * cfg.train_frac)
n_val = int(cfg.num_samples * cfg.val_frac)
test_data = SyntheticDataset(
    cfg.num_samples, scfg, cfg.data_seed,
    indices=range(n_train + n_val, cfg.num_samples),
)

probs = predict_probs(model, test_data)
report = evaluate(probs, test_data.labels, param_report(model))
write_report(report, RUN_DIR)

print()
print((RUN_DIR / "report.txt").read_text())
print(f"report files in {RUN_DIR}")
