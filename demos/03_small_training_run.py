"""
A small end-to-end training run
===============================

The full protocol on a desk-scale dataset: focal loss with prevalence
weights, repeat-factor oversampling, AdamW with separate head/adapter
learning rates, early stopping on validation AUC, best-checkpoint
bookkeeping. Finishes in well under a minute.

The equivalent from a shell:

    molre synth --set num_samples=20 --set num_classes=3 ... --out data/
    molre train --set data_dir=data/ --out runs/demo-run
"""

from pathlib import Path

from molre.config import RunConfig
from molre.synthetic import SynthConfig, SyntheticDataset
from molre.training import Trainer

RUN_DIR = Path(__file__).resolve().parent / "runs" / "demo-run"

cfg = RunConfig(
    mode="molre",
    num_experts=3,
    rank=2,
    router_hidden=16,
    feature_dim=8,
    num_classes=3,
    volume_shape=(8, 16, 16),
    num_samples=20,
    train_frac=0.6,
    val_frac=0.2,
    batch_size=4,
    min_epochs=5,
    patience=3,
    max_epochs=30,
    seed=1,
)

scfg = SynthConfig(num_classes=cfg.num_classes, shape=tuple(cfg.volume_shape))
n_train = int(cfg.num_samples * cfg.train_frac)
n_val = int(cfg.num_samples * cfg.val_frac)
train_data = SyntheticDataset(cfg.num_samples, scfg, cfg.data_seed, indices=range(n_train))
val_data = SyntheticDataset(
    cfg.num_samples, scfg, cfg.data_seed, indices=range(n_train, n_train + n_val)
)
print(f"train {len(train_data)} / val {len(val_data)} studies, "
      f"{cfg.num_classes} classes, volumes {tuple(cfg.volume_shape)}")

trainer = Trainer(cfg, train_data, val_data, run_dir=RUN_DIR)
result = trainer.train()

print(f"\n{'epoch':>5} {'loss':>8} {'val auc':>8}")
for rec in result.history:
    star = " <- best" if rec["epoch"] == result.best_epoch else ""
    print(f"{rec['epoch']:>5} {rec['train_loss']:>8.4f} {rec['val_mean_auc']:>8.4f}{star}")

print(f"\nstopped at epoch {result.stopped_epoch}; "
      f"best val mean AUC {result.best_val_auc:.4f} at epoch {result.best_epoch}")
print(f"checkpoints and metrics.jsonl in {RUN_DIR}")
print("next: python3 demos/04_evaluate_and_report.py")
