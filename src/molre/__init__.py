"""Conditionally routed low-rank adapters over frozen backbone features,
with the full training, preprocessing, and evaluation protocol around them."""

from .adapters import (
    ExpertBank,
    LoraAdapter,
    MolreLayer,
    Router,
    count_molre_params,
)
from .checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from .config import MODES, ConfigError, RunConfig, apply_overrides, load_config
from .losses import FocalLossConfig, focal_loss, focal_loss_backward, prevalence_weights
from .metrics import (
    EvaluationError,
    MetricsReport,
    aggregate,
    auc,
    evaluate,
    param_report,
    per_class_auc,
)
from .model import SliceModel, VolumeModel
from .optim import AdamW
from .pipeline import (
    AttentionPooler,
    ClassifierHead,
    SliceBackbone,
    VolumeBackbone,
)
from .preprocess import (
    DEFAULT_SPACING,
    DEFAULT_WINDOWS,
    AugmentConfig,
    WindowSpec,
    augment,
    hu_window,
    resample,
)
from .rng import RngStream
from .sampling import expand_indices, repeat_factors
from .synthetic import (
    SynthConfig,
    SyntheticDataset,
    class_prevalences,
    sample_label_matrix,
    synth_sample,
)
from .tensor import OracleError, ShapeError, Tensor, finite_diff_grad
from .training import (
    EarlyStopState,
    NumericalAbort,
    Trainer,
    TrainResult,
    build_model,
    predict_probs,
    stored_features,
    train,
    trunk_cache,
)
from .volumes import (
    DataError,
    DiskDataset,
    VolumeSample,
    read_volume,
    write_volume,
)

__version__ = "0.1.0"
