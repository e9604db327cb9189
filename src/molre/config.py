"""Run configuration: one flat `key = value` file, strictly validated.

Every knob of a run lives in `RunConfig` with a documented default, and
every key changes the run; a config file only lists the keys it overrides.
Unknown keys, malformed values, and mode-inconsistent settings are all
rejected at load time with the offending key named. `--set key=value`
overrides reuse the same parser, so a file plus overrides is exactly
equivalent to an edited file. A checkpoint keeps its run's config as a
`to_dict` section, read back by `training.checkpoint_config`.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from pathlib import Path


class ConfigError(ValueError):
    """Raised for unknown keys, unparseable values, or invalid settings."""


MODES = ("baseline-frozen", "lora", "molre", "molre3d")


@dataclass
class RunConfig:
    # model
    mode: str = "molre"
    num_experts: int = 6        # experts in the mixture
    rank: int = 8               # low-rank update rank
    lora_alpha: float = 16.0    # adapter scaling numerator (scale = alpha/rank)
    router_hidden: int = 256    # router MLP hidden width
    feature_dim: int = 32       # working feature dimension after the stub
    num_classes: int = 12
    stub_seed: int = 1234
    stub_channels: tuple[int, ...] = (16, 32, 64)

    # data
    volume_shape: tuple[int, ...] = (32, 64, 64)  # (S, H, W)
    spacing: tuple[float, ...] = (1.0, 1.0, 4.0)  # (x, y, z) mm
    num_samples: int = 200      # synth dataset size
    train_frac: float = 0.8
    val_frac: float = 0.1       # the test split is what train and val leave
    data_dir: str = ""
    data_seed: int = 7          # seed for synthetic data generation

    # loss
    gamma: float = 2.0
    weight_clamp_lo: float = 0.05
    weight_clamp_hi: float = 0.95

    # optimizer
    lr_head: float = 1e-3       # classifier head + pooling query
    lr_adapter: float = 1e-4    # adapters + router
    weight_decay: float = 0.01
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    clip_norm: float = 5.0

    # sampling / schedule
    sampler_threshold: float = 0.01
    batch_size: int = 8
    min_epochs: int = 20
    patience: int = 5
    max_epochs: int = 100
    augment: bool = False       # preprocess.AugmentConfig() on every train epoch

    # run identity
    seed: int = 0
    out_dir: str = "runs/default"

    def validate(self) -> "RunConfig":
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.mode in ("molre", "molre3d") and self.num_experts < 1:
            raise ConfigError(f"mode {self.mode} needs num_experts >= 1")
        if not self.stub_channels or min(self.stub_channels) < 1:
            raise ConfigError(
                f"stub_channels must be one or more positive ints, got {self.stub_channels}"
            )
        if self.rank < 1 or self.rank > min(self.feature_dim, self.stub_channels[-1]):
            raise ConfigError(
                f"rank must be in [1, min(feature_dim={self.feature_dim}, "
                f"stub_channels[-1]={self.stub_channels[-1]})], got {self.rank}"
            )
        if self.router_hidden < 1:
            raise ConfigError("router_hidden must be >= 1")
        if self.num_classes < 1 or self.feature_dim < 1:
            raise ConfigError("num_classes, feature_dim must be >= 1")
        if len(self.volume_shape) != 3 or any(n < 8 for n in self.volume_shape):
            raise ConfigError(f"volume_shape needs 3 dims >= 8, got {self.volume_shape}")
        if len(self.spacing) != 3 or any(s <= 0 for s in self.spacing):
            raise ConfigError(f"spacing needs 3 positive values, got {self.spacing}")
        if min(self.train_frac, self.val_frac) <= 0 or self.train_frac + self.val_frac >= 1.0:
            raise ConfigError(
                f"train_frac and val_frac must be positive and sum below 1, leaving the "
                f"test split, got {self.train_frac} and {self.val_frac}"
            )
        if self.gamma < 0:
            raise ConfigError("gamma must be >= 0")
        if not 0.0 < self.weight_clamp_lo <= self.weight_clamp_hi < 1.0:
            raise ConfigError(
                f"weight clamps must satisfy 0 < lo <= hi < 1, got "
                f"({self.weight_clamp_lo}, {self.weight_clamp_hi})"
            )
        if self.lr_head <= 0 or self.lr_adapter <= 0:
            raise ConfigError("learning rates must be positive")
        if not 0.0 <= self.beta1 < 1.0 or not 0.0 <= self.beta2 < 1.0:
            raise ConfigError("betas must be in [0, 1)")
        if not 0.0 < self.sampler_threshold <= 1.0:
            raise ConfigError("sampler_threshold must be in (0, 1]")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        if self.min_epochs < 1 or self.patience < 0:
            raise ConfigError("min_epochs >= 1 and patience >= 0 required")
        if self.max_epochs < self.min_epochs:
            raise ConfigError(
                f"max_epochs ({self.max_epochs}) < min_epochs ({self.min_epochs})"
            )
        if self.num_samples < 1:
            raise ConfigError("num_samples must be >= 1")
        return self

    def to_dict(self) -> dict:
        out = dataclasses.asdict(self)
        for k, v in out.items():
            if isinstance(v, tuple):
                out[k] = list(v)
        return out

    @classmethod
    def from_dict(cls, d: dict) -> "RunConfig":
        """The config of a JSON object, such as `to_dict` wrote: each value
        must have the type of its field's default (`_json_value`)."""
        unknown = set(d) - set(_FIELDS)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        return cls(**{k: _json_value(k, v) for k, v in d.items()}).validate()


_FIELDS = {f.name: f for f in dataclasses.fields(RunConfig)}


def _json_value(key: str, v, default=None):
    """JSON value v as the type of key's default, or of `default`, one of its
    elements: a float also takes an int, and a bool is only a bool."""
    kind = type(_FIELDS[key].default if default is None else default)
    if kind is tuple and type(v) is list:
        return tuple(_json_value(key, x, _FIELDS[key].default[0]) for x in v)
    if type(v) is kind or (kind is float and type(v) is int):
        return kind(v)
    raise ConfigError(f"config key {key!r} takes {'a list' if kind is tuple else kind.__name__}, "
                      f"got {v!r}")


def _parse_value(key: str, raw: str):
    default = getattr(RunConfig(), key)
    raw = raw.strip()
    try:
        if isinstance(default, bool):
            if raw.lower() in ("true", "1", "yes"):
                return True
            if raw.lower() in ("false", "0", "no"):
                return False
            raise ValueError(raw)
        if isinstance(default, int):
            return int(raw)
        if isinstance(default, float):
            return float(raw)
        if isinstance(default, tuple):
            parts = [p.strip() for p in raw.split(",") if p.strip()]
            elem = type(default[0])
            return tuple(elem(p) for p in parts)
        return raw
    except ValueError:
        raise ConfigError(f"cannot parse {key} = {raw!r} as {type(default).__name__}")


def _assign(cfg: RunConfig, item: str, where: str) -> None:
    """Parse one `key = value` item onto cfg; `where` starts any error."""
    if "=" not in item:
        raise ConfigError(f"{where}: expected 'key = value', got {item!r}")
    key, raw = item.split("=", 1)
    key = key.strip()
    if key not in _FIELDS:
        raise ConfigError(f"{where}: unknown key {key!r}")
    setattr(cfg, key, _parse_value(key, raw))


def parse_config_text(text: str) -> RunConfig:
    cfg = RunConfig()
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if stripped:
            _assign(cfg, stripped, f"line {lineno}")
    return cfg


def load_config(path: str | Path) -> RunConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    return parse_config_text(path.read_text()).validate()


def apply_overrides(cfg: RunConfig, overrides: list[str]) -> RunConfig:
    """A copy of cfg with repeatable `key=value` strings applied on top."""
    cfg = dataclasses.replace(cfg)
    for ov in overrides:
        _assign(cfg, ov, "--set")
    return cfg.validate()
