"""Run configuration: one flat `key = value` file, strictly validated.

Every knob of a run lives in `RunConfig` with a documented default, and
every key changes the run; a config file only lists the keys it overrides.
One reader, `_value`, turns config text (a file line or `--set key=value`,
so a file plus overrides is exactly an edited file) and checkpoint JSON
(`from_dict`, read back by `training.checkpoint_config`) into the type of
the key's default. `validate` then checks each numeric key against its
interval in one table, `_RANGES`, which NaN fails, and the few rules that
span keys. Unknown keys, malformed, NaN, infinite and out-of-range values
are all rejected at load time with the offending key named.
"""

from __future__ import annotations

import dataclasses
import math
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
        """Self, when every key is in its `_RANGES` interval and the rules
        that span keys or shapes hold; ConfigError naming the key if not."""
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {self.mode!r}")
        if not self.stub_channels:
            raise ConfigError("stub_channels needs one or more values")
        for key in ("volume_shape", "spacing"):
            if len(getattr(self, key)) != 3:
                raise ConfigError(f"{key} needs 3 values, got {getattr(self, key)}")
        for keys, test, wording in _RANGES:
            for key in keys:
                v = getattr(self, key)
                if not all(test(x) for x in (v if isinstance(v, (tuple, list)) else (v,))):
                    raise ConfigError(f"{key} must be {wording}, got {v!r}")
        if self.rank > min(self.feature_dim, self.stub_channels[-1]):
            raise ConfigError(
                f"rank must be at most min(feature_dim={self.feature_dim}, "
                f"stub_channels[-1]={self.stub_channels[-1]}), got {self.rank}"
            )
        if self.train_frac + self.val_frac >= 1.0:
            raise ConfigError(
                f"train_frac and val_frac must sum below 1, leaving the test split, "
                f"got {self.train_frac} and {self.val_frac}"
            )
        if self.weight_clamp_lo > self.weight_clamp_hi:
            raise ConfigError(
                f"weight_clamp_lo ({self.weight_clamp_lo}) > weight_clamp_hi "
                f"({self.weight_clamp_hi})"
            )
        if self.max_epochs < self.min_epochs:
            raise ConfigError(
                f"max_epochs ({self.max_epochs}) < min_epochs ({self.min_epochs})"
            )
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
        must have the type of its field's default (`_value`)."""
        unknown = set(d) - set(_FIELDS)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        return cls(**{k: _value(k, v) for k, v in d.items()}).validate()


_FIELDS = {f.name: f for f in dataclasses.fields(RunConfig)}

# (keys, test, wording): each value of the keys, and each element of a tuple
# key, must pass the test; every test is a chained comparison, which NaN fails
_RANGES = (
    (("num_experts", "rank", "router_hidden", "feature_dim", "num_classes", "stub_channels",
      "num_samples", "batch_size", "min_epochs", "max_epochs"), lambda x: 1 <= x, ">= 1"),
    (("patience",), lambda x: 0 <= x, ">= 0"),
    (("volume_shape",), lambda x: 8 <= x, ">= 8"),
    (("lora_alpha", "spacing", "lr_head", "lr_adapter", "adam_eps", "clip_norm"),
     lambda x: 0 < x < math.inf, "positive and finite"),
    (("gamma", "weight_decay"), lambda x: 0 <= x < math.inf, "finite and >= 0"),
    (("train_frac", "val_frac", "weight_clamp_lo", "weight_clamp_hi"),
     lambda x: 0 < x < 1, "in (0, 1)"),
    (("beta1", "beta2"), lambda x: 0 <= x < 1, "in [0, 1)"),
    (("sampler_threshold",), lambda x: 0 < x <= 1, "in (0, 1]"),
)

_BOOL_WORDS = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}


def _value(key: str, v, text: bool = False, kind: type | None = None):
    """v as the type of key's default, or `kind`, one of its elements: a
    float also takes an int, and a bool is only a bool. With `text`, v is a
    config string, parsed first: bool words, int, float, or a comma list."""
    default = _FIELDS[key].default
    kind = kind or type(default)
    if kind is tuple:
        if text:
            v = [p for p in v.split(",") if p.strip()]
        if type(v) in (list, tuple):
            return tuple(_value(key, x, text, type(default[0])) for x in v)
    elif text:
        v = v.strip()
        try:
            v = _BOOL_WORDS.get(v.lower(), v) if kind is bool else kind(v)
        except ValueError:
            pass  # still a str, which the type rule below rejects
    if type(v) is kind or (kind is float and type(v) is int):
        return kind(v)
    raise ConfigError(f"config key {key!r} takes {'a list' if kind is tuple else kind.__name__}, "
                      f"got {v!r}")


def _assign(cfg: RunConfig, item: str, where: str) -> None:
    """Parse one `key = value` item onto cfg; `where` starts any error."""
    if "=" not in item:
        raise ConfigError(f"{where}: expected 'key = value', got {item!r}")
    key, raw = item.split("=", 1)
    key = key.strip()
    if key not in _FIELDS:
        raise ConfigError(f"{where}: unknown key {key!r}")
    try:
        setattr(cfg, key, _value(key, raw, text=True))
    except ConfigError as e:
        raise ConfigError(f"{where}: {e}") from None


def parse_config_text(text: str) -> RunConfig:
    cfg = RunConfig()
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if stripped:
            _assign(cfg, stripped, f"line {lineno}")
    return cfg


def load_config(path: str | Path) -> RunConfig:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as e:
        raise ConfigError(f"cannot read config file {path}: "
                          f"{getattr(e, 'strerror', None) or e}") from None
    return parse_config_text(text).validate()


def apply_overrides(cfg: RunConfig, overrides: list[str]) -> RunConfig:
    """A copy of cfg with repeatable `key=value` strings applied on top."""
    cfg = dataclasses.replace(cfg)
    for ov in overrides:
        _assign(cfg, ov, "--set")
    return cfg.validate()
