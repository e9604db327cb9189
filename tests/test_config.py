import dataclasses
import math
import re

import pytest

from molre.config import (
    _RANGES,
    ConfigError,
    RunConfig,
    apply_overrides,
    load_config,
    parse_config_text,
)
from molre.preprocess import AugmentConfig


def test_defaults_match_protocol_constants():
    cfg = RunConfig()
    assert cfg.gamma == 2.0
    assert cfg.rank == 8
    assert cfg.lora_alpha == 16.0
    assert cfg.num_experts == 6
    assert cfg.router_hidden == 256
    assert cfg.lr_head == 1e-3
    assert cfg.lr_adapter == 1e-4
    assert cfg.min_epochs == 20
    assert cfg.patience == 5
    assert AugmentConfig().mirror_p == 0.5  # what augment = true trains with
    cfg.validate()


def test_parse_basic_keys_and_comments():
    cfg = parse_config_text(
        """
        # a comment line
        mode = lora
        batch_size = 16   # trailing comment
        lr_head = 5e-4
        augment = true
        """
    )
    assert cfg.mode == "lora"
    assert cfg.batch_size == 16
    assert cfg.lr_head == 5e-4
    assert cfg.augment is True


def test_parse_tuple_fields():
    cfg = parse_config_text("volume_shape = 16, 32, 32\nspacing = 0.5, 0.5, 2.0\n")
    assert cfg.volume_shape == (16, 32, 32)
    assert cfg.spacing == (0.5, 0.5, 2.0)


def test_unknown_key_rejected_with_line():
    with pytest.raises(ConfigError, match="line 2"):
        parse_config_text("mode = lora\nbogus = 3\n")


def test_malformed_line_rejected():
    with pytest.raises(ConfigError):
        parse_config_text("just some words\n")


def test_bad_value_types_rejected():
    with pytest.raises(ConfigError):
        parse_config_text("batch_size = many\n")
    with pytest.raises(ConfigError):
        parse_config_text("augment = definitely\n")


def test_a_value_that_does_not_parse_names_its_line_or_set():
    with pytest.raises(ConfigError) as e:
        parse_config_text("mode = lora\nbatch_size = many\n")
    assert str(e.value) == "line 2: config key 'batch_size' takes int, got 'many'"
    with pytest.raises(ConfigError) as e:
        apply_overrides(RunConfig(), ["mode=lora", "volume_shape=8,x,8"])
    assert str(e.value) == "--set: config key 'volume_shape' takes int, got 'x'"


def test_validate_rules():
    with pytest.raises(ConfigError):
        RunConfig(mode="resnet").validate()
    with pytest.raises(ConfigError):
        RunConfig(rank=0).validate()
    with pytest.raises(ConfigError):
        RunConfig(rank=64, feature_dim=32).validate()
    with pytest.raises(ConfigError):
        RunConfig(train_frac=0.9, val_frac=0.2).validate()
    with pytest.raises(ConfigError, match="test split"):
        RunConfig(train_frac=0.75, val_frac=0.25).validate()  # nothing left to test on
    with pytest.raises(ConfigError):
        RunConfig(max_epochs=10, min_epochs=20).validate()
    with pytest.raises(ConfigError):
        RunConfig(weight_clamp_lo=0.9, weight_clamp_hi=0.1).validate()


def test_dict_roundtrip():
    cfg = RunConfig(mode="molre3d", num_experts=3)
    back = RunConfig.from_dict(cfg.to_dict())
    assert back == cfg


def test_from_dict_rejects_unknown():
    with pytest.raises(ConfigError):
        RunConfig.from_dict({"mode": "lora", "mystery": 1})


@pytest.mark.parametrize("key, value, says", [
    ("rank", "8", "'rank' takes int, got '8'"),
    ("stub_channels", [16, "32", 64], "'stub_channels' takes int, got '32'"),
    ("stub_channels", 16, "'stub_channels' takes a list, got 16"),
    ("lr_head", None, "'lr_head' takes float, got None"),
    ("augment", "yes", "'augment' takes bool, got 'yes'"),
    ("num_experts", 2.5, "'num_experts' takes int, got 2.5"),
    ("batch_size", True, "'batch_size' takes int, got True"),
    ("spacing", [1.0, False, 4.0], "'spacing' takes float, got False"),
    ("mode", 3, "'mode' takes str, got 3"),
])
def test_from_dict_rejects_a_value_of_another_type(key, value, says):
    with pytest.raises(ConfigError, match=re.escape(says)):
        RunConfig.from_dict({key: value})


def test_from_dict_takes_an_int_for_a_float():
    cfg = RunConfig.from_dict({"lora_alpha": 16, "spacing": [1, 1, 4]})
    assert cfg == RunConfig() and type(cfg.lora_alpha) is float
    assert all(type(s) is float for s in cfg.spacing)


def test_overrides_apply_and_validate():
    cfg = RunConfig()
    out = apply_overrides(cfg, ["mode=lora", "batch_size=2"])
    assert out.mode == "lora" and out.batch_size == 2
    with pytest.raises(ConfigError):
        apply_overrides(RunConfig(), ["batch_size"])
    with pytest.raises(ConfigError):
        apply_overrides(RunConfig(), ["rank=0"])


def test_load_config_file(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text("mode = baseline-frozen\nseed = 11\n")
    cfg = load_config(p)
    assert cfg.mode == "baseline-frozen" and cfg.seed == 11
    with pytest.raises(ConfigError):
        load_config(tmp_path / "missing.cfg")


@pytest.mark.parametrize("key, value", [
    ("gamma", math.nan), ("lr_head", math.nan), ("clip_norm", math.nan), ("train_frac", math.nan),
    ("weight_decay", -1.0), ("clip_norm", -1.0), ("adam_eps", 0.0), ("lora_alpha", math.nan),
    ("lr_head", math.inf),
])
def test_a_value_out_of_its_range_is_rejected_by_name(key, value):
    with pytest.raises(ConfigError, match=rf"^{key} must be"):
        apply_overrides(RunConfig(), [f"{key}={value!r}"])
    with pytest.raises(ConfigError, match=rf"^{key} must be"):
        RunConfig.from_dict({key: value})


UNBOUNDED = {"seed", "stub_seed", "data_seed"}


def test_every_numeric_key_has_a_range_or_is_named_unbounded():
    ranged = {key for keys, _, _ in _RANGES for key in keys}
    numeric = {f.name for f in dataclasses.fields(RunConfig)
               if type(f.default) in (int, float, tuple)}
    assert numeric - UNBOUNDED == ranged and not ranged & UNBOUNDED
