"""Flat key-value run configuration with a fixed schema.

Configs are flat JSON objects; every key has a declared type and default,
unknown keys are rejected, and every key can be overridden from the command
line (``--max-tokens 12``, ``--alpha-grid 2,6``).  A key that feeds a field
of ``TrainConfig``, ``SyntheticSpec``, ``CorruptionConfig`` or
``GenerationConfig`` follows the rule that the field states; of the
numeric keys, only ``levels`` (each entry an ``error_rate``) and ``seeds``
feed none.  Paths are validated before any work starts.  A canonical hash
of the effective config goes into every output artifact's provenance block.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import fields
from pathlib import Path

from .corruption import CorruptionConfig
from .datagen import SyntheticSpec
from .errors import ConfigError, DataError, check_count, check_each, rule_of
from .experiments import GenerationConfig
from .training import TrainConfig

CONFIG_SCHEMA_VERSION = 1

# key -> (type tag, default).  Type tags: int, float, bool, str,
# list_int, list_float, list_str.  None defaults mean "optional path".
SCHEMA = {
    "seed": ("int", 0),
    # model dims
    "dim_features": ("int", 8),
    "dim_hidden": ("int", 32),
    "vocab_size": ("int", 16),
    # synthetic data
    "n_train": ("int", 500),
    "n_valid": ("int", 100),
    "n_test": ("int", 100),
    "n_pretrain": ("int", 300),
    "min_tokens": ("int", 3),
    "max_tokens": ("int", 8),
    "min_frames_per_token": ("int", 1),
    "max_frames_per_token": ("int", 3),
    "noise_level": ("float", 0.3),
    "allow_repeats": ("bool", False),
    # optimizer / training
    "epochs": ("int", 10),
    "base_epochs": ("int", 25),
    "batch_size": ("int", 8),
    "lr": ("float", 1e-2),
    "init_scale": ("float", 0.5),
    "mode": ("str", "standard"),
    "alpha": ("float", 1.0),
    "final_blank_weight": ("float", 1.0),
    "max_symbols_per_frame": ("int", 4),
    # experiments
    "levels": ("list_float", [0.3]),
    "modes": ("list_str", ["standard", "utterance_weights", "token_weights"]),
    "alpha_grid": ("list_float", [1.0, 2.0, 4.0, 6.0, 8.0]),
    "rounds": ("int", 3),
    "ratio_labeled": ("int", 1),
    "ratio_pseudo": ("int", 9),
    "seeds": ("list_int", [0, 1, 2]),
    "error_rate": ("float", 0.3),
    "calibrate_corruption": ("bool", True),
    "include_traces": ("bool", False),
    # paths
    "data_dir": ("str", None),
}


def _scalar(tag: str, value):
    """``value`` under the rule of the scalar tag ``tag``; a ValueError or
    TypeError if it breaks it."""
    if tag == "int":
        if isinstance(value, bool) or (
            isinstance(value, float) and not float(value).is_integer()
        ):
            raise ValueError(f"expected integer, got {value!r}")
        return int(value)
    if tag == "float":
        if isinstance(value, bool):
            raise ValueError(f"expected number, got {value!r}")
        return float(value)
    if tag == "bool":
        if isinstance(value, bool):
            return value
        if isinstance(value, str):
            low = value.strip().lower()
            if low in ("true", "1", "yes"):
                return True
            if low in ("false", "0", "no"):
                return False
        raise ValueError(f"expected boolean, got {value!r}")
    if not isinstance(value, str):
        raise ValueError(f"expected string, got {value!r}")
    return value


def _coerce(key: str, tag: str, value):
    """``value`` under the rule of ``tag``; a list tag (``list_int``) holds
    entries of its scalar tag (``int``), each under that tag's rule, given
    as a list or as a comma-separated string."""
    try:
        if value is None:
            return None
        if not tag.startswith("list_"):
            return _scalar(tag, value)
        if isinstance(value, str):
            value = [p.strip() for p in value.split(",") if p.strip() != ""]
        if not isinstance(value, (list, tuple)):
            raise ValueError(f"expected list, got {value!r}")
        return [_scalar(tag[len("list_"):], v) for v in value]
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"config key {key!r}: {exc}") from exc


def default_config() -> dict:
    return {k: (list(d) if isinstance(d, list) else d) for k, (_, d) in SCHEMA.items()}


def load_config(path=None, overrides=None) -> dict:
    """Defaults <- config file <- CLI overrides, with unknown keys rejected."""
    cfg = default_config()
    if path is not None:
        p = Path(path)
        if not p.exists():
            raise ConfigError(f"config file not found: {p}")
        try:
            raw = json.loads(p.read_text())
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file {p} is not valid JSON: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigError(f"config file {p} must hold a flat JSON object")
        unknown = sorted(set(raw) - set(SCHEMA))
        if unknown:
            raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
        for k, v in raw.items():
            cfg[k] = _coerce(k, SCHEMA[k][0], v)
    for k, v in (overrides or {}).items():
        if k not in SCHEMA:
            raise ConfigError(f"unknown config key: {k}")
        cfg[k] = _coerce(k, SCHEMA[k][0], v)
    _validate(cfg)
    return cfg


# (key, class, field): config keys that feed a dataclass field of another
# name, or of a class the config does not build whole.
_FEEDS = (
    ("base_epochs", TrainConfig, "epochs"),
    ("seed", CorruptionConfig, "rng_seed"),
    ("error_rate", CorruptionConfig, "error_rate"),
    ("rounds", GenerationConfig, "rounds"),
    ("alpha_grid", GenerationConfig, "alpha_grid"),
    ("modes", GenerationConfig, "modes"),
)


def _validate(cfg: dict) -> None:
    """Hold each key to the rule of the dataclass field it feeds, naming the
    key: build the classes whose fields share the keys' names, and apply
    ``_FEEDS``.  ``levels`` and ``seeds`` feed no field."""
    pair = ("ratio_labeled", "ratio_pseudo")
    try:
        for cls in (TrainConfig, SyntheticSpec):
            cls(**{f.name: cfg[f.name] for f in fields(cls)})
        for key, cls, name in _FEEDS:
            rule_of(cls, name)(cfg[key], key)
        ratio = rule_of(GenerationConfig, "labeled_to_pseudo_ratio")
        ratio(tuple(cfg[k] for k in pair), " and ".join(pair))
        check_each(cfg["levels"], "levels", rule_of(CorruptionConfig, "error_rate"))
        check_each(cfg["seeds"], "seeds", check_count)
    except DataError as exc:
        raise ConfigError(f"config key {exc}") from None


def config_hash(cfg: dict) -> str:
    return hashlib.sha256(
        json.dumps(cfg, sort_keys=True).encode("utf-8")
    ).hexdigest()[:16]


def provenance_block(cfg: dict, command: str, version: str) -> dict:
    return {
        "schema_version": CONFIG_SCHEMA_VERSION,
        "command": command,
        "config_hash": config_hash(cfg),
        "root_seed": cfg["seed"],
        "code_version": version,
    }
