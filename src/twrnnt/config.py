"""Flat key-value run configuration with a fixed schema.

Configs are flat JSON objects; every key has a declared type and default,
unknown keys are rejected, and every key can be overridden from the command
line (``--max-tokens 12``, ``--alpha-grid 2,6``).  Paths are validated
before any work starts.  A canonical hash of the effective config goes into
every output artifact's provenance block.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

from .errors import ConfigError

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

_LIST_TYPES = {"list_int": int, "list_float": float, "list_str": str}


def _coerce(key: str, tag: str, value):
    try:
        if value is None:
            return None
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
        if tag == "str":
            if not isinstance(value, str):
                raise ValueError(f"expected string, got {value!r}")
            return value
        elem = _LIST_TYPES[tag]
        if isinstance(value, str):
            parts = [p for p in value.split(",") if p.strip() != ""]
            return [elem(p.strip()) for p in parts]
        if isinstance(value, (list, tuple)):
            return [elem(v) for v in value]
        raise ValueError(f"expected list, got {value!r}")
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


def _validate(cfg: dict) -> None:
    if cfg["mode"] not in ("standard", "utterance_weights", "token_weights"):
        raise ConfigError(f"mode must be a known training mode, got {cfg['mode']!r}")
    for key in ("levels", "alpha_grid", "seeds", "modes"):
        if not cfg[key]:
            raise ConfigError(f"config key {key!r} must be nonempty")
    for m in cfg["modes"]:
        if m not in ("standard", "utterance_weights", "token_weights"):
            raise ConfigError(f"unknown mode in modes: {m!r}")
    for level in cfg["levels"]:
        if not 0.0 <= level <= 1.0:
            raise ConfigError(f"config key 'levels': corruption level {level} outside [0, 1]")
    if not 0.0 <= cfg["error_rate"] <= 1.0:
        raise ConfigError(f"error_rate {cfg['error_rate']} outside [0, 1]")
    for key in (
        "dim_features", "dim_hidden", "vocab_size", "epochs", "base_epochs", "batch_size",
        "max_symbols_per_frame", "rounds", "min_tokens", "min_frames_per_token",
    ):
        if cfg[key] < 1:
            raise ConfigError(f"config key {key!r} must be >= 1, got {cfg[key]}")
    for key in ("seed", "n_train", "n_valid", "n_test", "n_pretrain", "ratio_labeled", "ratio_pseudo"):
        if cfg[key] < 0:
            raise ConfigError(f"config key {key!r} must be >= 0, got {cfg[key]}")
    for seed in cfg["seeds"]:
        if seed < 0:
            raise ConfigError(f"seeds must be >= 0, got {seed}")
    if cfg["ratio_labeled"] + cfg["ratio_pseudo"] == 0:
        raise ConfigError("ratio_labeled and ratio_pseudo must not both be 0")
    for lo, hi in (("min_tokens", "max_tokens"), ("min_frames_per_token", "max_frames_per_token")):
        if cfg[hi] < cfg[lo]:
            raise ConfigError(f"config key {hi!r} ({cfg[hi]}) is below {lo!r} ({cfg[lo]})")
    # Negated comparisons, so that NaN fails them too.
    for key in ("alpha", "final_blank_weight", "noise_level"):
        if not 0.0 <= cfg[key] < math.inf:
            raise ConfigError(f"config key {key!r} must be finite and >= 0, got {cfg[key]}")
    for alpha in cfg["alpha_grid"]:
        if not 0.0 <= alpha < math.inf:
            raise ConfigError(f"alpha_grid entries must be finite and >= 0, got {alpha}")
    if not 0.0 < cfg["lr"] < math.inf:
        raise ConfigError(f"config key 'lr' must be positive and finite, got {cfg['lr']}")
    if not math.isfinite(cfg["init_scale"]):
        raise ConfigError(f"config key 'init_scale' must be finite, got {cfg['init_scale']}")


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
