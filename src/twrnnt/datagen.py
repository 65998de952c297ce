"""Synthetic dataset generation and the JSON-lines dataset format.

Each utterance is a random token sequence; every token expands to a run of
frames carrying that token's prototype vector plus Gaussian noise.  Files
are JSON-lines with a leading header object ``{"_meta": {...}}`` holding
the generation spec, the prototype table and a provenance block; data lines
follow, one utterance per line:

    {"id": ..., "features": [[...], ...], "tokens": [...],
     "confidences": [...], "lambda": [...]}        (last two optional)

Identical specs produce byte-identical files.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .errors import (
    DataError, check_choice, check_count, check_fields, check_list, check_real, check_string, checked,
)
from .seeds import stream

__all__ = [
    "SyntheticSpec",
    "Utterance",
    "SPLITS",
    "generate_synthetic_dataset",
    "write_dataset",
    "read_dataset",
    "dataset_vocab_size",
]

SPLITS = ("train", "valid", "test", "pretrain")
DATASET_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class SyntheticSpec:
    n_train: int = checked(check_count, 500)
    n_valid: int = checked(check_count, 100)
    n_test: int = checked(check_count, 100)
    n_pretrain: int = checked(check_count, 300)
    dim_features: int = checked(check_count, 8, low=1)
    vocab_size: int = checked(check_count, 16, low=1)
    min_tokens: int = checked(check_count, 3, low=1)
    max_tokens: int = checked(check_count, 8, low=1)
    min_frames_per_token: int = checked(check_count, 1, low=1)
    max_frames_per_token: int = checked(check_count, 3, low=1)
    noise_level: float = checked(check_real, 0.3, low=0.0)
    seed: int = checked(check_count, 0)
    # Adjacent repeated tokens are inherently ambiguous for a transducer
    # whose predictor sees only the previous token (blank vs. re-emit look
    # identical), so clean sequences avoid them by default; corruption can
    # still introduce them as deliberate errors.
    allow_repeats: bool = checked(check_choice, False, choices=(False, True))

    def __post_init__(self):
        check_fields(self)
        for lo, hi in (("min_tokens", "max_tokens"), ("min_frames_per_token", "max_frames_per_token")):
            if getattr(self, hi) < getattr(self, lo):
                raise DataError(f"{hi} ({getattr(self, hi)}) is below {lo} ({getattr(self, lo)})")


def _floats(values) -> list:
    """``values`` as (nested) lists of Python floats, which JSON writes as
    ``float`` does."""
    return np.asarray(values, dtype=np.float64).tolist()


@dataclass
class Utterance:
    id: str
    features: np.ndarray
    tokens: np.ndarray
    confidences: Optional[np.ndarray] = None
    lam: Optional[np.ndarray] = None

    def to_json_obj(self) -> dict:
        obj = {
            "id": self.id,
            "features": _floats(self.features),
            "tokens": np.asarray(self.tokens, dtype=np.int64).tolist(),
        }
        if self.confidences is not None:
            obj["confidences"] = _floats(self.confidences)
        if self.lam is not None:
            obj["lambda"] = _floats(self.lam)
        return obj

    @classmethod
    def from_json_obj(cls, obj: dict) -> "Utterance":
        try:
            return cls(
                id=check_string(obj["id"], "id"),
                features=check_list(obj["features"], "features", nested=True),
                tokens=check_list(obj["tokens"], "tokens", integer=True),
                confidences=check_list(obj["confidences"], "confidences") if "confidences" in obj else None,
                lam=check_list(obj["lambda"], "lambda") if "lambda" in obj else None,
            )
        except (KeyError, TypeError) as exc:
            raise DataError(f"malformed utterance record: {exc}") from exc


def make_prototypes(spec: SyntheticSpec) -> np.ndarray:
    rng = stream(spec.seed, "prototypes")
    return rng.normal(size=(spec.vocab_size, spec.dim_features))


def _generate_split(spec: SyntheticSpec, prototypes, split: str, n: int):
    rng = stream(spec.seed, "datagen", split)
    utts = []
    for i in range(n):
        n_tok = int(rng.integers(spec.min_tokens, spec.max_tokens + 1))
        if spec.allow_repeats or spec.vocab_size == 1:
            tokens = rng.integers(0, spec.vocab_size, size=n_tok)
        else:
            tokens = np.empty(n_tok, dtype=np.int64)
            prev = -1
            for j in range(n_tok):
                draw = int(rng.integers(0, spec.vocab_size - (prev >= 0)))
                if prev >= 0 and draw >= prev:
                    draw += 1
                tokens[j] = draw
                prev = draw
        frames = []
        for tok in tokens:
            reps = int(
                rng.integers(spec.min_frames_per_token, spec.max_frames_per_token + 1)
            )
            # One draw of reps frames takes the stream's values in the order
            # that reps draws of one frame take them.
            frames.append(
                prototypes[tok]
                + spec.noise_level * rng.normal(size=(reps, spec.dim_features))
            )
        utts.append(
            Utterance(
                id=f"{split}-{i:06d}",
                features=np.concatenate(frames),
                tokens=tokens.astype(np.int64),
            )
        )
    return utts


def generate_synthetic_dataset(spec: SyntheticSpec, out_dir, provenance=None):
    """Write {train, valid, test, pretrain}.jsonl under out_dir; returns the
    path map.  Splits contain disjoint utterances by construction (distinct
    seeded streams and id prefixes)."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    prototypes = make_prototypes(spec)
    meta = {
        "schema_version": DATASET_SCHEMA_VERSION,
        "kind": "twrnnt-dataset",
        "spec": asdict(spec),
        "prototypes": _floats(prototypes),
        "provenance": provenance or {},
    }
    paths = {}
    for split in SPLITS:
        n = getattr(spec, f"n_{split}")
        utts = _generate_split(spec, prototypes, split, n)
        path = out / f"{split}.jsonl"
        write_dataset(path, utts, dict(meta, split=split))
        paths[split] = path
    return paths


def write_dataset(path, utterances, meta: dict) -> None:
    with open(path, "w") as fh:
        fh.write(json.dumps({"_meta": meta}) + "\n")
        for utt in utterances:
            fh.write(json.dumps(utt.to_json_obj()) + "\n")


def read_dataset(path):
    """Returns (meta, utterances).  The header line, the first line that
    is not blank, is mandatory."""
    utts = []
    meta = None
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise DataError(f"{path}:{lineno}: invalid JSON: {exc}") from exc
            if meta is None:
                if not isinstance(obj, dict) or not isinstance(obj.get("_meta"), dict):
                    raise DataError(
                        f"{path}: first line must be the dataset header object"
                    )
                meta = obj["_meta"]
                continue
            try:
                utts.append(Utterance.from_json_obj(obj))
            except DataError as exc:
                raise DataError(f"{path}:{lineno}: {exc}") from None
    if meta is None:
        raise DataError(f"{path}: empty dataset file")
    return meta, utts


def dataset_vocab_size(meta: dict) -> int:
    try:
        size = meta["spec"]["vocab_size"]
    except (KeyError, TypeError) as exc:
        raise DataError(f"dataset header lacks spec.vocab_size: {exc}") from exc
    return check_count(size, "dataset header spec.vocab_size", 1)
