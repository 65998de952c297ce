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
import math
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .errors import DataError
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
    n_train: int = 500
    n_valid: int = 100
    n_test: int = 100
    n_pretrain: int = 300
    dim_features: int = 8
    vocab_size: int = 16
    min_tokens: int = 3
    max_tokens: int = 8
    min_frames_per_token: int = 1
    max_frames_per_token: int = 3
    noise_level: float = 0.3
    seed: int = 0
    # Adjacent repeated tokens are inherently ambiguous for a transducer
    # whose predictor sees only the previous token (blank vs. re-emit look
    # identical), so clean sequences avoid them by default; corruption can
    # still introduce them as deliberate errors.
    allow_repeats: bool = False

    def __post_init__(self):
        if self.vocab_size < 1 or self.dim_features < 1:
            raise DataError("vocab_size and dim_features must be positive")
        if not 1 <= self.min_tokens <= self.max_tokens:
            raise DataError(
                f"token length range [{self.min_tokens}, {self.max_tokens}] invalid"
            )
        if not 1 <= self.min_frames_per_token <= self.max_frames_per_token:
            raise DataError(
                f"frames-per-token range [{self.min_frames_per_token}, "
                f"{self.max_frames_per_token}] invalid"
            )
        if not 0 <= self.noise_level < math.inf:  # NaN fails too
            raise DataError(f"noise_level must be finite and >= 0, got {self.noise_level}")
        for name in SPLITS:
            if getattr(self, f"n_{name}") < 0:
                raise DataError(f"split size n_{name} must be >= 0")


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
            "features": [[float(x) for x in row] for row in self.features],
            "tokens": [int(t) for t in self.tokens],
        }
        if self.confidences is not None:
            obj["confidences"] = [float(c) for c in self.confidences]
        if self.lam is not None:
            obj["lambda"] = [float(w) for w in self.lam]
        return obj

    @classmethod
    def from_json_obj(cls, obj: dict) -> "Utterance":
        try:
            tokens = obj["tokens"]
            # JSON numbers may be floats or exceed int64; neither is a token.
            if not isinstance(tokens, list) or not all(type(t) is int for t in tokens):
                raise ValueError(f"tokens must be a list of integers, got {tokens!r}")
            return cls(
                id=str(obj["id"]),
                features=np.asarray(obj["features"], dtype=np.float64),
                tokens=np.asarray(tokens, dtype=np.int64),
                confidences=(
                    np.asarray(obj["confidences"], dtype=np.float64)
                    if "confidences" in obj
                    else None
                ),
                lam=(
                    np.asarray(obj["lambda"], dtype=np.float64)
                    if "lambda" in obj
                    else None
                ),
            )
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
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
            for _ in range(reps):
                frames.append(
                    prototypes[tok]
                    + spec.noise_level * rng.normal(size=spec.dim_features)
                )
        utts.append(
            Utterance(
                id=f"{split}-{i:06d}",
                features=np.asarray(frames),
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
        "prototypes": [[float(x) for x in row] for row in prototypes],
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
    # JSON booleans are ints to Python; neither they nor floats are sizes.
    if type(size) is not int or size < 1:
        raise DataError(f"dataset header spec.vocab_size must be an integer >= 1, got {size!r}")
    return size
