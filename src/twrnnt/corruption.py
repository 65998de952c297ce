"""Transcript corruption simulating human annotation errors.

Each token is independently corrupted with probability ``error_rate`` by one
of three error types chosen uniformly: repeating the token, omitting it, or
substituting a confusable token.  "Confusable" for synthetic integer tokens
means nearest prototype vector by Euclidean distance (the stand-in for
similar-sounding words); without prototypes the substitute is uniform over
the other tokens.

Corpus-level corruption is calibrated: adjacent errors partially merge under
Levenshtein alignment (a repeat next to an omit scores as one substitution),
so the raw per-token rate understates the resulting reference WER by several
absolute points at high levels.  ``corrupt_corpus`` therefore runs a small
deterministic pilot loop that tunes the internal per-token probability until
the measured reference WER matches ``error_rate``, which is what the error
level means downstream.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DataError
from .lattice import Vocabulary, as_labels
from .metrics import edit_distances
from .seeds import stream

__all__ = ["ERROR_TYPES", "CorruptionConfig", "corrupt_transcript", "corrupt_corpus"]

ERROR_TYPES = ("repeat", "omit", "substitute")


@dataclass(frozen=True)
class CorruptionConfig:
    error_rate: float
    rng_seed: int = 0
    error_types: tuple = ERROR_TYPES

    def __post_init__(self):
        if not 0.0 <= self.error_rate <= 1.0:
            raise DataError(f"error_rate must be in [0, 1], got {self.error_rate}")
        bad = [t for t in self.error_types if t not in ERROR_TYPES]
        if bad or not self.error_types:
            raise DataError(
                f"error_types must be a nonempty subset of {ERROR_TYPES}, "
                f"got {self.error_types}"
            )


def _nearest_tokens(prototypes: np.ndarray) -> np.ndarray:
    """The (V, V) matrix of Euclidean distances between token prototypes,
    with +inf on the diagonal so that no token is its own nearest."""
    diff = prototypes[:, None, :] - prototypes[None, :, :]
    dist = np.sqrt(np.sum(diff * diff, axis=-1))
    np.fill_diagonal(dist, np.inf)
    return dist


def _substitutes(prototypes, vocab: Vocabulary) -> Optional[list]:
    """For each token of ``vocab``, the array of its nearest other tokens
    by the distances of ``_nearest_tokens`` (several when they tie within
    1e-12), from one finite prototype row per token; None without
    prototypes."""
    if prototypes is None:
        return None
    try:
        table = np.asarray(prototypes, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise DataError(f"prototypes must be a table of numbers: {exc}") from None
    if table.ndim != 2 or table.shape[0] != vocab.size or not np.isfinite(table).all():
        raise DataError(
            f"prototypes must be a finite table with one row per token ({vocab.size}), "
            f"got shape {table.shape}"
        )
    dist = _nearest_tokens(table)
    best = dist.min(axis=1)
    # A one-token vocabulary has only its +inf diagonal, and inf - inf is
    # NaN: no candidates, and ``_substitute`` needs none.
    with np.errstate(invalid="ignore"):
        return [np.flatnonzero(np.abs(row - b) < 1e-12) for row, b in zip(dist, best)]


def _substitute(token: int, vocab: Vocabulary, nearest, rng) -> int:
    """A substitute for ``token``: uniform over the other tokens without
    the ``_substitutes`` table ``nearest``, else one of its nearest (ties
    drawn by the rng)."""
    if vocab.size == 1:
        return token  # nothing distinct to substitute
    if nearest is None:
        choice = int(rng.integers(0, vocab.size - 1))
        return choice + (choice >= token)
    return int(rng.choice(nearest[token]))


def corrupt_transcript(
    y,
    cfg: CorruptionConfig,
    vocab: Vocabulary,
    prototypes: Optional[np.ndarray] = None,
    rng: Optional[np.random.Generator] = None,
    rate: Optional[float] = None,
):
    """Corrupt one label sequence with the raw per-token mechanism; an empty
    result is legal (all tokens omitted), and an empty sequence comes back
    unchanged.

    Pass an explicit ``rng`` when corrupting a corpus so utterances draw
    from one stream; otherwise a fresh generator is seeded from the config.
    ``rate`` overrides the per-token probability (used by the corpus-level
    calibration); it defaults to ``cfg.error_rate``.
    """
    if rng is None:
        rng = np.random.default_rng(cfg.rng_seed)
    q = cfg.error_rate if rate is None else rate
    return _corrupt(as_labels(y, vocab), cfg, vocab, _substitutes(prototypes, vocab), rng, q)


def _corrupt(labels, cfg, vocab, nearest, rng, q):
    """``corrupt_transcript`` of checked labels, given the ``_substitutes``
    table ``nearest`` (or None) and the per-token probability ``q``.  An
    empty transcript comes back unchanged and draws nothing from ``rng``."""
    out = []
    for token in labels:
        token = int(token)
        if rng.random() >= q:
            out.append(token)
            continue
        kind = cfg.error_types[int(rng.integers(0, len(cfg.error_types)))]
        if kind == "repeat":
            out.extend((token, token))
        elif kind == "omit":
            pass
        else:
            out.append(_substitute(token, vocab, nearest, rng))
    return np.asarray(out, dtype=np.int64)


def _corrupt_all(transcripts, cfg, vocab, nearest, rng, rate):
    return [_corrupt(t, cfg, vocab, nearest, rng, rate) for t in transcripts]


def _measured_wer(corrupted, references) -> float:
    dist = int(edit_distances(corrupted, references).sum())
    total = sum(len(r) for r in references)
    return dist / total


def _calibrated_rate(transcripts, cfg, vocab, nearest) -> float:
    """Tune the per-token probability so the corpus reference WER lands on
    cfg.error_rate.  Pilot corruptions use seeds derived from the config so
    the result is deterministic."""
    target = cfg.error_rate
    if target <= 0.0:
        return 0.0
    q = target
    for round_ in range(6):
        measures = []
        for pilot in range(2):
            rng = stream(cfg.rng_seed, "corruption-pilot", round_, pilot)
            measures.append(
                _measured_wer(
                    _corrupt_all(transcripts, cfg, vocab, nearest, rng, q),
                    transcripts,
                )
            )
        measured = float(np.mean(measures))
        if abs(measured - target) < 0.002 or measured == 0.0:
            break
        q = min(1.0, q * target / measured)
        if q == 1.0 and measured < target:
            break  # saturated: cannot corrupt harder than every token
    return q


def corrupt_corpus(utterance_tokens, cfg, vocab, prototypes=None, calibrate=True):
    """Corrupt a list of transcripts from one seeded stream, in order.

    With ``calibrate`` (default) the internal per-token probability is tuned
    so the measured reference WER of the corpus matches ``cfg.error_rate``;
    otherwise the raw rate applies.  Each token's nearest substitutes are
    found once for the whole call.
    """
    transcripts = [as_labels(t, vocab) for t in utterance_tokens]
    if not any(t.size for t in transcripts):
        raise DataError("cannot corrupt a corpus with no tokens")
    nearest = _substitutes(prototypes, vocab)
    rate = _calibrated_rate(transcripts, cfg, vocab, nearest) if calibrate else cfg.error_rate
    rng = np.random.default_rng(cfg.rng_seed)
    return _corrupt_all(transcripts, cfg, vocab, nearest, rng, rate)
