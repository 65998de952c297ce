"""Batched training loops over the toy transducer.

Three objectives share one loss: the token-weighted transducer loss, whose
weights are all 1 for plain sequence training, one confidence-derived scalar
per utterance for utterance weighting, and one per token for token
weighting.  Batch losses are summed and divided by the batch's token count
so the weight exponent does not rescale the effective learning rate.

Confidence scores ride on utterances (``Utterance.confidences``); utterances
without scores count as fully confident (c = 1), which is how ground-truth
labeled data mixes into weighted objectives.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .conditionals import padded_profiles
from .datagen import Utterance
from .errors import DataError, NumericalError
from .metrics import wer
from .model import (
    AdamConfig,
    BatchLayout,
    PackedUtterances,
    TransducerModel,
    adam_update,
    backward_columns,
    forward_columns,
    greedy_decode,
)
from .weighting import _confidence_array, padded_loss_and_grad

__all__ = [
    "MODES",
    "TrainConfig",
    "TrainResult",
    "train_model",
    "evaluate_wer",
    "score_confidences",
    "batch_iterator",
    "mixed_batch_iterator",
]

MODES = ("standard", "utterance_weights", "token_weights")

# Utterances per emission sweep when scoring a pool.  Twice the default
# training batch: larger chunks buy little speed, and at 32 the sweep over a
# pool of long lattices needs as much memory as a training step's model
# backward, the process's peak.
_SCORE_CHUNK = 16


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 10
    batch_size: int = 8
    lr: float = 1e-2
    dim_hidden: int = 32
    mode: str = "standard"
    alpha: float = 1.0
    final_blank_weight: float = 1.0
    max_symbols_per_frame: int = 4
    init_scale: float = 0.5

    def __post_init__(self):
        if self.mode not in MODES:
            raise DataError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.epochs < 1 or self.batch_size < 1:
            raise DataError("epochs and batch_size must be >= 1")
        if self.alpha < 0:
            raise DataError(f"alpha must be >= 0, got {self.alpha}")


@dataclass
class TrainResult:
    model: TransducerModel
    batch_losses: list
    epoch_losses: list


def _confidences_of(utt: Utterance) -> np.ndarray:
    """The utterance's checked confidences (1 per token when it has none)."""
    if utt.confidences is None:
        return np.ones(utt.tokens.size)
    if utt.confidences.size != utt.tokens.size:
        raise DataError(
            f"utterance {utt.id}: {utt.confidences.size} confidences for "
            f"{utt.tokens.size} tokens"
        )
    try:
        return _confidence_array(utt.confidences)
    except DataError as err:
        raise DataError(f"utterance {utt.id}: {err}") from None


class _Corpus:
    """A training run's utterances, checked once: their packed features and
    labels, and the per-utterance terms of their weights under ``cfg.mode``.

    ``batch(idx)`` gives a batch's layout and its token and sentence-end
    weight tables.  Standard training is unit weights.  Token weighting
    gives token j of utterance i the weight c_ij^alpha over the batch mean
    of c^alpha (``compute_weights`` with per-batch normalization, in its
    summation order).  Utterance weighting gives every token of utterance i,
    and its sentence-end term, w_i = mean(c_i)^alpha normalized to mean 1
    over the batch.
    """

    def __init__(self, model: TransducerModel, utterances, cfg: TrainConfig):
        self.packed = PackedUtterances(
            model,
            [u.features for u in utterances],
            [u.tokens for u in utterances],
            [u.id for u in utterances],
        )
        self.cfg = cfg
        if cfg.mode == "standard":
            return
        confidences = [_confidences_of(u) for u in utterances]
        if cfg.mode == "token_weights":
            self.powered = [c**cfg.alpha for c in confidences]
            self.powered_sums = [float(np.sum(p)) for p in self.powered]
        else:
            means = np.array([float(np.mean(c)) if c.size else 1.0 for c in confidences])
            self.powered = means**cfg.alpha

    def batch(self, idx):
        """(layout, lam, final_blank_weight) of utterances ``idx``."""
        idx = np.asarray(idx, dtype=np.int64)
        layout = BatchLayout.of(self.packed, idx)
        U = layout.U
        slots = np.arange(int(U.max())) < U[:, None]
        lam = np.zeros(slots.shape)
        if self.cfg.mode == "standard":
            lam[slots] = 1.0
            return layout, lam, np.ones(U.size)
        if self.cfg.mode == "utterance_weights":
            powered = self.powered[idx]
            w = powered / np.mean(powered)
            lam[slots] = np.repeat(w, U)
            return layout, lam, w
        total = int(U.sum())
        if total == 0:
            raise DataError("empty confidence scope: zero tokens across utterances")
        idx = idx.tolist()
        norm = sum(self.powered_sums[i] for i in idx) / total
        lam[slots] = np.concatenate([self.powered[i] for i in idx]) / norm
        return layout, lam, np.full(U.size, self.cfg.final_blank_weight)


def _batch_loss_and_grad(model: TransducerModel, corpus: _Corpus, idx):
    """Summed loss and parameter gradient for utterances ``idx`` of the
    corpus, divided by their token count.

    One grouped model forward writes the batch's padded log-probability
    columns, the DP runs once over them, and one grouped model backward
    takes the column gradients back to the parameters.
    """
    layout, lam, final_blank_weight = corpus.batch(idx)
    total_tokens = max(1, int(layout.U.sum()))
    cols = forward_columns(model, layout)
    losses, g_blank, g_emit = padded_loss_and_grad(cols, lam, final_blank_weight)
    loss = 0.0
    for loss_u in losses:  # a plain sequential sum, whatever the Python version
        loss += loss_u
    grad = backward_columns(model, layout, g_blank, g_emit)
    grad /= total_tokens
    return loss / total_tokens, grad


def batch_iterator(utterances: Sequence[Utterance], cfg: TrainConfig, rng):
    """Seeded epoch shuffles over one pool, as index arrays into it."""
    n = len(utterances)
    for _ in range(cfg.epochs):
        order = rng.permutation(n)
        for start in range(0, n, cfg.batch_size):
            yield order[start : start + cfg.batch_size]


def mixed_batch_iterator(
    labeled: Sequence[Utterance],
    pseudo: Sequence[Utterance],
    cfg: TrainConfig,
    rng,
    ratio=(1, 9),
):
    """Seeded sampling with the configured labeled:pseudo expected ratio, as
    index arrays into ``labeled`` followed by ``pseudo``.

    Epoch length covers the combined pool size; labeled utterances repeat
    as needed to realize the mix.
    """
    if not labeled or not pseudo:
        raise DataError("mixed batches need both a labeled and a pseudo pool")
    p_pseudo = ratio[1] / (ratio[0] + ratio[1])
    steps = -(-(len(labeled) + len(pseudo)) // cfg.batch_size)  # ceil division
    for _ in range(cfg.epochs * steps):
        batch = []
        for _ in range(cfg.batch_size):
            if rng.random() < p_pseudo:
                batch.append(len(labeled) + int(rng.integers(0, len(pseudo))))
            else:
                batch.append(int(rng.integers(0, len(labeled))))
        yield np.array(batch, dtype=np.int64)


def train_model(
    utterances: Sequence[Utterance],
    dim_features: int,
    vocab_size: int,
    cfg: TrainConfig,
    init_rng,
    order_rng,
    init_model: Optional[TransducerModel] = None,
    pseudo: Optional[Sequence[Utterance]] = None,
    mix_ratio=(1, 9),
) -> TrainResult:
    """Adam training run; deterministic given the two rng streams.

    With a ``pseudo`` pool, batches are sampled at ``mix_ratio`` instead of
    epoch shuffles.  Every utterance is checked before the first step: bad
    features, labels or (in the weighted modes) confidences raise a
    DataError naming it.  Divergence (NaN/inf loss) raises NumericalError.
    ``init_model`` is copied, never modified.
    """
    if not utterances:
        raise DataError("no training utterances")
    init = init_model or TransducerModel.random(
        dim_features, cfg.dim_hidden, vocab_size, init_rng, scale=cfg.init_scale
    )
    # The run's own parameters, updated in place; their views are built once.
    model = TransducerModel(init.dim_in, init.dim_hidden, init.vocab_size, init.params.copy())
    m, v = np.zeros_like(model.params), np.zeros_like(model.params)
    hyper = AdamConfig(lr=cfg.lr)
    batch_losses = []
    if pseudo is None:
        corpus = _Corpus(model, utterances, cfg)
        batches = batch_iterator(utterances, cfg, order_rng)
        steps_per_epoch = -(-len(utterances) // cfg.batch_size)
    else:
        corpus = _Corpus(model, list(utterances) + list(pseudo), cfg)
        batches = mixed_batch_iterator(utterances, pseudo, cfg, order_rng, mix_ratio)
        steps_per_epoch = -(-(len(utterances) + len(pseudo)) // cfg.batch_size)
    for step, idx in enumerate(batches, start=1):
        loss, grad = _batch_loss_and_grad(model, corpus, idx)
        if not np.isfinite(loss):
            raise NumericalError(f"training diverged: batch loss {loss!r}")
        adam_update(model.params, m, v, grad, step, hyper)
        batch_losses.append(loss)
    epoch_losses = [
        float(np.mean(batch_losses[i : i + steps_per_epoch]))
        for i in range(0, len(batch_losses), steps_per_epoch)
    ]
    result = TransducerModel(model.dim_in, model.dim_hidden, model.vocab_size, model.params)
    return TrainResult(model=result, batch_losses=batch_losses, epoch_losses=epoch_losses)


def evaluate_wer(model: TransducerModel, utterances, max_symbols_per_frame=4) -> float:
    """Corpus token error rate of greedy decodes against references."""
    dist = 0
    total = 0
    for u in utterances:
        hyp, _ = greedy_decode(model, u.features, max_symbols_per_frame)
        r = wer(hyp, u.tokens)
        dist += r.distance
        total += u.tokens.size
    if total == 0:
        raise DataError("cannot evaluate WER on a corpus with no reference tokens")
    return dist / total


def score_confidences(model: TransducerModel, utterances) -> list:
    """Attach teacher conditionals c_u = P(y_u | y_<u) to every utterance.

    Empty transcripts get an empty confidence vector.  The pool is scored
    in chunks of ``_SCORE_CHUNK`` utterances, one emission sweep each.
    """
    utterances = list(utterances)
    spoken = [u for u in utterances if u.tokens.size]
    if spoken:
        packed = PackedUtterances(
            model, [u.features for u in spoken], [u.tokens for u in spoken], [u.id for u in spoken]
        )
    out, scored = [], 0
    for start in range(0, len(utterances), _SCORE_CHUNK):
        chunk = utterances[start : start + _SCORE_CHUNK]
        n = sum(1 for u in chunk if u.tokens.size)
        profiles = iter([])
        if n:
            layout = BatchLayout.of(packed, np.arange(scored, scored + n))
            profiles = iter(padded_profiles(forward_columns(model, layout)))
            scored += n
        for u in chunk:
            conf = next(profiles).conditionals if u.tokens.size else np.zeros(0)
            out.append(replace(u, confidences=conf))
    return out
