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
    TransducerModel,
    adam_init,
    adam_step,
    backward_columns,
    forward_columns,
    greedy_decode,
)
from .weighting import TokenWeights, WeightConfig, compute_weights, padded_loss_and_grad

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
    # 32-bit network arithmetic for training forward passes; the DP and all
    # check paths stay 64-bit regardless.
    float32_forward: bool = False

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
    if utt.confidences is not None:
        if utt.confidences.size != utt.tokens.size:
            raise DataError(
                f"utterance {utt.id}: {utt.confidences.size} confidences for "
                f"{utt.tokens.size} tokens"
            )
        return utt.confidences
    return np.ones(utt.tokens.size)


def _batch_weights(batch, cfg: TrainConfig) -> list:
    """One TokenWeights per utterance; the training mode only chooses these.

    Standard training is unit weights.  Utterance weighting gives every
    token of utterance i, and its sentence-end term, the same weight
    w_i = mean(c)^alpha normalized to mean 1 over the batch.
    """
    if cfg.mode == "standard":
        return [TokenWeights.uniform(u.tokens.size) for u in batch]
    confidences = [_confidences_of(u) for u in batch]
    if cfg.mode == "token_weights":
        wcfg = WeightConfig(
            alpha=cfg.alpha,
            final_blank_weight=cfg.final_blank_weight,
            normalization="per_batch",
        )
        return compute_weights(confidences, wcfg)
    means = np.array([float(np.mean(c)) if c.size else 1.0 for c in confidences])
    powered = means**cfg.alpha
    w = powered / np.mean(powered)
    return [
        TokenWeights(
            lambdas=np.full(c.size, wi),
            source_confidences=c,
            config=WeightConfig(alpha=cfg.alpha, final_blank_weight=float(wi)),
        )
        for wi, c in zip(w, confidences)
    ]


def _batch_loss_and_grad(model: TransducerModel, batch, cfg: TrainConfig):
    """Summed loss and parameter gradient for one batch under cfg.mode.

    One grouped model forward writes the batch's padded log-probability
    columns, the DP runs once over them, and one grouped model backward
    takes the column gradients back to the parameters.
    """
    total_tokens = max(1, sum(u.tokens.size for u in batch))
    dtype = np.float32 if cfg.float32_forward else np.float64
    weights = _batch_weights(batch, cfg)
    layout = BatchLayout(model, [u.features for u in batch], [u.tokens for u in batch])
    cols = forward_columns(model, layout, compute_dtype=dtype)
    losses, g_blank, g_emit = padded_loss_and_grad(cols, weights)
    loss = 0.0
    for loss_u in losses:  # a plain sequential sum, whatever the Python version
        loss += loss_u
    grad = backward_columns(model, layout, g_blank, g_emit)
    grad /= total_tokens
    return loss / total_tokens, grad


def batch_iterator(utterances: Sequence[Utterance], cfg: TrainConfig, rng):
    """Seeded epoch shuffles over one pool."""
    n = len(utterances)
    for _ in range(cfg.epochs):
        order = rng.permutation(n)
        for start in range(0, n, cfg.batch_size):
            yield [utterances[i] for i in order[start : start + cfg.batch_size]]


def mixed_batch_iterator(
    labeled: Sequence[Utterance],
    pseudo: Sequence[Utterance],
    cfg: TrainConfig,
    rng,
    ratio=(1, 9),
):
    """Seeded sampling with the configured labeled:pseudo expected ratio.

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
                batch.append(pseudo[int(rng.integers(0, len(pseudo)))])
            else:
                batch.append(labeled[int(rng.integers(0, len(labeled)))])
        yield batch


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
    epoch shuffles.  Divergence (NaN/inf loss) raises NumericalError.
    """
    if not utterances:
        raise DataError("no training utterances")
    model = init_model or TransducerModel.random(
        dim_features, cfg.dim_hidden, vocab_size, init_rng, scale=cfg.init_scale
    )
    state = adam_init(model)
    hyper = AdamConfig(lr=cfg.lr)
    batch_losses = []
    if pseudo is None:
        batches = batch_iterator(utterances, cfg, order_rng)
        steps_per_epoch = -(-len(utterances) // cfg.batch_size)
    else:
        batches = mixed_batch_iterator(utterances, pseudo, cfg, order_rng, mix_ratio)
        steps_per_epoch = -(-(len(utterances) + len(pseudo)) // cfg.batch_size)
    for batch in batches:
        loss, grad = _batch_loss_and_grad(state.model, batch, cfg)
        if not np.isfinite(loss):
            raise NumericalError(f"training diverged: batch loss {loss!r}")
        state = adam_step(state, grad, hyper)
        batch_losses.append(loss)
    epoch_losses = [
        float(np.mean(batch_losses[i : i + steps_per_epoch]))
        for i in range(0, len(batch_losses), steps_per_epoch)
    ]
    return TrainResult(
        model=state.model, batch_losses=batch_losses, epoch_losses=epoch_losses
    )


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
    out = []
    for start in range(0, len(utterances), _SCORE_CHUNK):
        chunk = utterances[start : start + _SCORE_CHUNK]
        spoken = [u for u in chunk if u.tokens.size]
        profiles = iter([])
        if spoken:
            layout = BatchLayout(
                model, [u.features for u in spoken], [u.tokens for u in spoken]
            )
            profiles = iter(padded_profiles(forward_columns(model, layout)))
        for u in chunk:
            conf = next(profiles).conditionals if u.tokens.size else np.zeros(0)
            out.append(replace(u, confidences=conf))
    return out
