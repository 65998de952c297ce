"""Batched training loops over the toy transducer.

Three objectives share one loss: the token-weighted transducer loss, whose
weights are all 1 for plain sequence training, one confidence-derived scalar
per utterance for utterance weighting, and one per token for token
weighting.  Batch losses are summed and divided by the batch's token count
so the weight exponent does not rescale the effective learning rate.

Confidence scores ride on utterances (``Utterance.confidences``); utterances
without scores count as fully confident (c = 1), which is how ground-truth
labeled data mixes into weighted objectives.

Runs that differ only in their objective (mode and weight exponent), and so
share an init, a batch order and a corpus, train in lockstep as one stacked
run (``train_runs``); a single run (``train_model``) is the case of one.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Optional, Sequence

import numpy as np

from .conditionals import padded_profiles
from .datagen import Utterance
from .errors import DataError, NumericalError
from .kernels import PaddedColumns
from .metrics import corpus_wer
from .model import (
    AdamConfig,
    BatchLayout,
    PackedUtterances,
    StepActivations,
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
    "train_runs",
    "train_model",
    "decode_corpus",
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
        if self.epochs < 1 or self.batch_size < 1 or self.dim_hidden < 1:
            raise DataError("epochs, batch_size and dim_hidden must be >= 1")
        if not self.alpha >= 0:
            raise DataError(f"alpha must be >= 0, got {self.alpha}")
        if not self.final_blank_weight >= 0:
            raise DataError(f"final_blank_weight must be >= 0, got {self.final_blank_weight}")


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
    """The utterances of one or more training runs, checked once: their
    packed features and labels, and the per-utterance terms of each run's
    weights under its config's mode.

    ``batch(idx)`` gives a batch's layout and the token and sentence-end
    weight tables of every run, stacked: run k owns rows k*B..(k+1)*B-1.
    Standard training is unit weights.  Token weighting gives token j of
    utterance i the weight c_ij^alpha over the batch mean of c^alpha
    (``compute_weights`` with per-batch normalization, in its summation
    order).  Utterance weighting gives every token of utterance i, and its
    sentence-end term, w_i = mean(c_i)^alpha normalized to mean 1 over the
    batch.
    """

    def __init__(self, model: TransducerModel, utterances, cfgs):
        self.packed = PackedUtterances(
            model,
            [u.features for u in utterances],
            [u.tokens for u in utterances],
            [u.id for u in utterances],
        )
        self.cfgs = list(cfgs)
        self.powered = [None] * len(self.cfgs)
        self.powered_sums = [None] * len(self.cfgs)
        modes = {cfg.mode for cfg in self.cfgs}
        if modes == {"standard"}:
            return
        confidences = [_confidences_of(u) for u in utterances]
        if "utterance_weights" in modes:
            means = np.array([float(np.mean(c)) if c.size else 1.0 for c in confidences])
        for k, cfg in enumerate(self.cfgs):
            if cfg.mode == "token_weights":
                self.powered[k] = [c**cfg.alpha for c in confidences]
                self.powered_sums[k] = [float(np.sum(p)) for p in self.powered[k]]
            elif cfg.mode == "utterance_weights":
                self.powered[k] = means**cfg.alpha

    def batch(self, idx):
        """(layout, lam, final_blank_weight) of utterances ``idx``, with
        lam (K*B, Umax) and final_blank_weight (K*B,) for K runs."""
        idx = np.asarray(idx, dtype=np.int64)
        layout = BatchLayout.of(self.packed, idx)
        U = layout.U
        slots = np.arange(int(U.max())) < U[:, None]
        K, B = len(self.cfgs), U.size
        lam = np.zeros((K, *slots.shape))
        w_fb = np.empty((K, B))
        for k, cfg in enumerate(self.cfgs):
            if cfg.mode == "standard":
                lam[k][slots] = 1.0
                w_fb[k] = 1.0
            elif cfg.mode == "utterance_weights":
                powered = self.powered[k][idx]
                w = powered / np.mean(powered)
                lam[k][slots] = np.repeat(w, U)
                w_fb[k] = w
            else:
                total = int(U.sum())
                if total:  # a batch of empty transcripts has no token to weight
                    rows = idx.tolist()
                    norm = sum(self.powered_sums[k][i] for i in rows) / total
                    lam[k][slots] = np.concatenate([self.powered[k][i] for i in rows]) / norm
                w_fb[k] = cfg.final_blank_weight
        return layout, lam.reshape(K * B, slots.shape[1]), w_fb.reshape(-1)


def _batch_loss_and_grad(models, corpus: _Corpus, idx, grad, kept=None) -> list:
    """Each run's summed loss for utterances ``idx`` of the corpus, divided
    by their token count; run k's parameter gradient, divided likewise,
    overwrites ``grad[k]``.

    One layout serves every run.  Run k's grouped model forward writes its
    rows of one padded column batch, the DP runs once over all of them, and
    run k's grouped model backward takes its rows of the column gradients
    back to its parameters.  With ``kept``, one ``StepActivations`` per run,
    each backward reuses what its forward kept instead of running the
    network again; the losses and gradients are the same.
    """
    layout, lam, final_blank_weight = corpus.batch(idx)
    total_tokens = max(1, int(layout.U.sum()))
    K, B = len(models), layout.T.size
    cols = PaddedColumns(np.tile(layout.T, K), np.tile(layout.U, K))
    kept = kept or [None] * K
    for k, model in enumerate(models):
        forward_columns(model, layout, out=cols.rows(k * B, (k + 1) * B), keep=kept[k])
    losses, g_blank, g_emit = padded_loss_and_grad(cols, lam, final_blank_weight)
    out = []
    for k, model in enumerate(models):
        rows = slice(k * B, (k + 1) * B)
        loss = 0.0
        for loss_u in losses[rows]:  # a plain sequential sum, whatever the Python version
            loss += loss_u
        out.append(loss / total_tokens)
        grad[k] = backward_columns(model, layout, g_blank[rows], g_emit[rows], kept[k])
    grad /= total_tokens
    return out


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


def _run_name(cfg: TrainConfig) -> str:
    return f"{cfg.mode} at alpha {cfg.alpha:g}"


def train_runs(
    utterances: Sequence[Utterance],
    dim_features: int,
    vocab_size: int,
    cfgs: Sequence[TrainConfig],
    init_rng,
    order_rng,
    init_model: Optional[TransducerModel] = None,
    pseudo: Optional[Sequence[Utterance]] = None,
    mix_ratio=(1, 9),
) -> list:
    """Adam training runs that differ only in their objective, stepped in
    lockstep; one TrainResult per config, deterministic given the two rng
    streams.

    The configs may differ only in ``mode`` and ``alpha`` (anything else
    raises a DataError).  Every run starts from the same init and takes the
    same batches, so each result equals that of its own ``train_model``
    call bit for bit.  The init is drawn and the batch order consumed once,
    the corpus packed once, and each step lays out its batch once, runs the
    DP once over every run's lattices and makes one Adam update of the
    runs' stacked (K, P) parameters.  Each run's backward reuses the
    activations its forward kept (``model.StepActivations``), whose buffers
    live for this call.

    With a ``pseudo`` pool, batches are sampled at ``mix_ratio`` instead of
    epoch shuffles.  Every utterance is checked before the first step: bad
    features, labels or (in the weighted modes) confidences raise a
    DataError naming it.  Divergence (a non-finite loss or gradient) raises
    a NumericalError naming the run before any run is updated at that step.
    ``init_model`` is copied, never modified.
    """
    cfgs = list(cfgs)
    if not cfgs:
        raise DataError("no training configs")
    cfg = cfgs[0]
    for other in cfgs[1:]:
        if replace(other, mode=cfg.mode, alpha=cfg.alpha) != cfg:
            differ = [f.name for f in fields(cfg) if getattr(other, f.name) != getattr(cfg, f.name)]
            raise DataError(
                f"runs trained together may differ only in mode and alpha, "
                f"not in {', '.join(differ)}"
            )
    if not utterances:
        raise DataError("no training utterances")
    init = init_model or TransducerModel.random(
        dim_features, cfg.dim_hidden, vocab_size, init_rng, scale=cfg.init_scale
    )
    # The runs' own parameters, one row each, updated in place; every
    # run's model views its row, so its views are built once.
    params = np.tile(init.params, (len(cfgs), 1))
    models = [TransducerModel(init.dim_in, init.dim_hidden, init.vocab_size, row) for row in params]
    m, v, grad = np.zeros_like(params), np.zeros_like(params), np.empty_like(params)
    kept = [StepActivations(model) for model in models]
    hyper = AdamConfig(lr=cfg.lr)
    if pseudo is None:
        corpus = _Corpus(models[0], utterances, cfgs)
        batches = batch_iterator(utterances, cfg, order_rng)
        steps_per_epoch = -(-len(utterances) // cfg.batch_size)
    else:
        corpus = _Corpus(models[0], list(utterances) + list(pseudo), cfgs)
        batches = mixed_batch_iterator(utterances, pseudo, cfg, order_rng, mix_ratio)
        steps_per_epoch = -(-(len(utterances) + len(pseudo)) // cfg.batch_size)
    batch_losses = [[] for _ in cfgs]
    for step, idx in enumerate(batches, start=1):
        losses = _batch_loss_and_grad(models, corpus, idx, grad, kept)
        for run, loss in zip(cfgs, losses):
            if not np.isfinite(loss):
                raise NumericalError(f"training diverged ({_run_name(run)}): batch loss {loss!r}")
        try:
            adam_update(params, m, v, grad, step, hyper)
        except NumericalError:
            # The update's own guard refused the step before touching
            # anything; name the run whose gradient it refused.
            k, i = divmod(int(np.argmax(~np.isfinite(grad))), grad.shape[1])
            raise NumericalError(
                f"training diverged ({_run_name(cfgs[k])}): non-finite gradient entry "
                f"{grad[k, i]!r} at index {i}; no update applied"
            ) from None
        for trace, loss in zip(batch_losses, losses):
            trace.append(loss)
    results = []
    for row, losses in zip(params, batch_losses):
        epoch_losses = [
            float(np.mean(losses[i : i + steps_per_epoch]))
            for i in range(0, len(losses), steps_per_epoch)
        ]
        model = TransducerModel(init.dim_in, init.dim_hidden, init.vocab_size, row.copy())
        results.append(TrainResult(model=model, batch_losses=losses, epoch_losses=epoch_losses))
    return results


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
    """One Adam training run: ``train_runs`` with the one config ``cfg``."""
    return train_runs(
        utterances, dim_features, vocab_size, [cfg], init_rng, order_rng,
        init_model=init_model, pseudo=pseudo, mix_ratio=mix_ratio,
    )[0]


def decode_corpus(model: TransducerModel, utterances, max_symbols_per_frame=4) -> list:
    """Greedy hypotheses: each utterance with its tokens replaced by the
    model's greedy decode and its scores and weights dropped."""
    return [
        replace(
            u,
            tokens=greedy_decode(model, u.features, max_symbols_per_frame)[0],
            confidences=None,
            lam=None,
        )
        for u in utterances
    ]


def evaluate_wer(model: TransducerModel, utterances, max_symbols_per_frame=4) -> float:
    """Corpus token error rate of greedy decodes against references."""
    utterances = list(utterances)
    hyps = decode_corpus(model, utterances, max_symbols_per_frame)
    return corpus_wer([h.tokens for h in hyps], [u.tokens for u in utterances])


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
