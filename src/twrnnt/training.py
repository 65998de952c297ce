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
share an init, a batch order and a corpus, form a run group (``RunGroup``).
One ``train_runs`` call steps several groups in lockstep, each on its own
corpus, streams and config, with one DP pass and one Adam update per step
over every run, each run at its own learning rate; only the parameter
shape keeps groups out of one call.  A single run (``train_model``) is one
group of one.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Any, Optional, Sequence

import numpy as np

from .conditionals import padded_profiles
from .datagen import Utterance
from .errors import (
    DataError, NumericalError, check_choice, check_count, check_each, check_fields, check_real, checked,
)
from .kernels import PaddedColumns
from .metrics import corpus_wer
from .model import (
    BatchLayout,
    PackedUtterances,
    StepActivations,
    TransducerModel,
    _ranges,
    adam_update,
    backward_columns,
    forward_columns,
    greedy_decode,
)
from .weighting import _underflow_message, confidence_array, packed_weights, padded_loss_and_grad

__all__ = [
    "MODES",
    "TrainConfig",
    "TrainResult",
    "RunGroup",
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
# training batch: larger chunks buy little speed, and the forward of a chunk
# of long lattices (T ~ 75, U ~ 25) is the peak of scoring.  Traced with
# tracemalloc over the benchmark's ``long-lattice`` round at seed 11 (live
# data included), it peaks at 6.7 MB at 16 and 11.3 MB at 32, where the
# round's peak is a training step's forward at 9.9 MB, with the
# activations it keeps for the backward (``model.StepActivations``).
_SCORE_CHUNK = 16


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = checked(check_count, 10, low=1)
    batch_size: int = checked(check_count, 8, low=1)
    lr: float = checked(check_real, 1e-2, low=0.0, open_low=True)
    dim_hidden: int = checked(check_count, 32, low=1)
    mode: str = checked(check_choice, "standard", choices=MODES)
    alpha: float = checked(check_real, 1.0, low=0.0)
    final_blank_weight: float = checked(check_real, 1.0, low=0.0)
    max_symbols_per_frame: int = checked(check_count, 4, low=1)
    init_scale: float = checked(check_real, 0.5)

    __post_init__ = check_fields


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
        return confidence_array(utt.confidences)
    except DataError as err:
        raise DataError(f"utterance {utt.id}: {err}") from None


class _Corpus:
    """The utterances of one or more training runs, checked once: their
    packed features and labels, and the per-utterance terms of each run's
    weights under its config's mode.

    ``weights(idx, layout, lam, w_fb)`` writes a batch's token and
    sentence-end weights for every run.  Standard training is unit weights.
    Token weighting gives token j of utterance i the weight c_ij^alpha over
    the batch mean of c^alpha (``weighting.packed_weights``): each run's
    c^alpha are packed once per corpus, with each utterance's sum, so a
    step's weights are one gather and one division.  Utterance weighting
    gives every token of utterance i, and its sentence-end term, w_i =
    mean(c_i)^alpha over the batch's ``np.mean`` of those values.  A batch
    whose powered confidences all underflow to 0 has no such normalization:
    it raises NumericalError naming the run, alpha and the batch's
    utterances.
    """

    def __init__(self, model: TransducerModel, utterances, cfgs):
        self.packed = PackedUtterances(
            model,
            [u.features for u in utterances],
            [u.tokens for u in utterances],
            [u.id for u in utterances],
        )
        self.ids = [u.id for u in utterances]
        self.cfgs = list(cfgs)
        # Run k's c^alpha: per token, packed in corpus order (token
        # weighting), or per utterance, of its mean confidence (utterance
        # weighting); and, for token weighting, each utterance's sum.
        self.powered = [None] * len(self.cfgs)
        self.sums = [None] * len(self.cfgs)
        U = self.packed.U
        self.token0 = U.cumsum() - U  # each utterance's first packed token
        modes = {cfg.mode for cfg in self.cfgs}
        if modes == {"standard"}:
            return
        confidences = [_confidences_of(u) for u in utterances]
        if "utterance_weights" in modes:
            means = np.array([float(np.mean(c)) if c.size else 1.0 for c in confidences])
        for k, cfg in enumerate(self.cfgs):
            if cfg.mode == "token_weights":
                powered = [c**cfg.alpha for c in confidences]
                self.powered[k] = np.concatenate(powered)
                self.sums[k] = [float(np.sum(p)) for p in powered]
            elif cfg.mode == "utterance_weights":
                self.powered[k] = means**cfg.alpha

    def weights(self, idx, layout, lam, w_fb):
        """Write the weights of utterances ``idx``, laid out by ``layout``,
        for the K runs: token weights to the zero-filled lam (K, B, W),
        W >= Umax, and sentence-end weights to w_fb (K, B)."""
        idx, U = np.asarray(idx, dtype=np.int64), layout.U
        slots = np.arange(lam.shape[2]) < U[:, None]
        rows = idx.tolist()
        tokens = None  # the batch's packed tokens, gathered once for its runs
        for k, cfg in enumerate(self.cfgs):
            if cfg.mode == "standard":
                lam[k][slots] = 1.0
                w_fb[k] = 1.0
            elif cfg.mode == "utterance_weights":
                powered = self.powered[k][idx]
                norm = np.mean(powered)
                if norm == 0.0:
                    message = _underflow_message(cfg.alpha, [self.ids[i] for i in rows])
                    raise NumericalError(f"{_run_name(cfg)}: {message}")
                w = powered / norm
                lam[k][slots] = np.repeat(w, U)
                w_fb[k] = w
            else:
                if tokens is None:
                    tokens = _ranges(self.token0[idx], U)
                if tokens.size:  # a batch of empty transcripts has no token to weight
                    sums = self.sums[k]
                    # The non-empty utterances, read only if the weights underflow.
                    names = (self.ids[i] for i, n in zip(rows, U.tolist()) if n)
                    try:
                        lam[k][slots] = packed_weights(
                            self.powered[k][tokens], [sums[i] for i in rows], cfg.alpha, names
                        )
                    except NumericalError as err:
                        raise NumericalError(f"{_run_name(cfg)}: {err}") from None
                w_fb[k] = cfg.final_blank_weight


def _batch_loss_and_grad(models, batches, grad, kept) -> list:
    """Each run's summed loss for its batch, divided by the batch's token
    count; run k's parameter gradient, divided likewise, overwrites
    ``grad[k]``.

    ``batches`` holds one (corpus, idx) pair per run group: utterances
    ``idx`` of the corpus, for the next ``len(corpus.cfgs)`` models, the
    runs of the group's ``StepActivations`` in ``kept``.  Each group lays
    out its batch once.  Every run's grouped model forward writes its rows
    of one padded column batch, padded to the groups' longest utterances
    and transcripts, and keeps its activations in its row of its group's
    ``StepActivations``; the DP runs once over all of them; and one
    grouped model backward per group reads its runs' rows of the column
    gradients where they are.
    """
    layouts = [BatchLayout.of(corpus.packed, idx) for corpus, idx in batches]
    # Run k's layout, and its rows row0[k]..row0[k + 1] - 1 of the padded
    # batch; a group's runs are consecutive.
    run_layouts = [layout for (corpus, _), layout in zip(batches, layouts) for _ in corpus.cfgs]
    row0 = [0]
    for layout in run_layouts:
        row0.append(row0[-1] + layout.T.size)
    cols = PaddedColumns(
        np.concatenate([layout.T for layout in run_layouts]),
        np.concatenate([layout.U for layout in run_layouts]),
    )
    lam = np.zeros((row0[-1], cols.blank.shape[2] - 1))
    w_fb = np.empty(row0[-1])
    k0 = 0  # the group's first run
    for (corpus, idx), layout, keep in zip(batches, layouts, kept):
        K, B = len(corpus.cfgs), layout.T.size
        rows = slice(row0[k0], row0[k0 + K])
        corpus.weights(idx, layout, lam[rows].reshape(K, B, lam.shape[1]), w_fb[rows].reshape(K, B))
        for k in range(k0, k0 + K):
            forward_columns(models[k], layout, out=cols, keep=keep, row0=row0[k])
        k0 += K
    losses, g_blank, g_emit = padded_loss_and_grad(cols, lam, w_fb)
    out = []
    k0 = 0
    for layout, keep in zip(layouts, kept):
        K, total_tokens = len(keep.models), max(1, int(layout.U.sum()))
        for k in range(k0, k0 + K):
            loss = 0.0
            for loss_u in losses[row0[k] : row0[k + 1]]:  # a plain sequential sum
                loss += loss_u
            out.append(loss / total_tokens)
        grad[k0 : k0 + K] = backward_columns(keep, layout, g_blank, g_emit, row0[k0])
        grad[k0 : k0 + K] /= total_tokens
        k0 += K
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
    as needed to realize the mix.  An empty pool, or a ratio that is not two
    finite, nonnegative numbers with a positive sum, raises DataError at
    the call, before any batch is drawn.
    """
    if not labeled or not pseudo:
        raise DataError("mixed batches need both a labeled and a pseudo pool")
    return _mixed_batches(len(labeled), len(pseudo), cfg, rng, _pseudo_share(ratio, "ratio"))


def _mixed_batches(n_labeled, n_pseudo, cfg, rng, p_pseudo):
    """The batches of ``mixed_batch_iterator``, whose inputs it checked."""
    steps = -(-(n_labeled + n_pseudo) // cfg.batch_size)  # ceil division
    for _ in range(cfg.epochs * steps):
        batch = []
        for _ in range(cfg.batch_size):
            if rng.random() < p_pseudo:
                batch.append(n_labeled + int(rng.integers(0, n_pseudo)))
            else:
                batch.append(int(rng.integers(0, n_labeled)))
        yield np.array(batch, dtype=np.int64)


def _run_name(cfg: TrainConfig) -> str:
    return f"{cfg.mode} at alpha {cfg.alpha:g}"


def _pseudo_share(ratio, name) -> float:
    """The pseudo-labeled share of draws at a labeled:pseudo ``ratio`` of two
    finite numbers >= 0, not both 0: the rule of ``RunGroup.mix_ratio``."""
    check_each(ratio, name, check_real, low=0.0)
    if len(ratio) != 2 or not sum(ratio) > 0:
        raise DataError(f"{name} must be finite and two numbers >= 0, not both 0, got {ratio!r}")
    return ratio[1] / (ratio[0] + ratio[1])


@dataclass(frozen=True)
class RunGroup:
    """Training runs that share a corpus, an init and a batch order, and so
    differ only in their objective: one run per config of ``cfgs``, whose
    configs may differ only in ``mode`` and ``alpha``.  Groups trained
    together may differ in any config field but ``dim_hidden``, which sets
    the parameter shape.

    The init is ``init_model`` (copied, never modified) or drawn from
    ``init_rng``; the batches are epoch shuffles of ``utterances`` drawn
    from ``order_rng`` or, with a ``pseudo`` pool, batches sampled from
    both at ``mix_ratio``.
    """

    utterances: Sequence[Utterance]
    cfgs: Sequence[TrainConfig]
    init_rng: Any
    order_rng: Any
    init_model: Optional[TransducerModel] = None
    pseudo: Optional[Sequence[Utterance]] = None
    mix_ratio: tuple = checked(_pseudo_share, (1, 9))

    __post_init__ = check_fields


class _Group:
    """A run group being trained: its corpus, batches and step count."""

    def __init__(self, index, group: RunGroup, init: TransducerModel):
        cfg = group.cfgs[0]
        self.index, self.cfgs, self.init = index, list(group.cfgs), init
        if group.pseudo is None:
            self.corpus = _Corpus(init, group.utterances, self.cfgs)
            self.batches = batch_iterator(group.utterances, cfg, group.order_rng)
            pool = len(group.utterances)
        else:
            utts = list(group.utterances) + list(group.pseudo)
            self.corpus = _Corpus(init, utts, self.cfgs)
            self.batches = mixed_batch_iterator(
                group.utterances, group.pseudo, cfg, group.order_rng, group.mix_ratio
            )
            pool = len(utts)
        self.steps_per_epoch = -(-pool // cfg.batch_size)
        self.steps = cfg.epochs * self.steps_per_epoch


def _check_groups(groups) -> None:
    """Refuse groups that cannot train, naming the field; within a group,
    configs that differ in more than mode and alpha."""
    if not groups:
        raise DataError("no run groups to train")
    for g, group in enumerate(groups):
        if not group.cfgs:
            raise DataError(f"run group {g} has no training configs")
        if not group.utterances:
            raise DataError(f"run group {g} has no training utterances")
        cfg = group.cfgs[0]
        for other in group.cfgs[1:]:
            differ = [
                f.name for f in fields(cfg)
                if f.name not in ("mode", "alpha") and getattr(other, f.name) != getattr(cfg, f.name)
            ]
            if differ:
                raise DataError(
                    f"runs of one group may differ only in mode and alpha, "
                    f"not in {', '.join(differ)}"
                )
    order = [group.order_rng for group in groups]
    if len({id(rng) for rng in order}) < len(order):
        raise DataError("run groups trained together need their own order streams")


def train_runs(groups: Sequence[RunGroup], dim_features: int, vocab_size: int) -> list:
    """Adam training of every run of several run groups, stepped in
    lockstep; for each group, in the given order, one TrainResult per
    config.  Deterministic given each group's two rng streams.

    Each group's runs start from its init and take its batches, so each
    result equals that of its own ``train_model`` call bit for bit.  The
    groups may differ in corpus, streams, init, pseudo pool and any config
    field; the one rule across groups is that every init has the same
    dimensions (a DataError names them), so ``dim_hidden`` must agree.
    Each group's init is drawn and its batch order consumed once, and its
    corpus packed once.  At each step every group that still has batches
    lays out its batch once; one DP pass covers every live run's lattices,
    padded to the longest, one backward per group its runs, and one Adam
    update their stacked (K, P) parameters, with a (K, 1) column of the
    runs' learning rates.  Groups are stacked longest first, so the live
    runs are always the leading rows, and a group drops out when its
    batches run out.  Each group's backward reuses the activations its
    runs' forwards kept (one ``model.StepActivations`` per group), whose
    buffers live for this call.

    Every utterance of every group is checked before the first step: bad
    features, labels or (in the weighted modes) confidences raise a
    DataError naming it.  Divergence (a non-finite loss or gradient)
    raises a NumericalError naming the run and its group before any run
    is updated at that step.
    """
    groups = list(groups)
    _check_groups(groups)
    live = []
    for g, group in enumerate(groups):
        cfg = group.cfgs[0]
        init = group.init_model or TransducerModel.random(
            dim_features, cfg.dim_hidden, vocab_size, group.init_rng, scale=cfg.init_scale
        )
        live.append(_Group(g, group, init))
    dims = {(s.init.dim_in, s.init.dim_hidden, s.init.vocab_size) for s in live}
    if len(dims) > 1:
        raise DataError(f"run groups trained together need inits of one shape, got {sorted(dims)}")
    # Longest first (stable), so that the live runs are always the leading
    # rows of the stacked arrays, and a group drops out from the end.
    live.sort(key=lambda s: -s.steps)
    stacked = list(live)
    # The runs' own parameters, one row each, updated in place; every
    # run's model views its row, so its views are built once.
    params = np.concatenate([np.tile(s.init.params, (len(s.cfgs), 1)) for s in stacked])
    shape = stacked[0].init
    models = [TransducerModel(shape.dim_in, shape.dim_hidden, shape.vocab_size, row) for row in params]
    m, v, grad = np.zeros_like(params), np.zeros_like(params), np.empty_like(params)
    runs = iter(models)
    kept = [StepActivations([next(runs) for _ in s.cfgs]) for s in stacked]
    lr = np.array([[cfg.lr] for s in stacked for cfg in s.cfgs])
    names = [
        f"training diverged ({_run_name(cfg)}) in run group {s.index}" for s in stacked for cfg in s.cfgs
    ]
    batch_losses = [[] for _ in models]
    n = len(models)  # live runs
    for step in range(1, stacked[0].steps + 1):
        while live[-1].steps < step:
            n -= len(live.pop().cfgs)
        batches = [(s.corpus, next(s.batches)) for s in live]
        losses = _batch_loss_and_grad(models[:n], batches, grad[:n], kept[: len(live)])
        for k, loss in enumerate(losses):
            if not np.isfinite(loss):
                raise NumericalError(f"{names[k]}: batch loss {loss!r}")
        try:
            adam_update(params[:n], m[:n], v[:n], grad[:n], step, lr[:n])
        except NumericalError:
            # The update's own guard refused the step before touching
            # anything; name the run whose gradient it refused.
            k, i = divmod(int(np.argmax(~np.isfinite(grad[:n]))), grad.shape[1])
            raise NumericalError(
                f"{names[k]}: non-finite gradient entry "
                f"{grad[k, i]!r} at index {i}; no update applied"
            ) from None
        for trace, loss in zip(batch_losses, losses):
            trace.append(loss)
    results = [None] * len(groups)
    rows = iter(zip(params, batch_losses))
    for s in stacked:
        results[s.index] = []
        for _, (row, losses) in zip(s.cfgs, rows):
            epoch_losses = [
                float(np.mean(losses[i : i + s.steps_per_epoch]))
                for i in range(0, len(losses), s.steps_per_epoch)
            ]
            model = TransducerModel(shape.dim_in, shape.dim_hidden, shape.vocab_size, row.copy())
            results[s.index].append(
                TrainResult(model=model, batch_losses=losses, epoch_losses=epoch_losses)
            )
    return results


def train_model(
    utterances: Sequence[Utterance],
    dim_features: int,
    vocab_size: int,
    cfg: TrainConfig,
    init_rng,
    order_rng,
    init_model: Optional[TransducerModel] = None,
) -> TrainResult:
    """One Adam training run on epoch shuffles of ``utterances``:
    ``train_runs`` of one group of the one config ``cfg``."""
    group = RunGroup(utterances, [cfg], init_rng, order_rng, init_model)
    return train_runs([group], dim_features, vocab_size)[0][0]


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
            # The layout and columns live only through this chunk's
            # forward and profiles, not beside the next chunk's.
            batch = np.arange(scored, scored + n)
            profiles = iter(padded_profiles(forward_columns(model, BatchLayout.of(packed, batch))))
            scored += n
        for u in chunk:
            conf = next(profiles).conditionals if u.tokens.size else np.zeros(0)
            out.append(replace(u, confidences=conf))
    return out
