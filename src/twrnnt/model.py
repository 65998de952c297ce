"""Minimal trainable transducer: affine+tanh encoder, embedding predictor,
additive joiner.  Deliberately tiny and recurrence-free so the exact
parameter gradient fits in one page and can be finite-difference checked.

Parameters live in one flat float64 vector with named slices, which keeps
optimizers and checkpoints trivial.  The predictor conditions on the
previous token only (row ``vocab_size`` of the embedding table is the
begin-of-sequence input used at u = 0).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DataError, NumericalError
from .kernels import PaddedColumns
from .lattice import (
    PosteriorLattice,
    Vocabulary,
    _row_logsumexp,
    as_labels,
    normalize_logits,
)

__all__ = [
    "TransducerModel",
    "AdamConfig",
    "param_layout",
    "param_count",
    "model_forward",
    "model_backward",
    "PackedUtterances",
    "BatchLayout",
    "StepActivations",
    "forward_columns",
    "backward_columns",
    "adam_update",
    "greedy_decode",
    "save_checkpoint",
    "load_checkpoint",
]

CHECKPOINT_FORMAT_VERSION = 1


def param_layout(dim_in: int, dim_hidden: int, vocab_size: int):
    """Name -> (start, stop, shape) slices into the flat parameter vector."""
    D, H, V = dim_in, dim_hidden, vocab_size
    shapes = [
        ("enc_w", (H, D)),
        ("enc_b", (H,)),
        ("emb", (V + 1, H)),  # one row per token plus the BOS row at index V
        ("pred_w", (H, H)),
        ("pred_b", (H,)),
        ("join_w", (V + 1, H)),
        ("join_b", (V + 1,)),
    ]
    layout = {}
    offset = 0
    for name, shape in shapes:
        size = int(np.prod(shape))
        layout[name] = (offset, offset + size, shape)
        offset += size
    return layout, offset


def param_count(dim_in: int, dim_hidden: int, vocab_size: int) -> int:
    return param_layout(dim_in, dim_hidden, vocab_size)[1]


def _views(flat: np.ndarray, layout) -> dict:
    """Name -> shaped view into a flat vector laid out by ``param_layout``."""
    return {
        name: flat[start:stop].reshape(shape)
        for name, (start, stop, shape) in layout.items()
    }


@dataclass(frozen=True)
class TransducerModel:
    dim_in: int
    dim_hidden: int
    vocab_size: int
    params: np.ndarray

    def __post_init__(self):
        layout, expected = param_layout(self.dim_in, self.dim_hidden, self.vocab_size)
        params = np.ascontiguousarray(np.asarray(self.params, dtype=np.float64))
        if params.shape != (expected,):
            raise DataError(
                f"parameter vector has shape {params.shape}, expected ({expected},) "
                f"for D={self.dim_in}, H={self.dim_hidden}, V={self.vocab_size}"
            )
        # With finite parameters and features the logits are finite, so the
        # network's own lattices need no re-check.
        bad = ~np.isfinite(params)
        if bad.any():
            i = int(np.argmax(bad))
            raise DataError(f"non-finite parameter {params[i]!r} at index {i}")
        object.__setattr__(self, "params", params)
        # The layout is fixed by the dimensions, so its views are built once.
        object.__setattr__(self, "_layout", layout)
        object.__setattr__(self, "_views", _views(params, layout))

    @property
    def vocab(self) -> Vocabulary:
        return Vocabulary(self.vocab_size)

    @property
    def bos(self) -> int:
        return self.vocab_size

    def slice(self, name: str) -> np.ndarray:
        return self._views[name]

    @classmethod
    def zeros(cls, dim_in: int, dim_hidden: int, vocab_size: int) -> "TransducerModel":
        n = param_count(dim_in, dim_hidden, vocab_size)
        return cls(dim_in, dim_hidden, vocab_size, np.zeros(n))

    @classmethod
    def random(
        cls, dim_in: int, dim_hidden: int, vocab_size: int, rng, scale: float = 0.5
    ) -> "TransducerModel":
        n = param_count(dim_in, dim_hidden, vocab_size)
        return cls(dim_in, dim_hidden, vocab_size, scale * rng.normal(size=n))


def _check_features(model: TransducerModel, features) -> np.ndarray:
    feats = np.asarray(features, dtype=np.float64)
    if feats.ndim != 2 or feats.shape[1] != model.dim_in:
        raise DataError(
            f"features must have shape (T, {model.dim_in}), got {feats.shape}"
        )
    if feats.shape[0] < 1:
        raise DataError("features need at least one frame")
    bad = ~np.isfinite(feats)
    if bad.any():
        t, d = np.argwhere(bad)[0]
        raise DataError(f"non-finite feature {feats[t, d]!r} at (t={t}, d={d})")
    return feats


# Nodes (b, t, u) per pass of the grouped forward and backward.  A desk
# batch (about 630 nodes) is one group, and a long lattice (about 1950) fills
# one alone.  Larger node matrices fall out of cache: without the bound, a
# training step on 8 long lattices took 33 ms instead of 29 ms (2-vCPU x86
# VM, one OpenBLAS thread).
#
# It also bounds what a training forward keeps for its backward
# (``StepActivations``): the joiner activations and row softmax of the first
# group if it ends within ``_GROUP_NODES`` nodes, (H + V + 1) floats a node,
# so at most 0.8 MB a run at H = 32 and V = 16.  Every desk batch fits;
# a batch of 8 long lattices (about 15,900 nodes) keeps its first group and
# recomputes the rest, where keeping every group would hold 6 MB a run.
_GROUP_NODES = 2048


def _ranges(starts, lengths) -> np.ndarray:
    """The concatenated index ranges starts[i] .. starts[i] + lengths[i] - 1."""
    ends = lengths.cumsum()
    return (starts + lengths - ends).repeat(lengths) + np.arange(ends[-1])


class PackedUtterances:
    """Features and label sequences of a set of utterances, checked once and
    stacked with each utterance's sizes and offsets, so that
    ``BatchLayout.of`` lays out any batch of them by index arithmetic alone.

    ``names`` label the utterances in error messages (default: their
    positions).  Non-finite or mis-shaped features and out-of-range labels
    raise a DataError that names the utterance.
    """

    def __init__(self, model: TransducerModel, features, tokens, names=None):
        features, tokens = list(features), list(tokens)
        if not features or len(features) != len(tokens):
            raise DataError(
                f"a batch needs one label sequence per utterance, got "
                f"{len(features)} feature tables and {len(tokens)} label sequences"
            )
        names = range(len(features)) if names is None else names
        vocab = model.vocab
        feats, labels = [], []
        for name, f, y in zip(names, features, tokens):
            try:
                feats.append(_check_features(model, f))
                labels.append(as_labels(y, vocab))
            except DataError as err:
                raise DataError(f"utterance {name}: {err}") from None
        self.T = np.array([f.shape[0] for f in feats], dtype=np.int64)
        self.U = np.array([y.size for y in labels], dtype=np.int64)
        self.feats = np.concatenate(feats)
        bos = np.array([model.bos], dtype=np.int64)
        # Predictor inputs: BOS, then the labels, per utterance.
        self.ids = np.concatenate([part for y in labels for part in (bos, y)])
        self.frame0 = np.cumsum(self.T) - self.T
        self.pos0 = np.cumsum(self.U + 1) - (self.U + 1)


class BatchLayout:
    """The (b, t, u) nodes of a batch of utterances in one flat layout, u
    fastest, for ``forward_columns`` and ``backward_columns``.

    Node n joins encoder frame ``frame[n]`` of the stacked ``feats`` with
    predictor position ``pos[n]`` of the stacked predictor inputs ``ids``
    (BOS, then the labels, per utterance).  ``blank_at`` and ``emit_at`` are
    its flat cells in padded (B, Tmax, Umax+1) and (B, Tmax, Umax) column
    tables; ``emit_rows`` are the nodes with u < U and ``emit_label`` their
    labels.  ``groups`` holds (n0, n1, m0, m1) ranges of nodes and emit rows
    for runs of consecutive utterances with at most ``_GROUP_NODES`` nodes,
    or one larger utterance.

    ``BatchLayout(model, features, tokens)`` checks and packs its arguments;
    ``BatchLayout.of(packed, idx)`` lays out utterances ``idx`` (repeats
    allowed) of a ``PackedUtterances`` without checking them again.
    """

    def __init__(self, model: TransducerModel, features, tokens):
        packed = PackedUtterances(model, features, tokens)
        self._fill(packed, np.arange(packed.T.size))

    @classmethod
    def of(cls, packed: PackedUtterances, idx) -> "BatchLayout":
        layout = cls.__new__(cls)
        layout._fill(packed, np.asarray(idx, dtype=np.int64))
        return layout

    def _fill(self, packed: PackedUtterances, idx):
        # Array methods rather than their np.* wrappers: a desk batch has
        # about 650 nodes, where the wrappers' call overhead is a good part
        # of each operation's cost.
        self.T, self.U = T, U = packed.T[idx], packed.U[idx]
        W = U + 1
        sizes = T * W
        self.feats = packed.feats[_ranges(packed.frame0[idx], T)]
        self.ids = packed.ids[_ranges(packed.pos0[idx], W)]
        start = np.zeros(sizes.size + 1, dtype=np.int64)
        sizes.cumsum(out=start[1:])
        b = np.arange(sizes.size).repeat(sizes)
        k = np.arange(start[-1]) - start[b]  # node index within its utterance
        t, u = np.divmod(k, W[b])
        self.frame = (T.cumsum() - T)[b] + t
        self.pos = (W.cumsum() - W)[b] + u
        row = b * int(T.max()) + t
        Umax = int(U.max())
        self.blank_at = row * (Umax + 1) + u
        emit = u < U[b]
        self.emit_rows = emit.nonzero()[0]
        self.emit_at = (row * Umax + u)[emit]
        self.emit_label = self.ids[self.pos[emit] + 1]
        # Segment starts of the backward pass's per-frame and per-position
        # sums: nodes are frame-major, and ``by_pos`` lists them
        # position-major, each position's T nodes in a run.
        self.frame_first = (u == 0).nonzero()[0]
        # Position-major, an utterance's k-th node is (t, u) = (k % T, k // T).
        q, r = np.divmod(k, T[b])
        self.by_pos = r * W[b] + q + start[b]
        runs = T.repeat(W)
        self.pos_first = runs.cumsum() - runs
        cuts, nodes = [0], 0
        for i, size in enumerate(sizes.tolist()):
            if nodes and nodes + size > _GROUP_NODES:
                cuts.append(i)
                nodes = 0
            nodes += size
        cuts.append(sizes.size)
        n = start[cuts]
        m = self.emit_rows.searchsorted(n)
        self.groups = list(zip(n[:-1], n[1:], m[:-1], m[1:]))
        self.max_group = int((n[1:] - n[:-1]).max())


def _encode(model: TransducerModel, layout: BatchLayout):
    """The parameter views, the encoder output of every frame, and the
    predictor inputs and outputs of every label position."""
    p = model._views
    enc = np.tanh(layout.feats @ p["enc_w"].T + p["enc_b"])
    rows = p["emb"][layout.ids]
    pred = np.tanh(rows @ p["pred_w"].T + p["pred_b"])
    return p, enc, rows, pred


def _join(p, enc, pred, layout: BatchLayout, n0, n1, z, scratch):
    """Joiner activations and raw logits of nodes n0..n1-1.  The activations
    are written to the first n1 - n0 rows of ``z``, and ``scratch`` is a
    buffer of as many rows, so that a group's large temporaries are
    allocated once per pass."""
    z, scratch = z[: n1 - n0], scratch[: n1 - n0]
    # The layout's indices are in range by construction; mode="clip" spares
    # np.take the buffered copy it makes to check them.
    np.take(enc, layout.frame[n0:n1], axis=0, out=z, mode="clip")
    z += np.take(pred, layout.pos[n0:n1], axis=0, out=scratch, mode="clip")
    np.tanh(z, out=z)
    logits = z @ p["join_w"].T
    logits += p["join_b"]
    return z, logits


def _softmax(logits, out):
    """The row softmax of ``logits``, written to ``out`` (which may be
    ``logits``) as e / s, where e = exp(logits - m), m is the row maximum
    and s the row sum of e.  Returns (m, s): m + log(s) is
    ``_row_logsumexp(logits)`` bit for bit."""
    m = logits.max(axis=-1, keepdims=True)
    np.subtract(logits, m, out=out)
    np.exp(out, out=out)
    s = out.sum(axis=-1, keepdims=True)
    out /= s
    return m, s


def _work(layout: BatchLayout, enc):
    """The two (n, H) node buffers that ``_join`` and ``_backward`` reuse
    across groups."""
    return np.empty((2, layout.max_group, enc.shape[1]))


class StepActivations:
    """What a training run's ``forward_columns`` keeps for its
    ``backward_columns`` in the same step, so that the backward does not
    run the network again: the parameter views, the encoder output, the
    predictor inputs and outputs, and, if the first node group ends within
    ``_GROUP_NODES`` nodes, its joiner activations z and its row softmax.
    Later groups are recomputed by the backward.

    The buffers are allocated once and reused at every step.  A backward
    consumes what its forward kept: it must follow that forward, with the
    same model and layout and before the parameters change.  The scratch
    node buffers of both passes stay per call (``_work``): held for a run,
    they would also be held through the DP, where they raised the
    ``corruption`` benchmark's peak RSS by 0.7 MB and saved at most 2% of a
    stacked step.
    """

    def __init__(self, model: TransducerModel):
        H, V = model.dim_hidden, model.vocab_size
        self.z = np.empty((_GROUP_NODES, H))
        self.softmax = np.empty((_GROUP_NODES, V + 1))
        self.nodes = 0
        self._held = None

    def _hold(self, model, layout, encoded) -> int:
        """Record a forward's network state; returns the number of leading
        nodes whose activations it keeps.  Only the first group can end
        within ``_GROUP_NODES`` nodes: a second one starts because the
        first and its next utterance would not fit."""
        self._held = (model, layout, encoded)
        n1 = layout.groups[0][1]
        self.nodes = n1 if n1 <= _GROUP_NODES else 0
        return self.nodes

    def _release(self, model, layout):
        """The kept encoder and predictor state of this model and layout,
        which the caller then consumes."""
        held = self._held
        if held is None or held[0] is not model or held[1] is not layout:
            raise DataError("no activations kept by a forward of this model and batch")
        self._held = None
        return held[2]


def model_forward(model: TransducerModel, features, tokens) -> PosteriorLattice:
    """Joint logits for every (t, u) node, log-softmax normalized.  The
    single-utterance case of ``forward_columns``."""
    layout = BatchLayout(model, [features], [tokens])
    p, enc, _, pred = _encode(model, layout)
    _, logits = _join(p, enc, pred, layout, 0, layout.frame.size, *_work(layout, enc))
    T, U = int(layout.T[0]), int(layout.U[0])
    return normalize_logits(logits.reshape(T, U + 1, -1))


def _column_shapes(layout: BatchLayout):
    B, Tmax, Umax = layout.T.size, int(layout.T.max()), int(layout.U.max())
    return (B, Tmax, Umax + 1), (B, Tmax, Umax)


def forward_columns(
    model: TransducerModel,
    layout: BatchLayout,
    out: Optional[PaddedColumns] = None,
    keep: Optional[StepActivations] = None,
) -> PaddedColumns:
    """Blank and label log-probability columns of a batch of utterances.

    One network pass per group of nodes, written straight into padded
    columns for ``kernels.emission_sweep``; equal to ``model_forward`` of
    each utterance up to matrix-product rounding.  The logits are bounded by
    tanh, so the rows skip ``normalize_logits``'s input checks.  ``out``,
    if given, is a ``-inf``-filled batch of the layout's shape (such as rows
    of a larger one, ``PaddedColumns.rows``) to write to and return.
    ``keep``, if given, keeps this pass's activations for
    ``backward_columns`` (``StepActivations``); the columns are the same.
    """
    if out is None:
        cols = PaddedColumns(layout.T, layout.U)
    else:
        shapes = _column_shapes(layout)
        if (out.blank.shape, out.emit.shape) != shapes:
            raise DataError(
                f"column tables have shapes {out.blank.shape} and {out.emit.shape}, "
                f"expected {shapes[0]} and {shapes[1]}"
            )
        cols = out
    blank, emit = cols.blank.reshape(-1), cols.emit.reshape(-1)
    encoded = _encode(model, layout)
    p, enc, _, pred = encoded
    work = _work(layout, enc)
    nodes = 0 if keep is None else keep._hold(model, layout, encoded)
    for n0, n1, m0, m1 in layout.groups:
        if n1 <= nodes:
            _, logits = _join(p, enc, pred, layout, n0, n1, keep.z[n0:n1], work[1])
            m, s = _softmax(logits, keep.softmax[n0:n1])
            lse = (m + np.log(s))[:, 0]
        else:
            _, logits = _join(p, enc, pred, layout, n0, n1, *work)
            lse = _row_logsumexp(logits)[:, 0]
        blank[layout.blank_at[n0:n1]] = logits[:, -1] - lse
        r = layout.emit_rows[m0:m1] - n0
        emit[layout.emit_at[m0:m1]] = logits[r, layout.emit_label[m0:m1]] - lse[r]
    return cols


def _backward(
    model: TransducerModel, layout: BatchLayout, dlogp_rows, kept=None
) -> np.ndarray:
    """Chain rule from per-node lattice gradients to the parameters, one
    pass per group; ``dlogp_rows(n0, n1, m0, m1)`` returns a new dense
    (n1 - n0, V+1) array of a group's rows.  Exact, float64.

    With ``kept`` (a ``StepActivations`` filled by the forward of this
    model and layout), the encoder and predictor state comes from that
    forward, and so do the joiner activations and softmax of the group it
    kept; the kept buffers are overwritten.  Other groups are recomputed, as is everything without
    ``kept``.  The arithmetic is the same either way, so is the gradient.
    """
    if kept is None:
        p, enc, rows, pred = _encode(model, layout)
        nodes = 0
    else:
        p, enc, rows, pred = kept._release(model, layout)
        nodes = kept.nodes
    work = _work(layout, enc)
    grad = np.zeros_like(model.params)
    g = _views(grad, model._layout)
    denc = np.empty_like(enc)
    dpred = np.empty_like(pred)
    for n0, n1, m0, m1 in layout.groups:
        if n1 <= nodes:
            z, softmax = kept.z[n0:n1], kept.softmax[n0:n1]
        else:
            z, softmax = _join(p, enc, pred, layout, n0, n1, *work)
            _softmax(softmax, softmax)
        dlogit = dlogp_rows(n0, n1, m0, m1)
        # d loss / d logit through the row log-softmax:
        # dlogp - softmax * sum(dlogp), built in ``softmax``.
        softmax *= dlogit.sum(axis=-1, keepdims=True)
        dlogit -= softmax
        g["join_w"] += dlogit.T @ z
        g["join_b"] += dlogit.sum(axis=0)
        # dpre = dz * (1 - z^2), in ``z`` and the second work buffer.
        dpre = np.matmul(dlogit, p["join_w"], out=work[1][: n1 - n0])
        np.multiply(z, z, out=z)
        np.subtract(1.0, z, out=z)
        dpre *= z
        f0, f1 = layout.frame[n0], layout.frame[n1 - 1] + 1
        denc[f0:f1] = np.add.reduceat(dpre, layout.frame_first[f0:f1] - n0, axis=0)
        q0, q1 = layout.pos[n0], layout.pos[n1 - 1] + 1
        by_pos = np.take(dpre, layout.by_pos[n0:n1] - n0, axis=0, out=z, mode="clip")
        dpred[q0:q1] = np.add.reduceat(by_pos, layout.pos_first[q0:q1] - n0, axis=0)
    denc_pre = denc * (1.0 - enc * enc)
    g["enc_w"][...] = denc_pre.T @ layout.feats
    g["enc_b"][...] = denc_pre.sum(axis=0)
    dpred_pre = dpred * (1.0 - pred * pred)
    g["pred_w"][...] = dpred_pre.T @ rows
    g["pred_b"][...] = dpred_pre.sum(axis=0)
    np.add.at(g["emb"], layout.ids, dpred_pre @ p["pred_w"])
    return grad


def model_backward(
    model: TransducerModel, features, tokens, dL_dlogp
) -> np.ndarray:
    """Chain-rule parameter gradient of any scalar loss, given its gradient
    with respect to the lattice log-probabilities.  Exact, float64.  The
    single-utterance case of ``backward_columns``."""
    layout = BatchLayout(model, [features], [tokens])
    dlogp = np.asarray(dL_dlogp, dtype=np.float64)
    shape = (int(layout.T[0]), int(layout.U[0]) + 1, model.vocab_size + 1)
    if dlogp.shape != shape:
        raise DataError(f"lattice gradient has shape {dlogp.shape}, expected {shape}")
    flat = dlogp.reshape(-1, shape[2])
    return _backward(model, layout, lambda n0, n1, m0, m1: flat[n0:n1].copy())


def backward_columns(
    model: TransducerModel,
    layout: BatchLayout,
    g_blank,
    g_emit,
    kept: Optional[StepActivations] = None,
) -> np.ndarray:
    """Parameter gradient of a batch loss, given its gradients with respect
    to the padded blank and label columns (``kernels.weighted_grad``).

    Equal to the sum of ``model_backward`` over the batch's dense lattice
    gradients (``kernels.dense_grad``) up to matrix-product rounding, without
    building them.  ``kept``, if given, holds the activations that
    ``forward_columns`` kept for this model and layout (a DataError if it
    holds none), which this call consumes; the gradient is the same.
    """
    gb = np.asarray(g_blank, dtype=np.float64)
    ge = np.asarray(g_emit, dtype=np.float64)
    shapes = _column_shapes(layout)
    if (gb.shape, ge.shape) != shapes:
        raise DataError(
            f"column gradients have shapes {gb.shape} and {ge.shape}, expected "
            f"{shapes[0]} and {shapes[1]}"
        )
    gb, ge = gb.reshape(-1), ge.reshape(-1)

    def dlogp_rows(n0, n1, m0, m1):
        d = np.zeros((n1 - n0, model.vocab_size + 1))
        d[:, -1] = gb[layout.blank_at[n0:n1]]
        d[layout.emit_rows[m0:m1] - n0, layout.emit_label[m0:m1]] = ge[layout.emit_at[m0:m1]]
        return d

    return _backward(model, layout, dlogp_rows, kept)


def _finite_grad(grad) -> np.ndarray:
    """The gradient as float64; NaN or +-inf anywhere raises NumericalError,
    since one such entry would turn the parameters into NaN."""
    g = np.asarray(grad, dtype=np.float64)
    bad = ~np.isfinite(g)
    if bad.any():
        i = int(np.argmax(bad))
        raise NumericalError(
            f"non-finite gradient entry {g.flat[i]!r} at index {i}; no update applied"
        )
    return g


@dataclass(frozen=True)
class AdamConfig:
    lr: float = 1e-2
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    def __post_init__(self):
        if self.lr <= 0:
            raise DataError(f"learning rate must be positive, got {self.lr}")


def adam_update(params, m, v, grad, step: int, hyper: AdamConfig) -> None:
    """Adam step ``step`` (1 for the first) on ``params`` and its moments
    ``m`` and ``v``, in place; any shape, elementwise.  A non-finite
    gradient raises NumericalError before anything is touched."""
    g = _finite_grad(grad)
    m *= hyper.beta1
    m += (1.0 - hyper.beta1) * g
    v *= hyper.beta2
    v += (1.0 - hyper.beta2) * g * g
    m_hat = m / (1.0 - hyper.beta1**step)
    v_hat = v / (1.0 - hyper.beta2**step)
    params -= hyper.lr * m_hat / (np.sqrt(v_hat) + hyper.eps)


def greedy_decode(
    model: TransducerModel, features, max_symbols_per_frame: int = 4
):
    """Frame-synchronous greedy decoding.

    At each frame, emit argmax tokens (advancing the predictor) until blank
    wins or ``max_symbols_per_frame`` symbols have been emitted, then move to
    the next frame.  Returns (tokens, clean) where ``clean`` is False when
    any frame hit the emission cap.

    The decode runs ahead.  The predictor state changes only when a label is
    emitted, so once blank has won under a state (and at BOS), one joiner
    pass scores every remaining frame under it, and the decode jumps to the
    first frame where a label wins, or ends if none does.  A state set by an
    emission is scored at its own frame only, since "emit again here?" is
    the one question it must answer there; after a cap-forced advance, at
    the next frame only.  On a trained model this makes about two small
    passes per emitted token instead of one per (frame, symbol) step.  It
    never makes more passes than such a loop makes steps: a model that emits
    at every step scores one row per step, as the loop does, but one that
    emits once per frame rescans the frames left after every blank.

    Confidence scores for pseudo-labels are NOT taken from this pass; score
    the hypothesis with ``training.score_confidences`` afterwards.
    """
    if max_symbols_per_frame < 1:
        raise DataError(
            f"max_symbols_per_frame must be >= 1, got {max_symbols_per_frame}"
        )
    feats = _check_features(model, features)
    enc = np.tanh(feats @ model.slice("enc_w").T + model.slice("enc_b"))
    pred_w, pred_b = model.slice("pred_w"), model.slice("pred_b")
    join_w, join_b = model.slice("join_w"), model.slice("join_b")
    emb = model.slice("emb")
    blank = model.vocab_size

    def pred_state(token_id):
        return np.tanh(pred_w @ emb[token_id] + pred_b)

    cur = pred_state(model.bos)
    out = []
    clean = True
    t, T = 0, feats.shape[0]
    emitted = 0  # labels emitted at frame t
    ahead = True  # blank has won under ``cur`` (or it is BOS): scan frames t..T-1
    while t < T:
        if ahead:
            ks = (np.tanh(enc[t:] + cur) @ join_w.T + join_b).argmax(axis=1).tolist()
            for j, k in enumerate(ks):
                if k != blank:
                    break
            else:
                break
            t += j
        else:
            k = int((join_w @ np.tanh(enc[t] + cur) + join_b).argmax())
            if k == blank:
                t, emitted, ahead = t + 1, 0, True
                continue
        out.append(k)
        cur = pred_state(k)
        ahead = False
        emitted += 1
        if emitted >= max_symbols_per_frame:
            clean = False
            t, emitted = t + 1, 0
    return np.asarray(out, dtype=np.int64), clean


def save_checkpoint(path, model: TransducerModel, meta: Optional[dict] = None) -> None:
    """Versioned JSON checkpoint; float64 values round-trip exactly."""
    obj = {
        "format_version": CHECKPOINT_FORMAT_VERSION,
        "kind": "twrnnt-checkpoint",
        "dim_in": model.dim_in,
        "dim_hidden": model.dim_hidden,
        "vocab_size": model.vocab_size,
        "params": [float(x) for x in model.params],
        "meta": meta or {},
    }
    with open(path, "w") as fh:
        json.dump(obj, fh)


def load_checkpoint(path):
    """Returns (model, meta).  An ``optimizer`` block, which older
    checkpoints carry, is ignored."""
    with open(path) as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise DataError(f"{path}: invalid JSON: {exc}") from None
    if not isinstance(obj, dict) or obj.get("kind") != "twrnnt-checkpoint":
        raise DataError(f"{path} is not a model checkpoint")
    if obj.get("format_version") != CHECKPOINT_FORMAT_VERSION:
        raise DataError(
            f"unsupported checkpoint format_version {obj.get('format_version')!r}"
        )
    try:
        model = TransducerModel(
            dim_in=int(obj["dim_in"]),
            dim_hidden=int(obj["dim_hidden"]),
            vocab_size=int(obj["vocab_size"]),
            params=np.asarray(obj["params"], dtype=np.float64),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"{path}: malformed checkpoint: {exc!r}") from None
    return model, obj.get("meta", {})
