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

from .errors import DataError, NumericalError, check_count, check_list
from .kernels import PaddedColumns
from .lattice import PosteriorLattice, Vocabulary, as_labels, normalize_logits

__all__ = [
    "TransducerModel",
    "param_layout",
    "param_count",
    "model_forward",
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
# A training forward keeps, for its backward (``StepActivations``), the
# joiner activations z and the row softmax of every join (b, t, id) of the
# batch: H + V + 1 floats a join, 49 at H = 32 and V = 16.  That is 0.2 MB a
# run for a desk batch (0.86-0.96 joins a node) and 3.4 MB for a batch of 8
# long lattices (about 15,900 nodes, 0.54 joins a node).  The backward
# overwrites them in place, one group of joins at a time, so its one
# scratch buffer stays bounded by the group size.
_GROUP_NODES = 2048


def _ranges(starts, lengths) -> np.ndarray:
    """The concatenated index ranges starts[i] .. starts[i] + lengths[i] - 1."""
    ends = lengths.cumsum()
    return (starts + lengths - ends).repeat(lengths) + np.arange(ends[-1])


class PackedUtterances:
    """Features and label sequences of a set of utterances, checked once and
    stacked with each utterance's sizes and offsets, so that
    ``BatchLayout.of`` lays out any batch of them by index arithmetic alone.

    The predictor sees only the previous token, so two positions of one
    utterance with the same id feed the joiner the same input at every
    frame.  ``first_use`` gives, for each position, the level u of the first
    position of its utterance with the same id: the joins (b, t, id) of an
    utterance are numbered in first-use order, and one without a repeated
    input has one join per node, in node order.

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
        # One key per (utterance, id); np.unique's index of a key is its
        # first position.
        utt = np.arange(self.T.size).repeat(self.U + 1)
        keys = utt * (model.vocab_size + 1) + self.ids
        _, first, key = np.unique(keys, return_index=True, return_inverse=True)
        self.first_use = first[key] - self.pos0[utt]


class BatchLayout:
    """The (b, t, u) nodes of a batch of utterances in one flat layout, u
    fastest, for ``forward_columns`` and ``backward_columns``.

    Node n joins encoder frame ``frame[n]`` of the stacked ``feats`` with
    predictor position ``pos[n]`` of the stacked predictor inputs ``ids``
    (BOS, then the labels, per utterance).  Node (b, t, u) has diagonal
    ``diag`` = t + u, row ``row`` = b and level ``level`` = u: in the
    diagonal-major column tables of ``kernels.PaddedColumns`` its blank
    column sits at [t + u, b, u] and its label column one cell on, at
    [t + u, b, u + 1] (``cells`` gives their flat offsets when the batch is
    rows row0.. of larger tables); ``emit_rows`` are the nodes with u < U
    and ``emit_label`` their labels.
    ``groups`` holds (n0, n1, m0, m1) ranges of nodes and emit rows for runs
    of consecutive utterances with at most ``_GROUP_NODES`` nodes, or one
    larger utterance.

    Nodes of one utterance and frame whose predictor inputs have one id
    share a join (b, t, id) (``PackedUtterances.first_use``): node n reads
    the joiner's output of join ``node_join[n]``, and ``emit_join`` are the
    joins of ``emit_rows``.  Join j joins frame ``join_frame[j]`` with
    position ``join_pos[j]``, its id's first use; joins follow their first
    nodes, so ``join_groups`` holds one (j0, j1) range per node group, and
    every frame of an utterance has the same joins (``_order`` lays out the
    backward's per-frame and per-position sums over them).

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
        positions = _ranges(packed.pos0[idx], W)
        self.ids = packed.ids[positions]
        start = np.zeros(sizes.size + 1, dtype=np.int64)
        sizes.cumsum(out=start[1:])
        b = np.arange(sizes.size).repeat(sizes)
        node = np.arange(start[-1])
        k = node - start[b]  # node index within its utterance
        t, u = np.divmod(k, W[b])
        self.frame = (T.cumsum() - T)[b] + t
        self.pos = (W.cumsum() - W)[b] + u
        self.diag, self.row, self.level = t + u, b, u
        emit = u < U[b]
        self.emit_rows = emit.nonzero()[0]
        self.emit_label = self.ids[self.pos[emit] + 1]
        # A node represents its join (b, t, id) when u is its id's first
        # use, and node n joins as node n - u + first_use does; joins are
        # numbered by their representatives, joins[n] of them before node n.
        first = packed.first_use[positions][self.pos]
        rep = first == u
        joins = np.zeros(rep.size + 1, dtype=np.int64)
        rep.cumsum(out=joins[1:])
        self.node_join = joins[node - u + first]
        self.emit_join = self.node_join[self.emit_rows]
        reps = rep.nonzero()[0]
        self.join_frame, self.join_pos = self.frame[reps], self.pos[reps]
        # First use depends on u alone, so every frame of an utterance has
        # the same joins, in the same order.
        join0 = joins[start]
        self._order((join0[1:] - join0[:-1]) // T, join0[:-1])
        cuts, nodes = [0], 0
        for i, size in enumerate(sizes.tolist()):
            if nodes and nodes + size > _GROUP_NODES:
                cuts.append(i)
                nodes = 0
            nodes += size
        cuts.append(sizes.size)
        n = start[cuts]
        m = self.emit_rows.searchsorted(n)
        j = joins[n]
        self.groups = list(zip(n[:-1], n[1:], m[:-1], m[1:]))
        self.join_groups = list(zip(j[:-1], j[1:]))
        self.max_join_group = int((j[1:] - j[:-1]).max())
        self._cells = None

    def _order(self, R, join0):
        """The backward's segment tables, for utterances of R joins a frame
        whose joins start at ``join0``: utterance b's k-th join is (t, r) =
        divmod(k, R_b), frame-major.  ``frame_first`` is each frame's first
        join; ``by_pos`` lists the joins position-major, (r, t) = divmod(k,
        T_b), each id's T_b joins in a run that starts at ``pos_first``; and
        ``use_pos`` is each run's position, its id's first use."""
        runs = R.repeat(self.T)
        self.frame_first = runs.cumsum() - runs
        b = np.arange(R.size).repeat(R * self.T)
        r, t = np.divmod(np.arange(b.size) - join0[b], self.T[b])
        self.by_pos = join0[b] + t * R[b] + r
        runs = self.T.repeat(R)
        self.pos_first = runs.cumsum() - runs
        self.use_pos = self.join_pos[self.by_pos[self.pos_first]]

    def cells(self, rows, width):
        """The flat offsets of every node's blank column, and of the label
        columns of ``emit_rows``, when the batch is the first rows of two
        diagonal-major tables of ``rows`` rows and ``width`` levels: each
        diagonal is a slab of ``rows * width`` cells, so the number of
        diagonals does not enter.  At rows row0.. the offsets are
        row0 * width cells further on.  They are computed once per table
        shape, since the runs of a lockstep step share their batch's
        layout and tables."""
        if self._cells is None or self._cells[0] != (rows, width):
            blank_at = (self.diag * rows + self.row) * width + self.level
            self._cells = ((rows, width), blank_at, blank_at[self.emit_rows] + 1)
        return self._cells[1:]


def _encode(model: TransducerModel, layout: BatchLayout):
    """The parameter views, the encoder output of every frame, and the
    predictor inputs and outputs of every label position."""
    p = model._views
    enc = np.tanh(layout.feats @ p["enc_w"].T + p["enc_b"])
    rows = p["emb"][layout.ids]
    pred = np.tanh(rows @ p["pred_w"].T + p["pred_b"])
    return p, enc, rows, pred


def _join(p, enc, pred, frames, positions, z, scratch):
    """Joiner activations z = tanh(enc[frames] + pred[positions]), written
    to the first rows of ``z``, and their raw logits; ``scratch`` is a
    buffer of as many rows, so that a group's large temporaries are
    allocated once per pass."""
    n = frames.size
    z, scratch = z[:n], scratch[:n]
    # The layout's indices are in range by construction; mode="clip" spares
    # np.take the buffered copy it makes to check them.
    np.take(enc, frames, axis=0, out=z, mode="clip")
    z += np.take(pred, positions, axis=0, out=scratch, mode="clip")
    np.tanh(z, out=z)
    logits = z @ p["join_w"].T
    logits += p["join_b"]
    return z, logits


def _pairwise_sum(rows):
    """The sum over the first axis of ``rows`` (k, n), added in the order in
    which NumPy's pairwise summation adds a contiguous row of k values, as
    ``np.sum(axis=-1)`` does for each row of a C-contiguous table
    (``pairwise_sum`` in NumPy's ``loops_utils.h.src``): below 8 values in
    order; up to 128, 8 running partial sums over blocks of 8, their tree
    ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7)), then the values left
    over; above 128, the two halves split at a multiple of 8, each summed
    recursively.  So the sums equal ``rows.T.sum(axis=-1)`` bit for bit, up
    to the sign of a sum of zeros, while every addition runs along a vector
    of n.  ``tests/test_model.py::TestPairwiseSum`` pins the order."""
    k = rows.shape[0]
    if k < 8:
        s = rows[0].copy()
        for row in rows[1:]:
            s += row
        return s
    if k > 128:
        half = k // 2 - k // 2 % 8
        return _pairwise_sum(rows[:half]) + _pairwise_sum(rows[half:])
    r = rows[:8].copy()
    tail = k - k % 8
    for i in range(8, tail, 8):
        r += rows[i : i + 8]
    r = r[0::2] + r[1::2]
    r = r[0::2] + r[1::2]
    s = r[0] + r[1]
    for row in rows[tail:]:
        s += row
    return s


def _kept_softmax(logits, scratch, out=None):
    """The log-normaliser m + log(s) (n,) of each row of ``logits`` (n,
    V+1), where m is the row maximum and s the row sum of e = exp(logits -
    m), and, given ``out``, the row softmax e / s written to it.  It runs
    along the V + 1 rows of the transposed copy in ``scratch`` (a buffer of
    at least n columns) rather than along n rows of V + 1, with the row sums
    of ``_pairwise_sum``, so it equals ``lattice._row_logsumexp`` and the
    plain row softmax bit for bit (``tests/test_model.py::TestKeptSoftmax``)."""
    e = scratch[:, : logits.shape[0]]
    np.copyto(e, logits.T)
    m = e.max(axis=0)
    e -= m
    np.exp(e, out=e)
    s = _pairwise_sum(e)
    if out is not None:
        e /= s
        np.copyto(out, e.T)
    return m + np.log(s)


def _work(rows, enc):
    """Two (rows, H) buffers that ``_join`` reuses across groups."""
    return np.empty((2, rows, enc.shape[1]))


class StepActivations:
    """What a forward (``forward_columns``) keeps for the backward
    (``_backward``) that follows it, so that the backward does not run the
    joiner again.  Every backward follows its kept forward; a training run
    reuses its own at every step.  It holds the parameter views, the
    encoder output, the predictor inputs and outputs, and for every join
    (b, t, id) of the batch (``BatchLayout.node_join``), in join order, its
    joiner activations z (H floats) and its row softmax (V + 1 floats; the
    forward computes it along vectors of a group's joins,
    ``_kept_softmax``).  The backward builds each join's logit gradient in
    its softmax row and 1 - z^2 in its z row.

    The buffers are allocated once and reused at every step; they grow to
    the most joins of any batch the run draws.  A backward consumes what its
    forward kept, and overwrites it: it must follow that forward, with the
    same model and layout and before the parameters change.  The scratch
    buffers of both passes stay per call (``_work``): held for a run, they
    would also be held through the DP, where they raised the ``corruption``
    benchmark's peak RSS by 0.7 MB and saved at most 2% of a stacked step.
    """

    def __init__(self, model: TransducerModel):
        H, V = model.dim_hidden, model.vocab_size
        self.z = np.empty((0, H))
        self.softmax = np.empty((0, V + 1))
        self._held = None

    def _hold(self, model, layout, encoded) -> None:
        """Record a forward's network state and make room for the z and
        softmax of every join."""
        self._held = (model, layout, encoded)
        joins = layout.join_frame.size
        if self.softmax.shape[0] < joins:
            self.z = np.empty((joins, self.z.shape[1]))
            self.softmax = np.empty((joins, self.softmax.shape[1]))

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
    _, logits = _join(p, enc, pred, layout.frame, layout.pos, *_work(layout.frame.size, enc))
    T, U = int(layout.T[0]), int(layout.U[0])
    return normalize_logits(logits.reshape(T, U + 1, -1))


def _check_tables(layout: BatchLayout, blank, emit, what, row0):
    """Raise a DataError unless the diagonal-major ``blank`` and ``emit``
    tables have one shape and can hold the layout's batch at rows row0..:
    at least the diagonals and levels it needs."""
    B, Tmax, Umax = layout.T.size, int(layout.T.max()), int(layout.U.max())
    D, rows, W = blank.shape if blank.ndim == 3 else (0, 0, 0)
    if emit.shape != blank.shape or D < Tmax + Umax or not 0 <= row0 <= rows - B or W <= Umax:
        raise DataError(
            f"{what} have shapes {blank.shape} and {emit.shape}, which cannot hold "
            f"{B} rows from row {row0} of two ({Tmax + Umax}, {B}, {Umax + 1}) "
            f"tables"
        )


def forward_columns(
    model: TransducerModel,
    layout: BatchLayout,
    out: Optional[PaddedColumns] = None,
    keep: Optional[StepActivations] = None,
    row0: int = 0,
) -> PaddedColumns:
    """Blank and label log-probability columns of a batch of utterances.

    One network pass per group of nodes, over the group's joins (b, t, id):
    the nodes of one utterance and frame whose predictor inputs have the
    same id share the joiner's input, so the joiner (tanh, logits and
    log-normaliser) runs once per join, and each node's columns are read
    from its join (``BatchLayout.node_join``).  The columns are written
    straight into the two diagonal-major column tables of one shape that
    ``kernels.emission_sweep`` sweeps (at the offsets of
    ``BatchLayout.cells``); equal to ``model_forward`` of each utterance up
    to matrix-product rounding.  The logits are bounded by tanh, so the rows
    skip ``normalize_logits``'s input checks.  ``out``, if given, is a
    ``-inf``-filled batch whose rows row0.. the layout's batch fills, and
    which is returned; its tables may have more rows, diagonals and levels
    than the layout needs (such as a lockstep step's, padded to its longest
    utterances).  Without ``out``, the batch gets tables of its own, and
    ``row0`` must be 0.  Each group's log-normaliser m + log(s) comes from
    ``_kept_softmax``, which equals ``lattice._row_logsumexp`` bit for bit.
    ``keep``, if given, keeps this pass's activations for
    ``backward_columns`` (``StepActivations``), the z and row softmax of
    every join included; the columns are the same either way.
    """
    cols = PaddedColumns(layout.T, layout.U) if out is None else out
    _check_tables(layout, cols.blank, cols.emit, "column tables", row0)
    _, rows, width = cols.blank.shape
    blank, emit = cols.blank.reshape(-1)[row0 * width :], cols.emit.reshape(-1)[row0 * width :]
    blank_at, emit_at = layout.cells(rows, width)
    encoded = _encode(model, layout)
    p, enc, _, pred = encoded
    work = _work(layout.max_join_group, enc)
    if keep is not None:
        keep._hold(model, layout, encoded)
    scratch = np.empty((model.vocab_size + 1, layout.max_join_group))
    for (n0, n1, m0, m1), (j0, j1) in zip(layout.groups, layout.join_groups):
        z = work[0] if keep is None else keep.z[j0:j1]
        frames, positions = layout.join_frame[j0:j1], layout.join_pos[j0:j1]
        _, logits = _join(p, enc, pred, frames, positions, z, work[1])
        lse = _kept_softmax(logits, scratch, None if keep is None else keep.softmax[j0:j1])
        blank_lp = logits[:, -1] - lse
        blank[blank_at[n0:n1]] = blank_lp[layout.node_join[n0:n1] - j0]
        r = layout.emit_join[m0:m1] - j0
        emit[emit_at[m0:m1]] = logits[r, layout.emit_label[m0:m1]] - lse[r]
    return cols


def _backward(
    model: TransducerModel, layout: BatchLayout, dlogit_rows, kept: StepActivations
) -> np.ndarray:
    """Chain rule from per-node lattice gradients to the parameters, one
    pass per group, over the group's joins; ``dlogit_rows(softmax, n0, n1,
    m0, m1, j0)`` returns the (j1 - j0, V+1) gradient of the logits of joins
    j0.. through the row log-softmax, the sum over each join's nodes of
    dlogp - softmax * sum(dlogp), and may build it in ``softmax``, the
    joins' row softmax.  Exact, float64.

    The encoder and predictor state, and every join's joiner activations z
    and row softmax, come from ``kept``, a ``StepActivations`` filled by the
    forward of this model and layout, which this pass overwrites: no joiner
    product or softmax runs.  A join's nodes share its frame, so the
    encoder sums are those of the nodes, and its predictor input, so its
    predictor gradient goes to its id's first use (``use_pos``) and the
    other positions get 0; the same sums, regrouped.
    """
    p, enc, rows, pred = kept._release(model, layout)
    work = np.empty((layout.max_join_group, enc.shape[1]))
    grad = np.zeros_like(model.params)
    g = _views(grad, model._layout)
    denc = np.empty_like(enc)
    dpred = np.zeros_like(pred)
    for (n0, n1, m0, m1), (j0, j1) in zip(layout.groups, layout.join_groups):
        dlogit = dlogit_rows(kept.softmax[j0:j1], n0, n1, m0, m1, j0)
        z = kept.z[j0:j1]
        g["join_w"] += dlogit.T @ z
        g["join_b"] += dlogit.sum(axis=0)
        # dpre = dz * (1 - z^2), in the work buffer; 1 - z^2 in ``z``.
        dpre = np.matmul(dlogit, p["join_w"], out=work[: j1 - j0])
        np.multiply(z, z, out=z)
        np.subtract(1.0, z, out=z)
        dpre *= z
        f0, f1 = layout.frame_first.searchsorted((j0, j1))
        denc[f0:f1] = np.add.reduceat(dpre, layout.frame_first[f0:f1] - j0, axis=0)
        s0, s1 = layout.pos_first.searchsorted((j0, j1))
        by_pos = np.take(dpre, layout.by_pos[j0:j1] - j0, axis=0, out=z, mode="clip")
        dpred[layout.use_pos[s0:s1]] = np.add.reduceat(by_pos, layout.pos_first[s0:s1] - j0, axis=0)
    denc_pre = denc * (1.0 - enc * enc)
    g["enc_w"][...] = denc_pre.T @ layout.feats
    g["enc_b"][...] = denc_pre.sum(axis=0)
    dpred_pre = dpred * (1.0 - pred * pred)
    g["pred_w"][...] = dpred_pre.T @ rows
    g["pred_b"][...] = dpred_pre.sum(axis=0)
    g["emb"][...] = _sum_by_id(layout.ids, dpred_pre @ p["pred_w"], g["emb"].shape[0])
    return grad


def _sum_by_id(ids, rows, num_ids) -> np.ndarray:
    """A (num_ids, H) table whose row i sums the ``rows`` (n, H) of the
    positions with ids == i, each cell from 0.0 in position order: the
    additions of ``np.add.at(zeros, ids, rows)``, by one ``np.bincount``
    over the (id, h) cells."""
    H = rows.shape[1]
    cells = (ids[:, None] * H + np.arange(H)).reshape(-1)
    return np.bincount(cells, rows.reshape(-1), num_ids * H).reshape(num_ids, H)


def backward_columns(
    model: TransducerModel,
    layout: BatchLayout,
    g_blank,
    g_emit,
    kept: StepActivations,
    row0: int = 0,
) -> np.ndarray:
    """Parameter gradient of a batch loss, given its gradients with respect
    to the padded blank and label columns (``kernels.weighted_grad``), in
    two diagonal-major tables of one shape whose rows row0.. are the
    layout's batch.  The tables may hold more rows, diagonals and levels
    (such as a lockstep step's, padded to its longest utterances); the
    batch's cells are read where they are, without copying its rows out.

    Equal to the chain rule of each utterance's dense lattice gradient
    (``kernels.dense_grad``) up to matrix-product rounding, without
    building it: a node's dense row has two entries at most, its blank and
    its label column, so each join's logit gradient is built from those of
    its nodes, summed in node order, cell for cell what the dense rule
    gives on the same layout (``_backward``).  ``kept`` holds the
    activations that ``forward_columns`` kept for this model and layout (a
    DataError if it holds none), which this call consumes and overwrites.
    """
    gb = np.asarray(g_blank, dtype=np.float64)
    ge = np.asarray(g_emit, dtype=np.float64)
    _check_tables(layout, gb, ge, "column gradients", row0)
    _, rows, width = gb.shape
    blank_at, emit_at = layout.cells(rows, width)
    gb, ge = gb.reshape(-1)[row0 * width :], ge.reshape(-1)[row0 * width :]

    def dlogit_rows(softmax, n0, n1, m0, m1, j0):
        # A node's dlogp row holds two entries at most, its blank column and
        # (u < U) its label column, so NumPy's row sum of it is their sum.
        # A join's dlogit is then softmax * -(its nodes' row sums, summed)
        # plus its nodes' entries, summed cell by cell, in node order.
        blank = gb[blank_at[n0:n1]]
        label = ge[emit_at[m0:m1]]
        total = blank.copy()
        total[layout.emit_rows[m0:m1] - n0] += label
        np.negative(total, out=total)
        joins, nsym = softmax.shape
        node_join = layout.node_join[n0:n1] - j0
        softmax *= np.bincount(node_join, total, joins)[:, None]
        label_at = (layout.emit_join[m0:m1] - j0) * nsym + layout.emit_label[m0:m1]
        cells = np.concatenate((node_join * nsym + (nsym - 1), label_at))
        softmax += np.bincount(cells, np.concatenate((blank, label)), softmax.size).reshape(joins, nsym)
        return softmax

    return _backward(model, layout, dlogit_rows, kept)


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


# Adam's moment decay rates and denominator floor.
_ADAM_BETA1, _ADAM_BETA2, _ADAM_EPS = 0.9, 0.999, 1e-8


def adam_update(params, m, v, grad, step: int, lr) -> None:
    """Adam step ``step`` (1 for the first) at learning rate ``lr`` on
    ``params`` and its moments ``m`` and ``v``, in place; any shape,
    elementwise.  ``lr`` is a number, or a (K, 1) column with one rate per
    row of (K, P) parameters; each row then takes the same multiply as a
    scalar update at its rate.  A non-finite gradient raises
    NumericalError before anything is touched."""
    g = _finite_grad(grad)
    m *= _ADAM_BETA1
    m += (1.0 - _ADAM_BETA1) * g
    v *= _ADAM_BETA2
    v += (1.0 - _ADAM_BETA2) * g * g
    m_hat = m / (1.0 - _ADAM_BETA1**step)
    v_hat = v / (1.0 - _ADAM_BETA2**step)
    params -= lr * m_hat / (np.sqrt(v_hat) + _ADAM_EPS)


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
    check_count(max_symbols_per_frame, "max_symbols_per_frame", 1)
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
        dims = {k: check_count(obj.get(k), k, 1) for k in ("dim_in", "dim_hidden", "vocab_size")}
        model = TransducerModel(**dims, params=check_list(obj.get("params"), "params"))
    except DataError as exc:
        raise DataError(f"{path}: malformed checkpoint: {exc}") from None
    return model, obj.get("meta", {})
