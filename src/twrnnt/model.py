"""Minimal trainable transducer: affine+tanh encoder, embedding predictor,
additive joiner.  Deliberately tiny and recurrence-free so the exact
parameter gradient fits in one page and can be finite-difference checked.

Parameters live in one flat float64 vector with named slices, which keeps
optimizers and checkpoints trivial.  The predictor conditions on the
previous token only (row ``vocab_size`` of the embedding table is the
begin-of-sequence input used at u = 0), so its outputs are one (V + 1, H)
table, computed once per forward or decode, which the joiner, the backward
and the decoder read by id.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DataError, NumericalError, check_count, check_list, check_real
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
    """Name -> shaped view into a flat vector laid out by ``param_layout``,
    or into every row of a stack of them: (..., P) gives (...) + shape."""
    return {
        name: flat[..., start:stop].reshape(flat.shape[:-1] + shape)
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
# long lattices (about 15,900 nodes, 0.54 joins a node).  Each run's joiner
# backward overwrites them in place, one group of joins at a time, so its
# one scratch buffer stays bounded by the group size.
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
    frame.  An utterance's ``R`` distinct ids, in order of first use, are
    the predictor inputs of its joins at each frame: ``is_first`` marks the
    position of each id's first use, and ``rank`` gives each position the
    index r of its id among them.  So an utterance without a repeated input
    has R = U + 1, and ``rank`` is its positions' levels u.

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
        # first position.  ``seen`` counts the first uses up to each position.
        utt = np.arange(self.T.size).repeat(self.U + 1)
        keys = utt * (model.vocab_size + 1) + self.ids
        _, first, key = np.unique(keys, return_index=True, return_inverse=True)
        first = first[key]
        self.is_first = first == np.arange(first.size)
        seen = self.is_first.cumsum()
        self.rank = seen[first] - seen[self.pos0][utt]
        self.R = seen[self.pos0 + self.U] - seen[self.pos0] + 1


class BatchLayout:
    """The (b, t, u) nodes of a batch of utterances in one flat layout, u
    fastest, for ``forward_columns`` and ``backward_columns``.

    Node n joins encoder frame ``frame[n]`` of the stacked ``feats`` with
    the predictor input of level u: BOS at u = 0, then the labels.  Node
    (b, t, u) has diagonal ``diag`` = t + u, row ``row`` = b and level
    ``level`` = u: in the diagonal-major column tables of
    ``kernels.PaddedColumns`` its blank column sits at [t + u, b, u] and its
    label column one cell on, at [t + u, b, u + 1] (``cells`` gives their
    flat offsets when the batch is rows row0.. of larger tables);
    ``emit_rows`` are the nodes with u < U and ``emit_label`` their labels.
    ``groups`` holds (n0, n1, m0, m1) ranges of nodes and emit rows for runs
    of consecutive utterances with at most ``_GROUP_NODES`` nodes, or one
    larger utterance.

    Nodes of one utterance and frame whose predictor inputs have one id
    share a join (b, t, id).  Utterance b has ``R[b]`` distinct ids
    (``PackedUtterances.rank``), so its joins are a (T_b, R_b) grid,
    frame-major from ``join0[b]``: join join0[b] + t * R_b + r is cell (t,
    r), which joins frame ``join_frame[j]`` with the predictor input of id
    ``join_id[j]``, the utterance's r-th id in order of first use.  Node n
    reads the joiner's output of join ``node_join[n]``, and ``emit_join``
    are the joins of ``emit_rows``; ``join_groups`` holds the (j0, j1)
    range of joins of each node group.

    ``BatchLayout(model, features, tokens)`` checks and packs its arguments;
    ``BatchLayout.of(packed, idx)`` lays out utterances ``idx`` (repeats
    allowed) of a ``PackedUtterances`` without checking them again; ``idx``
    must be a nonempty 1-D array of integers in [0, n) for n packed
    utterances, which is not cast or wrapped (a DataError otherwise).
    """

    def __init__(self, model: TransducerModel, features, tokens):
        packed = PackedUtterances(model, features, tokens)
        self._fill(packed, np.arange(packed.T.size))

    @classmethod
    def of(cls, packed: PackedUtterances, idx) -> "BatchLayout":
        idx, n = np.asarray(idx), packed.T.size
        if idx.dtype.kind not in "iu" or idx.ndim != 1 or not idx.size or idx.min() < 0 or idx.max() >= n:
            raise DataError(f"idx must be a nonempty 1-D array of integers in [0, {n}), got {idx!r}")
        layout = cls.__new__(cls)
        layout._fill(packed, idx.astype(np.int64, copy=False))
        return layout

    def _fill(self, packed: PackedUtterances, idx):
        # Array methods rather than their np.* wrappers: a desk batch has
        # about 650 nodes, where the wrappers' call overhead is a good part
        # of each operation's cost.
        self.T, self.U, self.R = T, U, R = packed.T[idx], packed.U[idx], packed.R[idx]
        W = U + 1
        sizes = T * W
        self.feats = packed.feats[_ranges(packed.frame0[idx], T)]
        start = np.zeros(sizes.size + 1, dtype=np.int64)
        sizes.cumsum(out=start[1:])
        b = np.arange(sizes.size).repeat(sizes)
        k = np.arange(start[-1]) - start[b]  # node index within its utterance
        t, u = np.divmod(k, W[b])
        self.frame = (T.cumsum() - T)[b] + t
        pos = packed.pos0[idx][b] + u  # the node's position in ``packed``
        self.diag, self.row, self.level = t + u, b, u
        emit = u < U[b]
        self.emit_rows = emit.nonzero()[0]
        self.emit_label = packed.ids[pos[self.emit_rows] + 1]
        joins = np.zeros(sizes.size + 1, dtype=np.int64)
        (T * R).cumsum(out=joins[1:])
        self.join0 = joins[:-1]
        self.node_join = self.join0[b] + t * R[b] + packed.rank[pos]
        self.emit_join = self.node_join[self.emit_rows]
        # The nodes of first uses, in node order, are the joins in join
        # order: frame by frame, each frame's ids in order of first use.
        reps = packed.is_first[pos].nonzero()[0]
        self.join_frame, self.join_id = self.frame[reps], packed.ids[pos[reps]]
        cuts, nodes = [0], 0
        for i, size in enumerate(sizes.tolist()):
            if nodes and nodes + size > _GROUP_NODES:
                cuts.append(i)
                nodes = 0
            nodes += size
        cuts.append(sizes.size)
        n = start[cuts]
        m = self.emit_rows.searchsorted(n)
        j = joins[cuts]
        self.groups = list(zip(n[:-1], n[1:], m[:-1], m[1:]))
        self.join_groups = list(zip(j[:-1], j[1:]))
        self.max_join_group = int((j[1:] - j[:-1]).max())
        self._cells = None

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


def _encode(model: TransducerModel, feats):
    """The parameter views, the encoder output of every frame of ``feats``,
    and the predictor table: row i is the predictor's output for input id i
    (token i, or BOS at i = V), tanh(emb[i] @ pred_w.T + pred_b)."""
    p = model._views
    enc = np.tanh(feats @ p["enc_w"].T + p["enc_b"])
    tab = np.tanh(p["emb"] @ p["pred_w"].T + p["pred_b"])
    return p, enc, tab


def _join(p, enc, tab, frames, ids, z, scratch):
    """Joiner activations z = tanh(enc[frames] + tab[ids]), written to the
    first rows of ``z``, and their raw logits; ``scratch`` is a buffer of
    as many rows, so that a group's large temporaries are allocated once per
    pass."""
    n = frames.size
    z, scratch = z[:n], scratch[:n]
    # The layout's indices are in range by construction; mode="clip" spares
    # np.take the buffered copy it makes to check them.
    np.take(enc, frames, axis=0, out=z, mode="clip")
    z += np.take(tab, ids, axis=0, out=scratch, mode="clip")
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
    """What the forwards of a group of K runs on one batch
    (``forward_columns``) keep for the one backward that follows them
    (``_backward``), so that the backward does not run the joiner again.
    The runs are ``models``, K distinct models of one shape; a training run
    group keeps one and reuses it at every step, as its runs share each
    step's layout.  Row k holds what run k's forward kept: its parameters
    (row k of ``params``, whose (K, .) views the backward's stacked
    products read), its encoder output and predictor table (``_encode``),
    and for every join (b, t, id) of the batch (``BatchLayout.node_join``),
    in join order, its joiner activations z (H floats, in the (K, joins, H)
    ``z``) and its row softmax (V + 1 floats, in the (K, joins, V + 1)
    ``softmax``, computed along vectors of a group's joins,
    ``_kept_softmax``).  The backward builds each join's logit gradient in
    its softmax row and the gradient of its joiner input in its z row.

    The buffers are allocated once and reused at every step; they grow to
    the most joins of any batch the group draws.  The backward consumes
    what the forwards kept, and overwrites it: it must follow a forward of
    every run on the same layout, before the parameters change.  A forward
    on another layout starts a new step, and drops what the other runs
    kept.  The scratch buffers of both passes stay per call (``_work``):
    held for a run, they would also be held through the DP, where they
    raised the ``corruption`` benchmark's peak RSS by 0.7 MB and saved at
    most 2% of a stacked step.
    """

    def __init__(self, models):
        self.models = list(models)
        K, shape = len(self.models), self.models[0]
        self.params = np.empty((K, shape.params.size))
        self._views = _views(self.params, shape._layout)
        self.z = np.empty((K, 0, shape.dim_hidden))
        self.softmax = np.empty((K, 0, shape.vocab_size + 1))
        self._layout, self._held = None, []

    def _hold(self, model, layout, encoded) -> int:
        """Record run ``model``'s parameters and its encoder output and
        predictor table on ``layout``, make room for the z and softmax of
        every join, and return the run's row k."""
        k = next((k for k, run in enumerate(self.models) if run is model), None)
        if k is None:
            raise DataError("the model is not one of the runs whose activations are kept")
        if self._layout is not layout:
            self._layout, self._held = layout, [None] * len(self.models)
            (K, _, H), V1, joins = self.z.shape, self.softmax.shape[2], layout.join_frame.size
            if self.softmax.shape[1] < joins:
                # Freed first, so that the group's old and new buffers never
                # take memory at once (0.3 MB of a corruption round's traced peak).
                self.z = self.softmax = None
                self.z, self.softmax = np.empty((K, joins, H)), np.empty((K, joins, V1))
        self.params[k] = model.params
        self._held[k] = encoded
        return k

    def _release(self, layout):
        """Each run's kept encoder output and predictor table on this
        layout, which the caller then consumes."""
        if self._layout is not layout or None in self._held:
            raise DataError("no activations kept by a forward of every run on this batch")
        self._layout = None
        return self._held


def model_forward(model: TransducerModel, features, tokens) -> PosteriorLattice:
    """Joint logits for every (t, u) node, log-softmax normalized.  The
    single-utterance case of ``forward_columns``."""
    layout = BatchLayout(model, [features], [tokens])
    p, enc, tab = _encode(model, layout.feats)
    ids = layout.join_id[layout.node_join]
    _, logits = _join(p, enc, tab, layout.frame, ids, *_work(layout.frame.size, enc))
    T, U = int(layout.T[0]), int(layout.U[0])
    return normalize_logits(logits.reshape(T, U + 1, -1))


def _check_tables(layout: BatchLayout, blank, emit, what, row0, runs=1):
    """Raise a DataError unless the diagonal-major ``blank`` and ``emit``
    tables have one shape and can hold the layout's batch at rows row0..,
    once per run: at least the diagonals and levels it needs."""
    B, Tmax, Umax = layout.T.size * runs, int(layout.T.max()), int(layout.U.max())
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
    ``backward_columns`` in the row of ``keep`` that is this model's run
    (``StepActivations``), the z and row softmax of every join included;
    the columns are the same either way.
    """
    cols = PaddedColumns(layout.T, layout.U) if out is None else out
    _check_tables(layout, cols.blank, cols.emit, "column tables", row0)
    _, rows, width = cols.blank.shape
    blank, emit = cols.blank.reshape(-1)[row0 * width :], cols.emit.reshape(-1)[row0 * width :]
    blank_at, emit_at = layout.cells(rows, width)
    p, enc, tab = _encode(model, layout.feats)
    work = _work(layout.max_join_group, enc)
    if keep is not None:
        k = keep._hold(model, layout, (enc, tab))
    scratch = np.empty((model.vocab_size + 1, layout.max_join_group))
    for (n0, n1, m0, m1), (j0, j1) in zip(layout.groups, layout.join_groups):
        z = work[0] if keep is None else keep.z[k, j0:j1]
        _, logits = _join(p, enc, tab, layout.join_frame[j0:j1], layout.join_id[j0:j1], z, work[1])
        lse = _kept_softmax(logits, scratch, None if keep is None else keep.softmax[k, j0:j1])
        blank_lp = logits[:, -1] - lse
        blank[blank_at[n0:n1]] = blank_lp[layout.node_join[n0:n1] - j0]
        r = layout.emit_join[m0:m1] - j0
        emit[emit_at[m0:m1]] = logits[r, layout.emit_label[m0:m1]] - lse[r]
    return cols


def _backward(kept: StepActivations, layout: BatchLayout, dlogit_rows) -> np.ndarray:
    """Chain rule from per-node lattice gradients to the parameters of the
    K runs of ``kept``, as their (K, P) gradient rows.  Exact, float64.
    ``dlogit_rows(k, softmax, n0, n1, m0, m1, j0)`` returns the (j1 - j0,
    V+1) gradient of run k's logits of joins j0.. through the row
    log-softmax, the sum over each join's nodes of dlogp - softmax *
    sum(dlogp), and may build it in ``softmax``, the joins' row softmax.

    The encoder outputs and predictor tables, and every join's joiner
    activations z and row softmax, come from ``kept``, a
    ``StepActivations`` filled by the forward of each run on this layout,
    which this pass overwrites: no joiner product or softmax runs.  Each
    run's joiner backward goes one group of joins at a time, and leaves the
    gradient of each join's joiner input, dpre = (1 - z^2) * dz, in its z
    row.  Then one pass over the utterances serves all K runs: each
    utterance's joins are its (T_b, R_b) grid (``BatchLayout``), so the sum
    over a grid row is the gradient of its frame's encoder output, and the
    sum over a column that of its id's row of the predictor table.  The
    encoder and predictor gradients then take stacked (K, ., .) products,
    those of the predictor over the table's V + 1 rows.  Each run's row
    equals that of a group of one, bit for bit.
    """
    held = kept._release(layout)
    p, K, H = kept._views, len(held), kept.z.shape[2]
    work = np.empty((layout.max_join_group, H))
    grad = np.zeros(kept.params.shape)
    g = _views(grad, kept.models[0]._layout)
    for k in range(K):
        for (n0, n1, m0, m1), (j0, j1) in zip(layout.groups, layout.join_groups):
            dlogit = dlogit_rows(k, kept.softmax[k, j0:j1], n0, n1, m0, m1, j0)
            z = kept.z[k, j0:j1]
            g["join_w"][k] += dlogit.T @ z
            # As dlogit.sum(axis=0), bit for bit, and 3x faster at 1,000 joins.
            g["join_b"][k] += np.einsum("jk->k", dlogit)
            # dz in the work buffer, then dpre = (1 - z^2) * dz in ``z``.
            dz = np.matmul(dlogit, p["join_w"][k], out=work[: j1 - j0])
            np.multiply(z, z, out=z)
            np.subtract(1.0, z, out=z)
            z *= dz
    denc = np.empty((K, layout.feats.shape[0], H))
    dcol = np.empty((K, int(layout.R.sum()), H))
    T, R, join0 = layout.T.tolist(), layout.R.tolist(), layout.join0.tolist()
    frame0, col0 = (layout.T.cumsum() - layout.T).tolist(), (layout.R.cumsum() - layout.R).tolist()
    for b in range(len(T)):
        grid = kept.z[:, join0[b] : join0[b] + T[b] * R[b]].reshape(K, T[b], R[b], H)
        # Each frame's sum over its R_b joins.  einsum adds them in the
        # order of grid.sum(axis=2), bit for bit, but its inner loop runs
        # along a row of H, not down a column: 2x faster at R = 13.
        np.einsum("ktrh->kth", grid, out=denc[:, frame0[b] : frame0[b] + T[b]])
        grid.sum(axis=1, out=dcol[:, col0[b] : col0[b] + R[b]])
    for k, (enc, _) in enumerate(held):
        denc[k] *= 1.0 - enc * enc
    g["enc_w"][...] = denc.transpose(0, 2, 1) @ layout.feats
    g["enc_b"][...] = denc.sum(axis=1)
    # Column r of utterance b has the id of its join join0[b] + r.  Ids may
    # repeat across utterances (and in ``tests/references.per_node`` within
    # one), so each goes to its row of the table by a one-hot product.
    ids = layout.join_id[_ranges(layout.join0, layout.R)]
    onehot = np.zeros((p["emb"].shape[1], ids.size))
    onehot[ids, np.arange(ids.size)] = 1.0
    dtab = onehot @ dcol
    for k, (_, tab) in enumerate(held):
        dtab[k] *= 1.0 - tab * tab
    g["pred_w"][...] = dtab.transpose(0, 2, 1) @ p["emb"]
    g["pred_b"][...] = dtab.sum(axis=1)
    g["emb"][...] = dtab @ p["pred_w"]
    return grad


def backward_columns(kept: StepActivations, layout: BatchLayout, g_blank, g_emit, row0=0) -> np.ndarray:
    """Parameter gradients of the K runs of ``kept``, as (K, P) rows, each
    of its run's batch loss, given the loss gradients with respect to the
    padded blank and label columns (``kernels.weighted_grad``), in two
    diagonal-major tables of one shape whose rows row0 + k * B.. are run
    k's batch of B utterances.  The tables may hold more rows, diagonals
    and levels (such as a lockstep step's, padded to its longest
    utterances); each batch's cells are read where they are, without
    copying its rows out.

    Equal to the chain rule of each utterance's dense lattice gradient
    (``kernels.dense_grad``) up to matrix-product rounding, without
    building it: a node's dense row has two entries at most, its blank and
    its label column, so each join's logit gradient is built from those of
    its nodes, summed in node order, cell for cell what the dense rule
    gives on the same layout (``_backward``).  ``kept`` holds the
    activations that ``forward_columns`` kept for each run on this layout
    (a DataError if it does not), which this call consumes and overwrites.
    """
    gb = np.asarray(g_blank, dtype=np.float64)
    ge = np.asarray(g_emit, dtype=np.float64)
    _check_tables(layout, gb, ge, "column gradients", row0, len(kept.models))
    _, rows, width = gb.shape
    blank_at, emit_at = layout.cells(rows, width)
    gb, ge = gb.reshape(-1), ge.reshape(-1)

    def dlogit_rows(k, softmax, n0, n1, m0, m1, j0):
        # A node's dlogp row holds two entries at most, its blank column and
        # (u < U) its label column, so NumPy's row sum of it is their sum.
        # A join's dlogit is then softmax * -(its nodes' row sums, summed)
        # plus its nodes' entries, summed cell by cell, in node order.
        at = (row0 + k * layout.T.size) * width
        blank = gb[at:][blank_at[n0:n1]]
        label = ge[at:][emit_at[m0:m1]]
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

    return _backward(kept, layout, dlogit_rows)


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
    scalar update at its rate.  A ``step`` that is no integer >= 1, or an
    ``lr`` that is no finite number > 0 (nor such a column), raises
    DataError, and a non-finite gradient NumericalError, before anything
    is touched."""
    check_count(step, "step", 1)
    column = params.shape[:-1] + (1,)
    if type(lr) is not np.ndarray:
        check_real(lr, "lr", low=0.0, open_low=True)
    elif lr.dtype.kind not in "iuf" or lr.shape != column or not 0 < lr.min() <= lr.max() < np.inf:
        raise DataError(f"lr must be finite and > 0, or a {column} column of such, got {lr!r}")
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

    The predictor state is the row of the last emitted id (BOS at first) in
    the predictor table of ``_encode``, computed once per decode.  The
    decode runs ahead.  The state changes only when a label is emitted, so
    once blank has won under a state (and at BOS), one joiner pass scores
    every remaining frame under it, and the decode jumps to the
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
    p, enc, tab = _encode(model, feats)
    join_w, join_b = p["join_w"], p["join_b"]
    blank = model.vocab_size
    cur = tab[model.bos]
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
        cur = tab[k]
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
