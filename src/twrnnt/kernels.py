"""Log-domain dynamic-programming kernels.

Three kernels cover every loss, gradient and conditional in the package:

  * ``emission_sweep`` -- the one forward recursion, over a padded batch.
    Its running table R is the standard forward table alpha; it also yields
    the emission-time masses A, the prefix masses and the sequence
    log-likelihood.
  * ``weighted_grad`` -- the one gradient: a reverse sweep over the emission
    recursion for the token-weighted loss, over the same padded batch.
    Unit weights give the standard transducer loss gradient.
  * ``backward_fill`` -- the suffix table beta of one lattice, kept as an
    independent cross-check of the forward recursion (``lattice.backward``).

Padded batches.  The two batched kernels read only the columns a path can
use, ``blank`` = logp[t, j, blank] and ``emit`` = logp[t, j, y[j]], in
diagonal-major tables of one shape (D, B, Umax+1), with D = Tmax + Umax:
row d of a table holds anti-diagonal d of every utterance.  The blank
column of node (b, t, j) sits at [t + j, b, j].  Its label column sits at
[t + j, b, j + 1], next to the A cell it feeds (the emission at (t, j)
produces A at (t, j + 1), one diagonal on); level 0 of ``emit`` is always
``-inf``.  Utterance b owns the blank cells with t < T[b] and j <= U[b] and
the label cells with t < T[b] and 1 <= j <= U[b]; every other cell is
padded with ``-inf``.  ``PaddedColumns`` holds the columns of B lattices;
``grid`` reads one utterance's (t, j) table out of a diagonal-major one, and
``dense_grad`` scatters one utterance's column gradients back to a dense
table.  Single lattices go through the same kernels with B = 1.

Both kernels step over the anti-diagonals d = t + j (Bagby et al. 2018,
"Efficient implementation of recurrent neural network transducer in
TensorFlow"): every cell on a diagonal depends only on the previous one,
so each step is a few NumPy operations on one contiguous slab of
B * (Umax+1) cells of each table, taken as a flat vector.  A label column
and the R cell one level down that it extends are one cell apart in that
vector, so the step from level j to j + 1 is a shift by one cell; where it
would cross from one utterance's last level into the next one's level 0,
the ``-inf`` at level 0 of ``emit`` stops it.  The tables stay in this
layout from the model's forward (``model.forward_columns`` writes it)
through both sweeps to the model's backward (``model.backward_columns``
reads it).

The results are bit-identical to the per-cell loops kept as test references
(``emission_sweep_scalar`` and ``weighted_grad_scalar`` in
``tests/references.py``):

  * each cell does the same floating-point operations on the same operands:
    R[t, j] = logaddexp(R[t-1, j] + blank, R[t, j-1] + emit), and each
    adjoint is adjR[t+1, j] * w1 + (P + adjR[t, j+1] * w2), where w1, w2
    are the two edge posteriors and P the prefix term; addition and
    logaddexp are commutative in floating point, so the wavefront order
    changes nothing;
  * ``-inf`` padding is exact: logaddexp(-inf, x) == x, and x + -inf = -inf,
    so the level-0 cells that a flat slab step also touches keep their
    values;
  * prefix masses are a sequential ``np.logaddexp.reduce`` over the
    diagonals, which for a fixed level is ascending t with extra ``-inf``
    terms;
  * w1 and w2 are 0 where R is ``-inf``, as the scalar loop skips the cell.

Conventions shared by every kernel:

  * A lattice ``logp`` has shape (T, U+1, V+1) holding log-probabilities;
    the blank symbol is the last index.  Entries may be ``-inf`` (hard
    zeros) but never NaN.
  * Label emission at node (t, u) consumes ``logp[t, u, y[u]]`` and moves to
    (t, u+1); blank consumes ``logp[t, u, blank]`` and moves to (t+1, u);
    a path terminates by taking the blank at (T-1, U).
  * All accumulation is pairwise ``np.logaddexp`` in ascending t, then u,
    in float64, so results are bit-reproducible.
"""

from __future__ import annotations

import numpy as np

NEG_INF = float("-inf")


class PaddedColumns:
    """Blank and label columns of B lattices in two diagonal-major tables of
    one shape (D, B, Umax+1), padded with ``-inf``: node (b, t, u) has its
    blank column at ``blank[t + u, b, u]`` and, for u < U[b], its label
    column at ``emit[t + u, b, u + 1]``.

    ``T`` and ``U`` give each utterance's frame and label counts; ``put``
    fills row b from a (T, U+1, V+1) lattice.  The rows of one batch may
    hold several runs' batches, as in a lockstep training step:
    ``model.forward_columns`` writes a batch at rows row0.. and
    ``model.backward_columns`` reads its gradients from the same rows.
    """

    def __init__(self, T, U):
        self.T = np.asarray(T, dtype=np.int64)
        self.U = np.asarray(U, dtype=np.int64)
        B, Tmax, Umax = self.T.size, int(self.T.max()), int(self.U.max())
        self.blank = np.full((Tmax + Umax, B, Umax + 1), NEG_INF)
        self.emit = np.full_like(self.blank, NEG_INF)

    @classmethod
    def of(cls, logp, labels) -> "PaddedColumns":
        """A batch of one lattice."""
        cols = cls([logp.shape[0]], [labels.size])
        cols.put(0, logp, labels)
        return cols

    def put(self, b, logp, labels):
        T, U1 = logp.shape[0], logp.shape[1]
        j = np.arange(U1)
        d = np.arange(T)[:, None] + j
        self.blank[d, b, j] = logp[:, :, -1]
        self.emit[d[:, :-1], b, j[1:]] = logp[:, j[:-1], labels]

    def sweep(self):
        """``emission_sweep`` over the whole batch."""
        return emission_sweep(self.blank, self.emit, self.T, self.U)

    def grad(self, sweep, lam, final_blank_weight):
        """``weighted_grad`` over the whole batch, from ``sweep()``'s tables."""
        return weighted_grad(
            self.blank, self.emit, self.T, self.U, *sweep, lam, final_blank_weight
        )


def grid(table, b, T, width) -> np.ndarray:
    """Cells (t, j), t < T and j < width, of row b of a diagonal-major table,
    as a new (T, width) table."""
    j = np.arange(width)
    return table[np.arange(T)[:, None] + j, b, j]


def dense_grad(g_blank, g_emit, b, T, labels, num_symbols) -> np.ndarray:
    """Utterance b's column gradients (``weighted_grad``'s outputs) as a
    dense (T, U+1, V+1) table; U is ``labels.size``.  The label cell of node
    (t, u) is read at [t + u, b, u + 1]."""
    U = labels.size
    g = np.zeros((T, U + 1, num_symbols))
    g[:, :, -1] = grid(g_blank, b, T, U + 1)
    u = np.arange(U)
    g[:, u, labels] = g_emit[np.arange(T)[:, None] + u, b, u + 1]
    return g


def emission_sweep(blank, emit, T, U):
    """Emission-time factorized forward pass over a padded batch.

    Returns (A, R, prefix, loglik): A and R are diagonal-major tables shaped
    like ``blank``, prefix has shape (B, Umax+1) and loglik (B,).  For
    utterance b:

      * A at (t, u) for u >= 1 is the log joint mass of emitting labels[:u]
        with the u-th label emitted exactly at frame t; A at (t, 0) is the
        start boundary (0 at t=0, -inf elsewhere).
      * R at (t, j) is the running mass along label level j: all ways of
        having emitted labels[:j] and advanced to frame t via blanks at
        level j.
      * prefix[b, u] = logsumexp_t A at (t, u); prefix[b, 0] = 0.
      * loglik[b] closes level U[b] with blanks and the final blank at
        (T[b]-1, U[b]).

    Padding cells of A and R and padding prefix entries are ``-inf``.  R is
    the standard forward table alpha: ``lattice.forward`` returns it.
    """
    T = np.asarray(T, dtype=np.int64)
    U = np.asarray(U, dtype=np.int64)
    D, B, W = blank.shape
    S = B * W
    # Each diagonal is one flat slab of S cells, cell b * W + j.  A spare
    # last diagonal of R, so that every cell cleared below is in range.
    R = np.full((D + 1, B, W), NEG_INF)
    A = np.full((D, B, W), NEG_INF)
    R[0, :, 0] = 0.0
    A[0, :, 0] = 0.0
    R_s, A_s = R.reshape(D + 1, S), A.reshape(D, S)
    blank_s, emit_s = blank.reshape(D, S), emit.reshape(D, S)
    for d in range(1, D):
        R_prev, R_cur, A_cur = R_s[d - 1], R_s[d], A_s[d]
        np.add(R_prev, blank_s[d - 1], out=R_cur)
        # A at (t, j + 1) from R at (t, j), one cell back; the -inf at
        # level 0 of ``emit`` keeps each row's first cell at -inf.
        np.add(R_prev[:-1], emit_s[d - 1, 1:], out=A_cur[1:])
        np.logaddexp(R_cur, A_cur, out=R_cur)
    # Frame T[b] of every level holds the level's own blank exit; clear it.
    j = np.arange(W)
    b = np.arange(B)
    R[T[:, None] + j, b[:, None], j] = NEG_INF
    R = R[:D]
    # For a fixed (b, j) the diagonals run through ascending t, with -inf
    # before t = 0 and after the last frame, which logaddexp passes exactly.
    prefix = np.logaddexp.reduce(A, axis=0)
    last = T - 1 + U
    loglik = R[last, b, U] + blank[last, b, U]
    return A, R, prefix, loglik


def weighted_grad(blank, emit, T, U, A, R, prefix, loglik, lam, final_blank_weight):
    """Gradient of the token-weighted loss w.r.t. the padded columns.

    One reverse sweep over the emission recursion computed by
    ``emission_sweep``.  ``lam`` (B, Umax) holds each utterance's token
    weights, zero-padded; ``final_blank_weight`` (B,) its sentence-end
    weight.  Utterance b's scalar loss is

        L = sum_u lam[u-1] * (prefix[u-1] - prefix[u])
            + final_blank_weight * (prefix[U] - loglik)

    which reverse-accumulates through the logaddexp graph cell by cell.
    Returns (g_blank, g_emit), diagonal-major tables shaped like ``blank``;
    cells unreachable by any alignment, padding cells and level 0 of
    ``g_emit`` are exactly 0.
    """
    T = np.asarray(T, dtype=np.int64)
    U = np.asarray(U, dtype=np.int64)
    w_fb = np.asarray(final_blank_weight, dtype=np.float64)
    D, B, W = blank.shape
    b = np.arange(B)
    # d L / d prefix[u]: the weight of the term that ends at level u minus
    # the weight of the term that starts there.
    ends = np.zeros((B, W))
    ends[:, :-1] = lam
    ends[b, U] = w_fb
    cu = np.zeros((B, W))
    cu[:, 1:] = ends[:, 1:] - lam
    dead = R == NEG_INF
    with np.errstate(invalid="ignore"):
        # Edge posteriors into R at (t, j): from (t-1, j), one diagonal
        # back, by a blank (w1) and from A at (t, j) by an emission (w2).
        w1 = np.zeros_like(R)
        step = w1[1:]
        np.add(R[:-1], blank[:-1], out=step)
        step -= R[1:]
        np.exp(step, out=step)
        w1[dead] = 0.0
        w2 = np.exp(A - R)
        w2[dead] = 0.0
        P = np.exp(A - prefix)
        P *= cu
        P[(cu == 0.0) | (prefix == NEG_INF) | (A == NEG_INF)] = 0.0
    seed = np.where((w_fb != 0.0) & (loglik != NEG_INF), -w_fb, 0.0)
    last = T - 1 + U
    adjR = np.zeros((D, B, W))
    adjR[last, b, U] = seed
    # Slab e of adjA is the adjoint of A on diagonal e + 1, which is the
    # gradient of the label columns on diagonal e: the emission at (t, j)
    # produces A at (t, j + 1), one diagonal on.  So its slabs are g_emit.
    # Slab D - 1 stands for the emissions on the last diagonal and stays 0.
    S = B * W
    adjA = np.zeros(D * S)
    g_blank = np.zeros((D, B, W))
    adjR_s, g_blank_s = adjR.reshape(D, S), g_blank.reshape(D, S)
    w1, w2, P = w1.reshape(D, S), w2.reshape(D, S), P.reshape(D, S)
    for d in range(D - 2, -1, -1):
        adjR_next, adjA_next, gb = adjR_s[d + 1], adjA[d * S : (d + 1) * S], g_blank_s[d]
        np.multiply(adjR_next, w1[d + 1], out=gb)
        np.multiply(adjR_next, w2[d + 1], out=adjA_next)
        np.add(P[d + 1], adjA_next, out=adjA_next)
        # R at (t, j) feeds A at (t, j + 1), one cell on.  After a row's
        # last level that is level 0 of the next row (or of the next slab),
        # whose adjoint is exactly 0: A at level 0 is a constant.
        adjR_s[d] += gb + adjA[d * S + 1 : (d + 1) * S + 1]
    g_blank[last, b, U] = seed
    g_emit = adjA.reshape(D, B, W)
    return g_blank, g_emit


def backward_fill(logp, labels):
    """Fill the suffix table beta; return (beta, loglik).

    beta[t, u] is the log-probability of completing the remaining labels and
    terminating, starting from node (t, u).  beta[T-1, U] = logp[T-1, U, blank].
    """
    T, U1, nsym = logp.shape
    U = U1 - 1
    blank = nsym - 1
    beta = np.full((T, U1), NEG_INF)
    beta[T - 1, U] = logp[T - 1, U, blank]
    for t in range(T - 1, -1, -1):
        for u in range(U, -1, -1):
            if t == T - 1 and u == U:
                continue
            a = NEG_INF
            if t < T - 1:
                a = beta[t + 1, u] + logp[t, u, blank]
            if u < U:
                a = np.logaddexp(a, beta[t, u + 1] + logp[t, u, labels[u]])
            beta[t, u] = a
    return beta, beta[0, 0]
