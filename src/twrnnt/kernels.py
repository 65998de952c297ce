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
diagonal-major tables of shape (D, B, Umax+1) and (D, B, Umax), with
D = Tmax + Umax: the cell (b, t, j) sits at [t + j, b, j], so row d of a
table holds anti-diagonal d of every utterance.  Utterance b owns the cells
with t < T[b] and j <= U[b] (j < U[b] for ``emit``); every other cell is
padded with ``-inf``.  ``PaddedColumns`` holds the columns of B lattices;
``grid`` reads one utterance's (t, j) table out of a diagonal-major one, and
``dense_grad`` scatters one utterance's column gradients back to a dense
table.  Single lattices go through the same kernels with B = 1.

Both kernels step over the anti-diagonals d = t + j (Bagby et al. 2018,
"Efficient implementation of recurrent neural network transducer in
TensorFlow"): every cell on a diagonal depends only on the previous one,
so each step is a few NumPy operations on one contiguous (B, Umax+1) slab
of each table.  The tables stay in this layout from the model's forward
(``model.forward_columns`` writes it) through both sweeps to the model's
backward (``model.backward_columns`` reads it).

The results are bit-identical to the per-cell loops kept as test references
(``emission_sweep_scalar`` and ``weighted_grad_scalar`` in
``tests/references.py``):

  * each cell does the same floating-point operations on the same operands:
    R[t, j] = logaddexp(R[t-1, j] + blank, R[t, j-1] + emit), and each
    adjoint is adjR[t+1, j] * w1 + (P + adjR[t, j+1] * w2), where w1, w2
    are the two edge posteriors and P the prefix term; addition and
    logaddexp are commutative in floating point, so the wavefront order
    changes nothing;
  * ``-inf`` padding is exact: logaddexp(-inf, x) == x, and x + -inf = -inf;
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
    """Blank and label columns of B lattices in diagonal-major tables,
    padded with ``-inf``.

    ``T`` and ``U`` give each utterance's frame and label counts; ``put``
    fills row b from a (T, U+1, V+1) lattice.  A batch cut from a larger
    one by ``rows`` holds that one in ``base`` and its first row there in
    ``row0``; a batch of its own has no ``base``.
    """

    def __init__(self, T, U):
        self.T = np.asarray(T, dtype=np.int64)
        self.U = np.asarray(U, dtype=np.int64)
        B, Tmax, Umax = self.T.size, int(self.T.max()), int(self.U.max())
        self.blank = np.full((Tmax + Umax, B, Umax + 1), NEG_INF)
        self.emit = np.full((Tmax + Umax, B, Umax), NEG_INF)
        self.base, self.row0 = None, 0

    @classmethod
    def of(cls, logp, labels) -> "PaddedColumns":
        """A batch of one lattice."""
        cols = cls([logp.shape[0]], [labels.size])
        cols.put(0, logp, labels)
        return cols

    def rows(self, b0, b1) -> "PaddedColumns":
        """Rows b0..b1-1 as a batch of their own that shares this one's
        tables, so that writing to it fills them.  Its tables are strided
        views; flat offsets address ``base``'s tables."""
        view = PaddedColumns.__new__(PaddedColumns)
        view.T, view.U = self.T[b0:b1], self.U[b0:b1]
        view.blank, view.emit = self.blank[:, b0:b1], self.emit[:, b0:b1]
        view.base, view.row0 = self.base or self, self.row0 + b0
        return view

    def put(self, b, logp, labels):
        T, U1 = logp.shape[0], logp.shape[1]
        j = np.arange(U1)
        d = np.arange(T)[:, None] + j
        self.blank[d, b, j] = logp[:, :, -1]
        self.emit[d[:, :-1], b, j[:-1]] = logp[:, j[:-1], labels]

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
    dense (T, U+1, V+1) table; U is ``labels.size``."""
    U = labels.size
    g = np.zeros((T, U + 1, num_symbols))
    g[:, :, -1] = grid(g_blank, b, T, U + 1)
    g[:, np.arange(U), labels] = grid(g_emit, b, T, U)
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
    # A spare last diagonal, so that every cell cleared below is in range.
    R = np.full((D + 1, B, W), NEG_INF)
    A = np.full((D, B, W), NEG_INF)
    R[0, :, 0] = 0.0
    A[0, :, 0] = 0.0
    for d in range(1, D):
        R_prev, R_cur, A_cur = R[d - 1], R[d, :, 1:], A[d, :, 1:]
        np.add(R_prev, blank[d - 1], out=R[d])
        np.add(R_prev[:, :-1], emit[d - 1], out=A_cur)
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
    Returns (g_blank, g_emit), diagonal-major tables shaped like ``blank``
    and ``emit``; cells unreachable by any alignment and padding cells are
    exactly 0.
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
    # adjA[d, :, j] is the adjoint of A on diagonal d at level j; the extra
    # zero column stands for level Umax + 1, which no utterance reaches, and
    # the extra zero diagonal for the emissions on the last one.
    adjA = np.zeros((D + 1, B, W + 1))
    g_blank = np.zeros((D, B, W))
    for d in range(D - 2, -1, -1):
        adjR_next, adjA_next, gb = adjR[d + 1], adjA[d + 1, :, :W], g_blank[d]
        np.multiply(adjR_next, w1[d + 1], out=gb)
        np.multiply(adjR_next, w2[d + 1], out=adjA_next)
        np.add(P[d + 1], adjA_next, out=adjA_next)
        adjR[d] += gb + adjA[d + 1, :, 1:]
    g_blank[last, b, U] = seed
    # The emission at (t, j) produces A at (t, j + 1), one diagonal on.
    g_emit = adjA[1:, :, 1:W].copy()
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
