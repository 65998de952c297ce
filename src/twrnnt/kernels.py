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
use: ``blank[b, t, j]`` = logp[t, j, blank] with shape (B, Tmax, Umax+1),
and ``emit[b, t, j]`` = logp[t, j, y[j]] with shape (B, Tmax, Umax).
Utterance b owns the corner t < T[b], j <= U[b] (j < U[b] for ``emit``);
everything else is padded with ``-inf``.  ``PaddedColumns`` gathers the
columns of B lattices; ``dense_grad`` scatters one utterance's column
gradients back to a dense table.  Single lattices go through the same
kernels with B = 1.

Both kernels step over anti-diagonals d = t + j (Bagby et al. 2018,
"Efficient implementation of recurrent neural network transducer in
TensorFlow"): every cell on a diagonal depends only on the previous one,
so each step is a few NumPy operations over all B utterances at once.
Internally the tables are skewed so that diagonal d is row d.

The results are bit-identical to the per-cell loops kept in ``oracle``
(``emission_sweep_scalar``, ``weighted_grad_scalar``):

  * each cell does the same floating-point operations on the same operands:
    R[t, j] = logaddexp(R[t-1, j] + blank, R[t, j-1] + emit), and each
    adjoint is adjR[t+1, j] * w1 + (P + adjR[t, j+1] * w2), where w1, w2
    are the two edge posteriors and P the prefix term; addition and
    logaddexp are commutative in floating point, so the wavefront order
    changes nothing;
  * ``-inf`` padding is exact: logaddexp(-inf, x) == x, and x + -inf = -inf;
  * prefix masses are a sequential ``np.logaddexp.reduce`` over ascending t;
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

from functools import lru_cache

import numpy as np

NEG_INF = float("-inf")


class PaddedColumns:
    """Blank and label columns of B lattices, padded with ``-inf``.

    ``T`` and ``U`` give each utterance's frame and label counts; ``put``
    fills row b from a (T, U+1, V+1) lattice.
    """

    def __init__(self, T, U):
        self.T = np.asarray(T, dtype=np.int64)
        self.U = np.asarray(U, dtype=np.int64)
        B, Tmax, Umax = self.T.size, int(self.T.max()), int(self.U.max())
        self.blank = np.full((B, Tmax, Umax + 1), NEG_INF)
        self.emit = np.full((B, Tmax, Umax), NEG_INF)

    @classmethod
    def of(cls, logp, labels) -> "PaddedColumns":
        """A batch of one lattice."""
        cols = cls([logp.shape[0]], [labels.size])
        cols.put(0, logp, labels)
        return cols

    def rows(self, b0, b1) -> "PaddedColumns":
        """Rows b0..b1-1 as a batch of their own that shares this one's
        tables, so that writing to it fills them."""
        view = PaddedColumns.__new__(PaddedColumns)
        view.T, view.U = self.T[b0:b1], self.U[b0:b1]
        view.blank, view.emit = self.blank[b0:b1], self.emit[b0:b1]
        return view

    def put(self, b, logp, labels):
        T, U1 = logp.shape[0], logp.shape[1]
        self.blank[b, :T, :U1] = logp[:, :, -1]
        self.emit[b, :T, : U1 - 1] = logp[:, np.arange(U1 - 1), labels]

    def sweep(self):
        """``emission_sweep`` over the whole batch."""
        return emission_sweep(self.blank, self.emit, self.T, self.U)

    def grad(self, sweep, lam, final_blank_weight):
        """``weighted_grad`` over the whole batch, from ``sweep()``'s tables."""
        return weighted_grad(
            self.blank, self.emit, self.T, self.U, *sweep, lam, final_blank_weight
        )


def dense_grad(g_blank, g_emit, labels, num_symbols) -> np.ndarray:
    """One utterance's column gradients as a dense (T, U+1, V+1) table.

    ``g_blank`` and ``g_emit`` are its rows of ``weighted_grad``'s outputs,
    cut to its T frames; U is ``labels.size``.
    """
    T, U = g_blank.shape[0], labels.size
    g = np.zeros((T, U + 1, num_symbols))
    g[:, :, -1] = g_blank[:, : U + 1]
    g[:, np.arange(U), labels] = g_emit[:, :U]
    return g


# Sized to hold every shape a run asks for: a round of the benchmark's
# `corruption` workload (criterion 8's recipe, one seed) asks for 58.
@lru_cache(maxsize=256)
def _diagonal_index(rows, width, diags):
    """Flat indices between a (rows, width) table and its skewed form, whose
    row d holds diagonal d: skewed[d, j] = table[d - j, j].

    ``skew`` reads a table flattened with one fill value appended (index
    rows * width), which lands on the cells with d - j outside 0..rows-1;
    ``unskew`` reads the skewed table flattened.
    """
    d = np.arange(diags)[:, None]
    j = np.arange(width)[None, :]
    t = d - j
    skew = np.where((t >= 0) & (t < rows), t * width + j, rows * width)
    unskew = (np.arange(rows)[:, None] + j) * width + j
    skew.setflags(write=False)  # shared by every caller through the cache
    unskew.setflags(write=False)
    return skew, unskew


def _skew(table, diags, fill):
    B, rows, width = table.shape
    skew, _ = _diagonal_index(rows, width, diags)
    flat = np.concatenate(
        [table.reshape(B, rows * width), np.full((B, 1), fill)], axis=1
    )
    return flat[:, skew]


def _unskew(skewed, rows):
    B, diags, width = skewed.shape
    _, unskew = _diagonal_index(rows, width, diags)
    return skewed.reshape(B, diags * width)[:, unskew]


def emission_sweep(blank, emit, T, U):
    """Emission-time factorized forward pass over a padded batch.

    Returns (A, R, prefix, loglik) with shapes (B, Tmax, Umax+1) twice,
    (B, Umax+1) and (B,), where for utterance b:

      * A[b, t, u] for u >= 1 is the log joint mass of emitting labels[:u]
        with the u-th label emitted exactly at frame t; A[b, :, 0] is the
        start boundary (0 at t=0, -inf elsewhere).
      * R[b, t, j] is the running mass along label level j: all ways of
        having emitted labels[:j] and advanced to frame t via blanks at
        level j.
      * prefix[b, u] = logsumexp_t A[b, t, u]; prefix[b, 0] = 0.
      * loglik[b] closes level U[b] with blanks and the final blank at
        (T[b]-1, U[b]).

    Padding cells of A and R and padding prefix entries are ``-inf``.  R is
    the standard forward table alpha: ``lattice.forward`` returns it.
    """
    T = np.asarray(T, dtype=np.int64)
    U = np.asarray(U, dtype=np.int64)
    B, Tmax, W = blank.shape
    D = Tmax + W - 1
    blank_s = _skew(blank, D, NEG_INF)
    emit_s = _skew(emit, D, NEG_INF)
    R_s = np.full((B, D, W), NEG_INF)
    R_s[:, 0, 0] = 0.0
    A_cur = np.empty((B, W - 1))
    for d in range(1, D):
        R_prev, R_cur = R_s[:, d - 1], R_s[:, d, 1:]
        np.add(R_prev, blank_s[:, d - 1], out=R_s[:, d])
        np.add(R_prev[:, :-1], emit_s[:, d - 1], out=A_cur)
        np.logaddexp(R_cur, A_cur, out=R_cur)
    R = _unskew(R_s, Tmax)
    # Row T[b] of a shorter utterance holds its own blank exits; clear it.
    R[np.arange(Tmax)[None, :] >= T[:, None]] = NEG_INF
    # A from the loop's own operands, so no skewed copy of it is kept.
    A = np.full((B, Tmax, W), NEG_INF)
    A[:, 0, 0] = 0.0
    np.add(R[:, :, :-1], emit, out=A[:, :, 1:])
    prefix = np.logaddexp.reduce(A, axis=1)
    b = np.arange(B)
    loglik = R[b, T - 1, U] + blank[b, T - 1, U]
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
    Returns (g_blank, g_emit), shaped like ``blank`` and ``emit``; cells
    unreachable by any alignment and padding cells are exactly 0.
    """
    T = np.asarray(T, dtype=np.int64)
    U = np.asarray(U, dtype=np.int64)
    w_fb = np.asarray(final_blank_weight, dtype=np.float64)
    B, Tmax, W = blank.shape
    D = Tmax + W - 1
    b = np.arange(B)
    # d L / d prefix[u]: the weight of the term that ends at level u minus
    # the weight of the term that starts there.
    ends = np.zeros((B, W))
    ends[:, :-1] = lam
    ends[b, U] = w_fb
    cu = np.zeros((B, 1, W))
    cu[:, 0, 1:] = ends[:, 1:] - lam
    dead = R == NEG_INF
    pre = prefix[:, None, :]
    with np.errstate(invalid="ignore"):
        # Edge posteriors into R[t, j]: from R[t-1, j] by a blank (w1) and
        # from A[t, j] by an emission (w2).
        w1 = np.zeros_like(R)
        step = w1[:, 1:]
        np.add(R[:, :-1], blank[:, :-1], out=step)
        step -= R[:, 1:]
        np.exp(step, out=step)
        w1[dead] = 0.0
        w2 = np.exp(A - R)
        w2[dead] = 0.0
        P = np.exp(A - pre)
        P *= cu
        P[(cu == 0.0) | (pre == NEG_INF) | (A == NEG_INF)] = 0.0
    seed = np.where((w_fb != 0.0) & (loglik != NEG_INF), -w_fb, 0.0)
    w1_s = _skew(w1, D, 0.0)
    w2_s = _skew(w2, D, 0.0)
    P_s = _skew(P, D, 0.0)
    adjR = np.zeros((B, D, W))
    adjR[b, T - 1 + U, U] = seed
    # adjA[:, d, j] is the adjoint of A at (d - j, j); the extra zero column
    # stands for level Umax + 1, which no utterance reaches.
    adjA = np.zeros((B, D, W + 1))
    gb_s = np.zeros((B, D, W))
    for d in range(D - 2, -1, -1):
        adjR_next, adjA_next, gb = adjR[:, d + 1], adjA[:, d + 1, :W], gb_s[:, d]
        np.multiply(adjR_next, w1_s[:, d + 1], out=gb)
        np.multiply(adjR_next, w2_s[:, d + 1], out=adjA_next)
        np.add(P_s[:, d + 1], adjA_next, out=adjA_next)
        adjR[:, d] += gb + adjA[:, d + 1, 1:]
    g_blank = _unskew(gb_s, Tmax)
    g_blank[b, T - 1, U] = seed
    # The emission at (t, j) produces A at (t, j + 1).
    g_emit = _unskew(np.ascontiguousarray(adjA[:, :, :W]), Tmax)[:, :, 1:].copy()
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
