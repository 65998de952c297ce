"""Log-domain dynamic-programming kernels with numba acceleration.

Four kernels cover every loss, gradient and conditional in the package:

  * ``emission_sweep`` -- the one forward recursion.  Its running table R is
    the standard forward table alpha; it also yields the emission-time
    masses A, the prefix masses and the sequence log-likelihood.
  * ``weighted_grad`` -- the one gradient: a reverse sweep over the emission
    recursion for the token-weighted loss.  Unit weights give the standard
    transducer loss gradient.
  * ``backward_fill`` -- the suffix table beta, kept as an independent
    cross-check of the forward recursion (``lattice.backward``).
  * ``next_symbol_masses`` -- one-step extension masses for next-token
    distributions.

Slow reference forms (the occupancy gradient, the quadratic emission sweep)
live in ``oracle``, not here.

These inner loops are the hot path of every loss evaluation and training
step, so they are JIT-compiled with numba when available.  Backend selection
is controlled by the ``TWRNNT_BACKEND`` environment variable:

  * ``auto``  (default) -- numba if importable, else the pure-NumPy loops.
  * ``numba`` -- require numba, fail at import time if missing.
  * ``numpy`` -- force the pure-NumPy fallback (identical results, slower).

Both backends run the same source with the same operation order: the DP
tables come out bit-identical, and the exp() in the gradient sweep agrees
to an ULP (numba links its own libm).  ``benchmarks/bench_kernels.py``
compares the two.

Conventions shared by every kernel:

  * ``logp`` has shape (T, U+1, V+1) holding log-probabilities; the blank
    symbol is the last index.  Entries may be ``-inf`` (hard zeros) but
    never NaN.
  * Label emission at node (t, u) consumes ``logp[t, u, y[u]]`` and moves to
    (t, u+1); blank consumes ``logp[t, u, blank]`` and moves to (t+1, u);
    a path terminates by taking the blank at (T-1, U).
  * All accumulation is pairwise ``np.logaddexp`` in ascending t, then u,
    in float64, so results are bit-reproducible.
"""

from __future__ import annotations

import os

import numpy as np

NEG_INF = float("-inf")


def _backward_fill(logp, labels):
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


def _emission_sweep(logp, labels):
    """Emission-time factorized forward pass (running-prefix form).

    Returns (A, R, prefix, loglik) where:
      * A[t, u] for u >= 1 is the log joint mass of emitting labels[:u] with
        the u-th label emitted exactly at frame t; A[:, 0] is the start
        boundary (0 at t=0, -inf elsewhere).
      * R[t, j] is the running mass along label level j: all ways of having
        emitted labels[:j] and advanced to frame t via blanks at level j.
      * prefix[u] = logsumexp_t A[t, u]; prefix[0] = 0.
      * loglik closes level U with blanks and the final blank at (T-1, U).

    R is the standard forward table alpha: ``lattice.forward`` returns it.
    Cost O(T*U); ``oracle.emission_sweep_quadratic`` must agree to ~1e-12.
    """
    T, U1, nsym = logp.shape
    U = U1 - 1
    blank = nsym - 1
    A = np.full((T, U1), NEG_INF)
    R = np.full((T, U1), NEG_INF)
    prefix = np.full(U1, NEG_INF)
    A[0, 0] = 0.0
    prefix[0] = 0.0
    for j in range(U1):
        R[0, j] = A[0, j]
        for t in range(1, T):
            R[t, j] = np.logaddexp(R[t - 1, j] + logp[t - 1, j, blank], A[t, j])
        if j < U:
            y = labels[j]
            s = NEG_INF
            for t in range(T):
                A[t, j + 1] = R[t, j] + logp[t, j, y]
                s = np.logaddexp(s, A[t, j + 1])
            prefix[j + 1] = s
    loglik = R[T - 1, U] + logp[T - 1, U, blank]
    return A, R, prefix, loglik


def _weighted_grad(logp, labels, A, R, prefix, loglik, lam, final_blank_weight):
    """Gradient of the token-weighted loss w.r.t. every logp entry.

    One reverse sweep over the emission recursion computed by
    ``_emission_sweep``.  The scalar loss is

        L = sum_u lam[u-1] * (prefix[u-1] - prefix[u])
            + final_blank_weight * (prefix[U] - loglik)

    which reverse-accumulates through the logaddexp graph cell by cell.
    """
    T, U1, nsym = logp.shape
    U = U1 - 1
    blank = nsym - 1
    g = np.zeros((T, U1, nsym))
    adjA = np.zeros((T, U1))
    # Termination sweep: loglik = R[T-1, U] + logp[T-1, U, blank].
    adjR = np.zeros(T)
    if final_blank_weight != 0.0 and loglik != NEG_INF:
        adjR[T - 1] = -final_blank_weight
        g[T - 1, U, blank] = -final_blank_weight
    for t in range(T - 1, 0, -1):
        if adjR[t] == 0.0 or R[t, U] == NEG_INF:
            continue
        w1 = np.exp(R[t - 1, U] + logp[t - 1, U, blank] - R[t, U])
        w2 = np.exp(A[t, U] - R[t, U])
        adjR[t - 1] += adjR[t] * w1
        g[t - 1, U, blank] += adjR[t] * w1
        adjA[t, U] += adjR[t] * w2
    adjA[0, U] += adjR[0]
    for u in range(U, 0, -1):
        j = u - 1
        # d L / d prefix[u]; lam is 0-based, lam[j] weights the (j+1)-th token.
        if u == U:
            cu = final_blank_weight - lam[j]
        else:
            cu = lam[u] - lam[j]
        if cu != 0.0 and prefix[u] != NEG_INF:
            for t in range(T):
                if A[t, u] != NEG_INF:
                    adjA[t, u] += cu * np.exp(A[t, u] - prefix[u])
        # Emission step: A[t, u] = R[t, j] + logp[t, j, labels[j]].
        y = labels[j]
        adjR2 = np.zeros(T)
        for t in range(T):
            a = adjA[t, u]
            if a != 0.0:
                adjR2[t] = a
                g[t, j, y] += a
        for t in range(T - 1, 0, -1):
            if adjR2[t] == 0.0 or R[t, j] == NEG_INF:
                continue
            w1 = np.exp(R[t - 1, j] + logp[t - 1, j, blank] - R[t, j])
            w2 = np.exp(A[t, j] - R[t, j])
            adjR2[t - 1] += adjR2[t] * w1
            g[t - 1, j, blank] += adjR2[t] * w1
            adjA[t, j] += adjR2[t] * w2
        adjA[0, j] += adjR2[0]
    return g


def _next_symbol_masses(logp, A_prev, level):
    """Unnormalized log masses for extending a prefix whose emission-time
    vector is A_prev, by one symbol at label level ``level``.

    Returns an array of length V+1: entries 0..V-1 are the joint masses of
    emitting that token next; the last entry is the mass of terminating
    (blanks through frame T-1, then the closing blank).
    """
    T = logp.shape[0]
    nsym = logp.shape[2]
    blank = nsym - 1
    R = np.full(T, NEG_INF)
    R[0] = A_prev[0]
    for t in range(1, T):
        R[t] = np.logaddexp(R[t - 1] + logp[t - 1, level, blank], A_prev[t])
    out = np.full(nsym, NEG_INF)
    for k in range(nsym - 1):
        s = NEG_INF
        for t in range(T):
            s = np.logaddexp(s, R[t] + logp[t, level, k])
        out[k] = s
    out[blank] = R[T - 1] + logp[T - 1, level, blank]
    return out


_PY_IMPLS = {
    "backward_fill": _backward_fill,
    "emission_sweep": _emission_sweep,
    "weighted_grad": _weighted_grad,
    "next_symbol_masses": _next_symbol_masses,
}

_BACKEND_ENV = os.environ.get("TWRNNT_BACKEND", "auto").lower()
if _BACKEND_ENV not in {"auto", "numba", "numpy"}:
    raise RuntimeError(
        f"TWRNNT_BACKEND must be one of auto/numba/numpy, got {_BACKEND_ENV!r}"
    )

_JIT_IMPLS = None
if _BACKEND_ENV in {"auto", "numba"}:
    try:
        from numba import njit

        _JIT_IMPLS = {
            name: njit(cache=True)(fn) for name, fn in _PY_IMPLS.items()
        }
    except ImportError:
        if _BACKEND_ENV == "numba":
            raise RuntimeError("TWRNNT_BACKEND=numba but numba is not importable")

BACKEND = "numba" if _JIT_IMPLS is not None else "numpy"
_ACTIVE = _JIT_IMPLS if _JIT_IMPLS is not None else _PY_IMPLS

backward_fill = _ACTIVE["backward_fill"]
emission_sweep = _ACTIVE["emission_sweep"]
weighted_grad = _ACTIVE["weighted_grad"]
next_symbol_masses = _ACTIVE["next_symbol_masses"]


def implementations():
    """Backend name -> kernel table, for benchmarking and equivalence tests.

    The numba table is None when numba is unavailable or disabled.
    """
    return {"numpy": _PY_IMPLS, "numba": _JIT_IMPLS}
