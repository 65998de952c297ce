"""Exhaustive, obviously-correct references for small lattices.

Everything here trades speed for transparency: alignments are enumerated
one by one, probabilities are summed in sorted order, gradients come from
central finite differences.  Slow DP forms pin the fast kernels: the
occupancy gradient from forward and backward tables, the emission sweep
with its blank-run sums spelled out, and the per-cell loops of the emission
sweep and the weighted gradient, which the batched wavefront kernels must
reproduce bit for bit.  Shipped (not test-only) so the CLI can vet
serialized lattices from any source against these references.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError, NumericalError
from .lattice import PosteriorLattice, _check_dims, as_labels, backward, forward

__all__ = [
    "BLANK_STEP",
    "EMIT_STEP",
    "AlignmentPath",
    "path_count",
    "enumerate_paths",
    "path_logp",
    "exact_sequence_logp",
    "exact_prefix_logp",
    "exact_conditionals",
    "exact_final_blank_logp",
    "finite_diff_grad",
    "loglik_grad",
    "emission_sweep_quadratic",
    "emission_sweep_scalar",
    "weighted_grad_scalar",
]

BLANK_STEP = 0
EMIT_STEP = 1

# Refuse enumerations beyond this many alignments.
MAX_PATHS = 10**6


@dataclass(frozen=True)
class AlignmentPath:
    """A complete blank-augmented alignment: exactly T blanks (the last one
    terminates the path at (T-1, U)) interleaved with U emissions."""

    steps: tuple

    def frames(self):
        """Frame index occupied after each step (terminal blank exits to T)."""
        t = 0
        out = []
        for s in self.steps:
            if s == BLANK_STEP:
                t += 1
            out.append(t)
        return out


def path_count(T: int, U: int) -> int:
    """Number of complete alignments: C(T+U-1, U)."""
    return math.comb(T + U - 1, U)


def _check_guard(T: int, U: int) -> None:
    n = path_count(T, U)
    if n > MAX_PATHS:
        raise DataError(
            f"enumeration guard: C({T + U - 1}, {U}) = {n} alignments exceeds "
            f"{MAX_PATHS}"
        )


def enumerate_paths(T: int, U: int):
    """All complete alignments for a T-frame, U-label lattice.

    Iterative depth-first walk with an explicit stack; duplicate-free by
    construction.  The last step of every path is the terminal blank.
    """
    if T < 1 or U < 0:
        raise DataError(f"need T >= 1 and U >= 0, got T={T}, U={U}")
    _check_guard(T, U)
    done = []
    # Stack entries: (t, u, steps-so-far); t counts consumed blanks.
    stack = [(0, 0, ())]
    while stack:
        t, u, steps = stack.pop()
        if t == T:
            if u == U:
                done.append(AlignmentPath(steps))
            continue
        # Blank first so emissions-first orderings pop later (order is
        # irrelevant to callers; completeness is what matters).
        if t == T - 1 and u < U:
            # Must finish emissions before the terminal blank.
            stack.append((t, u + 1, steps + (EMIT_STEP,)))
            continue
        stack.append((t + 1, u, steps + (BLANK_STEP,)))
        if u < U:
            stack.append((t, u + 1, steps + (EMIT_STEP,)))
    return done


def path_logp(lattice: PosteriorLattice, y, path: AlignmentPath) -> float:
    """Log-probability of one alignment: the sum of its lattice factors."""
    labels = as_labels(y)
    blank = lattice.blank
    t = u = 0
    total = 0.0
    for s in path.steps:
        if s == EMIT_STEP:
            total += lattice.logp[t, u, labels[u]]
            u += 1
        else:
            total += lattice.logp[t, u, blank]
            t += 1
    return float(total)


def _sorted_logsumexp(values) -> float:
    """Pairwise log-add in ascending order for reproducible summation."""
    total = -np.inf
    for v in sorted(values):
        total = np.logaddexp(total, v)
    return float(total)


def exact_sequence_logp(lattice: PosteriorLattice, y) -> float:
    """log P(y | x) by brute-force summation over every complete alignment."""
    labels = as_labels(y)
    _check_dims(lattice, labels)
    paths = enumerate_paths(lattice.T, labels.size)
    return _sorted_logsumexp(path_logp(lattice, labels, p) for p in paths)


def _enumerate_partial(T: int, u: int):
    """All partial alignments emitting exactly u labels, ending on the u-th
    emission (any number of preceding blanks, never past frame T-1)."""
    if u < 1:
        raise DataError(f"partial alignments need u >= 1, got {u}")
    _check_guard(T, u)
    done = []
    stack = [(0, 0, ())]
    while stack:
        t, lab, steps = stack.pop()
        if lab == u:
            done.append(AlignmentPath(steps))
            continue
        if t + 1 < T:
            stack.append((t + 1, lab, steps + (BLANK_STEP,)))
        stack.append((t, lab + 1, steps + (EMIT_STEP,)))
    return done


def exact_prefix_logp(lattice: PosteriorLattice, y, u: int) -> float:
    """log P(y[:u] as a prefix): total mass of partial alignments that end by
    emitting the u-th label at any frame.  u = 0 gives log 1 = 0."""
    labels = as_labels(y)
    if not 0 <= u <= labels.size:
        raise DataError(f"prefix length u={u} outside 0..{labels.size}")
    if u > lattice.U:
        raise DataError(f"prefix length u={u} exceeds lattice U={lattice.U}")
    if u == 0:
        return 0.0
    partials = _enumerate_partial(lattice.T, u)
    return _sorted_logsumexp(path_logp(lattice, labels[:u], p) for p in partials)


def exact_conditionals(lattice: PosteriorLattice, y) -> np.ndarray:
    """Per-token conditionals P(y[u] | y[:u]) as ratios of consecutive
    brute-force prefix masses."""
    labels = as_labels(y)
    out = np.empty(labels.size)
    prev = 0.0
    for u in range(1, labels.size + 1):
        cur = exact_prefix_logp(lattice, labels, u)
        if prev == -np.inf:
            raise NumericalError(f"prefix y[:{u - 1}] has zero probability")
        out[u - 1] = np.exp(cur - prev)
        prev = cur
    return out


def exact_final_blank_logp(lattice: PosteriorLattice, y) -> float:
    """log P(terminate | y emitted): complete-sequence mass over prefix mass."""
    labels = as_labels(y)
    seq = exact_sequence_logp(lattice, labels)
    pre = exact_prefix_logp(lattice, labels, labels.size)
    if pre == -np.inf:
        raise NumericalError("full prefix has zero probability")
    return seq - pre


def finite_diff_grad(f, lattice: PosteriorLattice, step: float = 1e-6) -> np.ndarray:
    """Central finite differences of a scalar functional of the lattice,
    cell by cell.  Perturbed tables are intentionally unnormalized."""
    if step <= 0:
        raise DataError(f"finite-difference step must be positive, got {step}")
    base = lattice.logp
    grad = np.zeros_like(base)
    flat = grad.ravel()
    for i in range(base.size):
        bumped = base.copy().ravel()
        if not np.isfinite(bumped[i]):
            continue  # hard zeros stay hard zeros
        orig = bumped[i]
        bumped[i] = orig + step
        hi = f(PosteriorLattice(bumped.reshape(base.shape)))
        bumped[i] = orig - step
        lo = f(PosteriorLattice(bumped.reshape(base.shape)))
        flat[i] = (hi - lo) / (2.0 * step)
    return grad


def loglik_grad(lattice: PosteriorLattice, y) -> np.ndarray:
    """Gradient of log P(y | x) w.r.t. every lattice entry, occupancy form.

    A cell's gradient is the posterior probability that an alignment takes
    its arc, exp(alpha + logp + beta - loglik), from the forward and backward
    tables.  Entries never touched by a valid alignment stay exactly 0, and
    a zero-probability sequence gives an all-zero table.
    """
    labels = as_labels(y)
    fwd = forward(lattice, labels)
    alpha, loglik = fwd.alpha, fwd.loglik
    beta = backward(lattice, labels).beta
    logp = lattice.logp
    T, U, blank = lattice.T, lattice.U, lattice.blank
    g = np.zeros_like(logp)
    if loglik == -np.inf:
        return g
    for t in range(T):
        for u in range(U + 1):
            if alpha[t, u] == -np.inf:
                continue
            if u < U:
                g[t, u, labels[u]] = np.exp(
                    alpha[t, u] + logp[t, u, labels[u]] + beta[t, u + 1] - loglik
                )
            if t < T - 1:
                g[t, u, blank] = np.exp(
                    alpha[t, u] + logp[t, u, blank] + beta[t + 1, u] - loglik
                )
    g[T - 1, U, blank] = np.exp(alpha[T - 1, U] + logp[T - 1, U, blank] - loglik)
    return g


def emission_sweep_quadratic(lattice: PosteriorLattice, y):
    """Emission-time masses with the explicit O(T^2 * U) blank-run inner sum.

    Returns (A, prefix, loglik) in the layout of ``kernels.emission_sweep``:
    A[t, u] for u >= 1 is the log joint mass of emitting y[:u] with the u-th
    label at frame t, prefix[u] = logsumexp_t A[t, u], and loglik closes
    level U with blanks and the final blank.  Spells out the blank-run
    products between consecutive emission frames instead of carrying a
    running prefix.
    """
    labels = as_labels(y)
    _check_dims(lattice, labels)
    logp = lattice.logp
    T, U, blank = lattice.T, lattice.U, lattice.blank
    A = np.full((T, U + 1), -np.inf)
    prefix = np.full(U + 1, -np.inf)
    A[0, 0] = 0.0
    prefix[0] = 0.0
    for u in range(1, U + 1):
        j = u - 1
        y_j = labels[j]
        s_u = -np.inf
        for t in range(T):
            s = -np.inf
            for tp in range(t + 1):
                if A[tp, j] == -np.inf:
                    continue
                run = A[tp, j]
                for f in range(tp, t):
                    run += logp[f, j, blank]
                s = np.logaddexp(s, run)
            A[t, u] = s + logp[t, j, y_j]
            s_u = np.logaddexp(s_u, A[t, u])
        prefix[u] = s_u
    s = -np.inf
    for tp in range(T):
        if A[tp, U] == -np.inf:
            continue
        run = A[tp, U]
        for f in range(tp, T - 1):
            run += logp[f, U, blank]
        s = np.logaddexp(s, run)
    loglik = s + logp[T - 1, U, blank]
    return A, prefix, loglik


def emission_sweep_scalar(logp, labels):
    """Per-cell loop form of ``kernels.emission_sweep`` for one (T, U+1, V+1)
    table.  Returns (A, R, prefix, loglik) with the batch axis dropped; the
    batched kernel must match it exactly on every utterance's corner."""
    T, U1, nsym = logp.shape
    U = U1 - 1
    blank = nsym - 1
    A = np.full((T, U1), -np.inf)
    R = np.full((T, U1), -np.inf)
    prefix = np.full(U1, -np.inf)
    A[0, 0] = 0.0
    prefix[0] = 0.0
    for j in range(U1):
        R[0, j] = A[0, j]
        for t in range(1, T):
            R[t, j] = np.logaddexp(R[t - 1, j] + logp[t - 1, j, blank], A[t, j])
        if j < U:
            y = labels[j]
            s = -np.inf
            for t in range(T):
                A[t, j + 1] = R[t, j] + logp[t, j, y]
                s = np.logaddexp(s, A[t, j + 1])
            prefix[j + 1] = s
    loglik = R[T - 1, U] + logp[T - 1, U, blank]
    return A, R, prefix, loglik


def weighted_grad_scalar(logp, labels, A, R, prefix, loglik, lam, final_blank_weight):
    """Per-cell loop form of ``kernels.weighted_grad`` for one table, from
    the outputs of ``emission_sweep_scalar``.  Returns the dense
    (T, U+1, V+1) gradient of the token-weighted loss

        L = sum_u lam[u-1] * (prefix[u-1] - prefix[u])
            + final_blank_weight * (prefix[U] - loglik)

    reverse-accumulated through the logaddexp graph cell by cell.
    """
    T, U1, nsym = logp.shape
    U = U1 - 1
    blank = nsym - 1
    g = np.zeros((T, U1, nsym))
    adjA = np.zeros((T, U1))
    # Termination sweep: loglik = R[T-1, U] + logp[T-1, U, blank].
    adjR = np.zeros(T)
    if final_blank_weight != 0.0 and loglik != -np.inf:
        adjR[T - 1] = -final_blank_weight
        g[T - 1, U, blank] = -final_blank_weight
    for t in range(T - 1, 0, -1):
        if adjR[t] == 0.0 or R[t, U] == -np.inf:
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
        if cu != 0.0 and prefix[u] != -np.inf:
            for t in range(T):
                if A[t, u] != -np.inf:
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
            if adjR2[t] == 0.0 or R[t, j] == -np.inf:
                continue
            w1 = np.exp(R[t - 1, j] + logp[t - 1, j, blank] - R[t, j])
            w2 = np.exp(A[t, j] - R[t, j])
            adjR2[t - 1] += adjR2[t] * w1
            g[t - 1, j, blank] += adjR2[t] * w1
            adjA[t, j] += adjR2[t] * w2
        adjA[0, j] += adjR2[0]
    return g
