"""Exhaustive, obviously-correct references for small lattices.

Everything here trades speed for transparency: alignments are enumerated
one by one and probabilities are summed in sorted order.  Shipped (not
test-only) so that ``twrnnt loss-check`` can vet serialized lattices from
any source against these references.  The slow gradient references (the
occupancy gradient and central finite differences) and the other slow DP
forms, which only the tests and the kernel benchmark use, live in
``tests/references.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError, NumericalError
from .lattice import PosteriorLattice, _check_dims, as_labels

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

