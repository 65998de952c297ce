"""Shared helpers: seeded random lattice/label instances, and the
hypothesis strategy and settings of the property tests."""

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from twrnnt.lattice import PosteriorLattice, normalize_logits

PROPERTY = settings(max_examples=50, deadline=None, derandomize=True, database=None)


def random_lattice(rng, T, U, V, scale=1.5):
    """Softmax-normalized lattice from Gaussian logits."""
    raw = rng.normal(scale=scale, size=(T, U + 1, V + 1))
    return normalize_logits(raw)


def random_instance(rng, max_t=6, max_u=4, max_v=5):
    """One seeded (lattice, labels) pair with dimensions drawn uniformly."""
    T = int(rng.integers(1, max_t + 1))
    U = int(rng.integers(0, max_u + 1))
    V = int(rng.integers(1, max_v + 1))
    labels = rng.integers(0, V, size=U).astype(np.int64)
    return random_lattice(rng, T, U, V), labels


def random_instance_nonempty(rng, max_t=6, max_u=4, max_v=5):
    """Like random_instance but with at least one label token."""
    T = int(rng.integers(1, max_t + 1))
    U = int(rng.integers(1, max_u + 1))
    V = int(rng.integers(1, max_v + 1))
    labels = rng.integers(0, V, size=U).astype(np.int64)
    return random_lattice(rng, T, U, V), labels


def capped_lattice(rng, T, U_max, V, scale=1.5):
    """Lattice whose last label level emits only blanks, so no output can be
    longer than U_max and total output probability is exactly 1."""
    raw = rng.normal(scale=scale, size=(T, U_max + 1, V + 1))
    lat = normalize_logits(raw)
    logp = lat.logp.copy()
    logp[:, U_max, :V] = -np.inf
    logp[:, U_max, V] = 0.0
    return PosteriorLattice(logp)


def with_hard_zeros(raw, labels, zeros):
    logp = normalize_logits(raw).logp.copy()
    for cell in zeros:
        logp[cell] = -np.inf
    return PosteriorLattice(logp), np.asarray(labels, dtype=np.int64)


@st.composite
def cases(draw, hard_zeros=True, V=None):
    """(lattice, labels) with T in 1..6, U in 0..5 and |V| in 1..3."""
    T = draw(st.integers(1, 6))
    U = draw(st.integers(0, 5))
    V = V or draw(st.integers(1, 3))
    shape = (T, U + 1, V + 1)
    raw = draw(
        hnp.arrays(np.float64, shape, elements=st.floats(-1e3, 1e3), fill=st.nothing())
    )
    labels = draw(st.lists(st.integers(0, V - 1), min_size=U, max_size=U))
    cell = st.tuples(st.integers(0, T - 1), st.integers(0, U), st.integers(0, V))
    zeros = draw(st.lists(cell, max_size=3)) if hard_zeros else []
    return with_hard_zeros(raw, labels, zeros)


def owned_cells(shape, T, last):
    """Mask of the (D, width) cells of one row of a diagonal-major table of
    ``shape`` (D, B, width) that an utterance of T frames owns: (t, j) at
    [t + j, j] with t < T and j <= last."""
    d = np.arange(shape[0])[:, None]
    j = np.arange(shape[2])
    return (d - j >= 0) & (d - j < T) & (j <= last)


def owned_label_cells(shape, T, U):
    """Mask of the (D, width) cells of one row of a diagonal-major label
    table of ``shape`` (D, B, width) that an utterance of T frames and U
    labels owns: the label column of node (t, u), u < U, at [t + u, u + 1].
    Level 0 is never owned."""
    d = np.arange(shape[0])[:, None]
    j = np.arange(shape[2])
    t = d - j + 1
    return (t >= 0) & (t < T) & (j >= 1) & (j <= U)
