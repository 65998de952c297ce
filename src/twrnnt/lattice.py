"""Alignment-lattice primitives: posterior lattices, forward/backward
variables, the standard transducer loss and its gradient.

A posterior lattice is a (T, U+1, V+1) table of log-probabilities, one
softmax-normalized row per (frame, label-position) node.  The blank symbol
occupies the last index.  Label sequences are plain int arrays over
0..V-1; ``as_labels`` validates them.

Lattice topology (fixed convention, used everywhere in the package):
emitting label y[u] at node (t, u) consumes ``logp[t, u, y[u]]`` and moves
to (t, u+1); blank consumes ``logp[t, u, blank]`` and moves to (t+1, u);
a path is complete when it leaves (T-1, U) via the final blank.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import kernels
from .errors import DataError, NumericalError

__all__ = [
    "Vocabulary",
    "PosteriorLattice",
    "ForwardBackwardTables",
    "as_labels",
    "normalize_logits",
    "forward",
    "backward",
    "rnnt_loss",
    "rnnt_loss_grad",
    "lattice_to_json",
    "lattice_from_json",
]


@dataclass(frozen=True)
class Vocabulary:
    """Token vocabulary of ``size`` real tokens 0..size-1 plus a reserved
    blank encoded as index ``size`` (never a valid label token)."""

    size: int

    def __post_init__(self):
        if self.size < 1:
            raise DataError(f"vocabulary size must be >= 1, got {self.size}")

    @property
    def blank(self) -> int:
        return self.size

    @property
    def num_symbols(self) -> int:
        return self.size + 1


def _integer_labels(tokens) -> np.ndarray:
    """A 1-D sequence of integers as a contiguous int64 array; a DataError
    for any other shape or element type (floats, strings and bools too,
    which ``np.asarray`` would truncate or cast).  An empty one is valid."""
    arr = np.asarray(tokens)
    if arr.ndim != 1:
        raise DataError(f"label sequence must be 1-D, got shape {arr.shape}")
    if arr.dtype.kind not in "iu" and arr.size:
        raise DataError(f"labels must be integers, got {arr.dtype.name} values")
    # np.asarray casts the bools of a list that also holds ints to ints.
    if type(tokens) is not np.ndarray and any(isinstance(t, (bool, np.bool_)) for t in tokens):
        raise DataError("labels must be integers, got bool values")
    return np.ascontiguousarray(arr, dtype=np.int64)


def as_labels(tokens, vocab: Optional[Vocabulary] = None) -> np.ndarray:
    """Validate and convert a label sequence to a contiguous int64 array.

    Labels must be integers (``_integer_labels``), nonnegative and, when a
    vocabulary is given, strictly below the blank index.  Length may exceed
    the frame count (transducers permit multiple emissions per frame).
    """
    arr = _integer_labels(tokens)
    if arr.size and arr.min() < 0:
        raise DataError(f"negative token index {int(arr.min())} in label sequence")
    if vocab is not None and arr.size and arr.max() >= vocab.size:
        raise DataError(
            f"token index {int(arr.max())} outside vocabulary of size {vocab.size} "
            "(the blank index is never a valid label)"
        )
    return arr


@dataclass(frozen=True)
class PosteriorLattice:
    """Log-probability table over (t in 0..T-1, u in 0..U, k in V + blank).

    Entries must be finite or -inf (hard zeros are legal), never NaN.  Rows
    produced by ``normalize_logits`` logsumexp to 0; the constructor does not
    enforce normalization so that perturbed tables (finite differences,
    serialized inputs under inspection) remain representable.
    """

    logp: np.ndarray

    def __post_init__(self):
        logp = np.ascontiguousarray(np.asarray(self.logp, dtype=np.float64))
        if logp.ndim != 3:
            raise DataError(f"lattice table must be 3-D, got shape {logp.shape}")
        T, U1, nsym = logp.shape
        if T < 1 or U1 < 1 or nsym < 2:
            raise DataError(
                f"lattice needs T >= 1, U >= 0, |V| >= 1; got shape {logp.shape}"
            )
        if np.isnan(logp).any():
            t, u, k = np.argwhere(np.isnan(logp))[0]
            raise DataError(f"NaN log-probability at (t={t}, u={u}, k={k})")
        if np.isposinf(logp).any():
            t, u, k = np.argwhere(np.isposinf(logp))[0]
            raise DataError(f"+inf log-probability at (t={t}, u={u}, k={k})")
        object.__setattr__(self, "logp", logp)

    @property
    def T(self) -> int:
        return self.logp.shape[0]

    @property
    def U(self) -> int:
        return self.logp.shape[1] - 1

    @property
    def vocab(self) -> Vocabulary:
        return Vocabulary(self.logp.shape[2] - 1)

    @property
    def blank(self) -> int:
        return self.logp.shape[2] - 1

    def row_logsumexp(self) -> np.ndarray:
        """(T, U+1) table of each row's log total mass; NaN for a row of
        hard zeros."""
        with np.errstate(invalid="ignore"):
            return _row_logsumexp(self.logp)[..., 0]

    def row_normalization_error(self) -> float:
        """Max |logsumexp(row)| over all (t, u) rows; ~0 for softmax rows."""
        return float(np.max(np.abs(self.row_logsumexp())))


@dataclass(frozen=True)
class ForwardBackwardTables:
    """Forward/backward DP tables plus the sequence log-likelihood.

    ``forward`` returns the emission sweep's running table as alpha;
    ``backward`` fills beta with an independent suffix recursion.  Either
    determines ``loglik`` on its own, and the two agree to ~1e-9.
    """

    alpha: Optional[np.ndarray]
    beta: Optional[np.ndarray]
    loglik: float


def normalize_logits(raw_logits) -> PosteriorLattice:
    """Log-softmax every (t, u) row of a raw (T, U+1, V+1) logit table.

    Rejects NaN/+-inf inputs with a diagnostic naming the offending cell.
    """
    raw = np.asarray(raw_logits, dtype=np.float64)
    if raw.ndim != 3:
        raise DataError(f"logit table must be 3-D, got shape {raw.shape}")
    bad = ~np.isfinite(raw)
    if bad.any():
        t, u, k = np.argwhere(bad)[0]
        raise DataError(
            f"non-finite logit {raw[t, u, k]!r} at (t={t}, u={u}, k={k})"
        )
    return PosteriorLattice(raw - _row_logsumexp(raw))


def _row_logsumexp(raw: np.ndarray) -> np.ndarray:
    """Log of each row's total mass over the last axis, kept as an axis of
    length 1; ``raw - _row_logsumexp(raw)`` is the row log-softmax."""
    m = raw.max(axis=-1, keepdims=True)
    return m + np.log(np.sum(np.exp(raw - m), axis=-1, keepdims=True))


def _check_dims(lattice: PosteriorLattice, labels: np.ndarray) -> None:
    if lattice.U != labels.size:
        raise DataError(
            f"label/lattice mismatch: lattice has (T={lattice.T}, U={lattice.U}) "
            f"but the label sequence has U={labels.size}"
        )
    if labels.size and labels.max() >= lattice.blank:
        raise DataError(
            f"token index {int(labels.max())} is not below the blank index "
            f"{lattice.blank}"
        )


def forward(lattice: PosteriorLattice, y) -> ForwardBackwardTables:
    """Forward sweep: alpha[t, u] = log P(emit y[:u] within t+1 frame-steps).

    loglik = alpha[T-1, U] + logp[T-1, U, blank]; the final blank is part of
    the loss (it terminates every complete path).
    """
    labels = as_labels(y)
    _check_dims(lattice, labels)
    _, R, _, loglik = kernels.PaddedColumns.of(lattice.logp, labels).sweep()
    alpha = kernels.grid(R, 0, lattice.T, labels.size + 1)
    return ForwardBackwardTables(alpha=alpha, beta=None, loglik=float(loglik[0]))


def backward(lattice: PosteriorLattice, y) -> ForwardBackwardTables:
    """Suffix sweep mirroring ``forward``; beta[T-1, U] = logp[T-1, U, blank]."""
    labels = as_labels(y)
    _check_dims(lattice, labels)
    beta, loglik = kernels.backward_fill(lattice.logp, labels)
    return ForwardBackwardTables(alpha=None, beta=beta, loglik=float(loglik))


def rnnt_loss(lattice: PosteriorLattice, y) -> float:
    """Standard transducer loss -log P(y | x), marginalized over alignments."""
    return -forward(lattice, y).loglik


def rnnt_loss_grad(lattice: PosteriorLattice, y) -> np.ndarray:
    """Gradient of ``rnnt_loss`` w.r.t. every lattice log-probability.

    The token-weighted gradient sweep with every weight 1, which is the
    standard loss.  Cells unreachable by any alignment get exactly 0; the
    final-blank cell always gets -1.
    """
    labels = as_labels(y)
    _check_dims(lattice, labels)
    cols = kernels.PaddedColumns.of(lattice.logp, labels)
    sweep = cols.sweep()
    if sweep[3][0] == -np.inf:
        raise NumericalError(
            "sequence has zero probability under the lattice; loss gradient "
            "is undefined"
        )
    g_blank, g_emit = cols.grad(sweep, np.ones((1, labels.size)), np.ones(1))
    return kernels.dense_grad(g_blank, g_emit, 0, lattice.T, labels, lattice.logp.shape[2])


def lattice_to_json(lattice: PosteriorLattice, grad: Optional[np.ndarray] = None) -> str:
    """Serialize to the interchange form {"t", "u", "v", "logp" flat row-major}.

    -inf entries are written as JSON ``-Infinity`` (Python's json dialect).
    A gradient table of the same shape may ride along under "grad".
    """
    obj = {
        "t": lattice.T,
        "u": lattice.U,
        "v": lattice.vocab.size,
        "logp": [float(x) for x in lattice.logp.ravel(order="C")],
    }
    if grad is not None:
        obj["grad"] = [float(x) for x in np.asarray(grad).ravel(order="C")]
    return json.dumps(obj)


def lattice_from_json(obj) -> PosteriorLattice:
    """Parse the interchange form; accepts a JSON string or a decoded dict."""
    if isinstance(obj, (str, bytes)):
        obj = json.loads(obj)
    try:
        T, U, V = (obj[k] for k in ("t", "u", "v"))
        # JSON booleans are ints to Python; neither they nor floats are sizes.
        if not all(type(n) is int for n in (T, U, V)):
            raise ValueError(f"t, u and v must be integers, got {T!r}, {U!r}, {V!r}")
        flat = np.asarray(obj["logp"], dtype=np.float64)
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"malformed lattice JSON: {exc}") from exc
    if T < 1 or U < 0 or V < 1:
        raise DataError(f"lattice JSON needs t >= 1, u >= 0, v >= 1; got t={T}, u={U}, v={V}")
    expected = T * (U + 1) * (V + 1)
    if flat.size != expected:
        raise DataError(
            f"lattice JSON logp has {flat.size} entries, expected "
            f"{expected} for t={T}, u={U}, v={V}"
        )
    return PosteriorLattice(flat.reshape(T, U + 1, V + 1))
