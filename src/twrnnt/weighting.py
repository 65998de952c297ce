"""Token weights from confidence scores, and the token-weighted loss.

A weight is a confidence raised to a tunable exponent and normalized to
mean 1 over its scope: every token of the utterances weighted together (one
``compute_weights`` call, or one training batch), which keeps gradient
magnitudes comparable while the exponent is tuned.  ``packed_weights`` is
that law, and the one place that holds it.  The weighted objective
multiplies each token's negative log conditional by its weight; the
sentence-end (final blank) term is kept with a fixed, separately
configurable weight so the objective stays normalized over sequence
termination.  With all weights 1 it reproduces the standard transducer loss
exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence, Union

import numpy as np

from . import kernels
from .conditionals import ConditionalProfile
from .errors import DataError, NumericalError, check_fields, check_real, checked
from .lattice import PosteriorLattice, as_labels, check_dims

__all__ = [
    "WeightConfig",
    "TokenWeights",
    "compute_weights",
    "packed_weights",
    "weighted_rnnt_loss",
    "weighted_rnnt_loss_grad",
    "weighted_loss_and_grad",
    "padded_loss_and_grad",
]


@dataclass(frozen=True)
class WeightConfig:
    """Exponent for turning confidences into weights, and the sentence-end
    term's weight."""

    alpha: float = checked(check_real, 1.0, low=0.0)
    final_blank_weight: float = checked(check_real, 1.0, low=0.0)

    __post_init__ = check_fields


@dataclass(frozen=True)
class TokenWeights:
    """Per-token multipliers aligned with one label sequence.

    Mean over the weighting scope is 1; ordering follows the
    confidences they came from (monotone in c for any alpha > 0).
    """

    lambdas: np.ndarray
    config: WeightConfig = field(default_factory=WeightConfig)

    def __len__(self) -> int:
        return len(self.lambdas)

    @classmethod
    def uniform(cls, n: int) -> "TokenWeights":
        return cls(lambdas=np.ones(n), config=WeightConfig(alpha=0.0))


def confidence_array(c) -> np.ndarray:
    if isinstance(c, ConditionalProfile):
        arr = np.asarray(c.conditionals, dtype=np.float64)
    else:
        arr = np.asarray(c, dtype=np.float64)
    if arr.ndim != 1:
        raise DataError(f"confidence vector must be 1-D, got shape {arr.shape}")
    # ``~(arr > 0)`` also holds for NaN, which every comparison rejects.
    if np.any(~(arr > 0.0)):
        bad = int(np.argmax(~(arr > 0.0)))
        raise DataError(
            f"confidence c[{bad}] = {float(arr[bad])!r} is not in (0, 1]"
        )
    if np.any(arr > 1.0 + 1e-12):
        bad = int(np.argmax(arr > 1.0 + 1e-12))
        raise DataError(f"confidence c[{bad}] = {float(arr[bad])!r} exceeds 1")
    return np.minimum(arr, 1.0)


def _underflow_message(alpha, names) -> str:
    """What is wrong with a weighting scope whose c^alpha all underflow to
    0, so that normalizing them would divide 0 by 0, naming alpha and the
    utterances, each once."""
    names = ", ".join(map(str, dict.fromkeys(names)))
    return (
        f"confidences of utterances {names} raised to alpha {alpha:g} underflow "
        f"to 0, so their weights' mean is 0 and the weights are undefined"
    )


def packed_weights(powered: np.ndarray, sums, alpha, names) -> np.ndarray:
    """Token weights lambda = c^alpha normalized to mean 1 over one scope.

    ``powered`` holds the scope's c^alpha in one flat array, utterance after
    utterance, and ``sums`` each utterance's own ``np.sum`` of them, in the
    same order.  The mean is those sums added in order (Python ``sum``) over
    the scope's token count.  A mean of 0, where every c^alpha of the scope
    underflows, raises NumericalError naming ``alpha`` and ``names``, the
    caller's names for the scope's non-empty utterances.
    """
    norm = sum(sums) / powered.size
    if norm == 0.0:
        raise NumericalError(_underflow_message(alpha, names))
    return powered / norm


def compute_weights(
    confidences: Union[ConditionalProfile, Sequence, np.ndarray],
    config: WeightConfig,
):
    """Weights lambda = c^alpha normalized to mean 1 over every token of the
    call (``packed_weights``).

    Accepts one confidence vector (or ConditionalProfile) and returns one
    TokenWeights, or a sequence of them and returns a list.  A normalizer
    of 0, where every c^alpha underflows, raises NumericalError naming alpha
    and the non-empty vectors' positions in the call.
    """
    if isinstance(confidences, (ConditionalProfile, np.ndarray)):
        single = True
    elif isinstance(confidences, (list, tuple)):
        # A flat list of numbers is one utterance's confidence vector; a
        # list of vectors/profiles is a batch scope.
        single = bool(confidences) and np.isscalar(confidences[0])
    else:
        single = True
    profiles = [confidences] if single else list(confidences)
    if not profiles:
        raise DataError("empty confidence scope: nothing to weight")
    powered = [confidence_array(p) ** config.alpha for p in profiles]
    sizes = [p.size for p in powered]
    if sum(sizes) == 0:
        raise DataError("empty confidence scope: zero tokens across utterances")
    names = [i for i, size in enumerate(sizes) if size]
    flat = packed_weights(
        np.concatenate(powered), [float(np.sum(p)) for p in powered], config.alpha, names
    )
    out = [TokenWeights(lambdas=w, config=config) for w in np.split(flat, np.cumsum(sizes)[:-1])]
    return out[0] if single else out


def _padded_weights(weights, U):
    """Token weights of a padded batch as a zero-padded (B, Umax) table, and
    the sentence-end weights (B,).  ``weights`` holds one TokenWeights per
    label count in ``U``; mis-sized, negative or non-finite weights raise
    DataError."""
    U = np.asarray(U, dtype=np.int64)
    if len(weights) != U.size:
        raise DataError(f"{len(weights)} weight vectors for {U.size} utterances")
    rows = [np.asarray(w.lambdas, dtype=np.float64).ravel() for w in weights]
    sizes = np.array([r.size for r in rows], dtype=np.int64)
    if np.any(sizes != U):
        b = int(np.argmax(sizes != U))
        raise DataError(f"weights/labels mismatch: {sizes[b]} weights for {U[b]} tokens")
    flat = np.concatenate(rows)
    if not np.all((flat >= 0) & (flat < np.inf)):  # NaN fails both
        raise DataError("token weights must be finite and nonnegative")
    lam = np.zeros((U.size, int(U.max())))
    lam[np.arange(lam.shape[1]) < U[:, None]] = flat
    w_fb = np.array([float(w.config.final_blank_weight) for w in weights])
    return lam, w_fb


def _prepare(lattice: PosteriorLattice, y, weights: TokenWeights):
    labels = as_labels(y)
    check_dims(lattice, labels)
    return labels, *_padded_weights([weights], [labels.size])


def _padded_losses(prefix, loglik, lam, w_fb, U) -> list:
    """Weighted loss of every utterance of a padded batch, from its prefix
    masses and log-likelihood: a sequential sum of the token terms from 0.0,
    then the sentence-end term.  The first utterance with a zero-probability
    prefix, or a zero-probability sequence under a nonzero sentence-end
    weight, raises NumericalError."""
    U = np.asarray(U, dtype=np.int64)
    B, Umax = lam.shape
    b = np.arange(B)
    valid = np.arange(1, Umax + 1) <= U[:, None]
    zero = valid & (prefix[:, 1:] == -np.inf)
    bad = zero.any(axis=1) | ((w_fb != 0.0) & (loglik == -np.inf))
    if bad.any():
        first = int(np.argmax(bad))
        if zero[first].any():
            u = int(np.argmax(zero[first])) + 1
            raise NumericalError(
                f"prefix y[:{u}] has zero probability; weighted loss is undefined"
            )
        raise NumericalError(
            "sequence has zero probability; the sentence-end term is undefined"
        )
    steps = np.zeros((B, Umax + 1))
    with np.errstate(invalid="ignore"):
        steps[:, 1:] = np.where(valid, lam * (prefix[:, :-1] - prefix[:, 1:]), 0.0)
        tokens = np.cumsum(steps, axis=1)[b, U]
        closed = tokens + w_fb * (prefix[b, U] - loglik)
    return np.where(w_fb != 0.0, closed, tokens).tolist()


def weighted_rnnt_loss(lattice: PosteriorLattice, y, weights: TokenWeights) -> float:
    """sum_u lambda_u * (-log c_u) + final_blank_weight * (-final_blank_logp).

    With lambda = 1 and final_blank_weight = 1 this equals the standard loss.
    """
    labels, lam, w_fb = _prepare(lattice, y, weights)
    _, _, prefix, loglik = kernels.PaddedColumns.of(lattice.logp, labels).sweep()
    return _padded_losses(prefix, loglik, lam, w_fb, [labels.size])[0]


def weighted_rnnt_loss_grad(
    lattice: PosteriorLattice, y, weights: TokenWeights
) -> np.ndarray:
    """Exact gradient of ``weighted_rnnt_loss`` w.r.t. the lattice table,
    from one reverse sweep over the emission recursion."""
    _, grad = weighted_loss_and_grad(lattice, y, weights)
    return grad


def weighted_loss_and_grad(lattice: PosteriorLattice, y, weights: TokenWeights):
    """(loss, gradient) in one pass: ``padded_loss_and_grad`` on a batch of one."""
    labels, lam, w_fb = _prepare(lattice, y, weights)
    cols = kernels.PaddedColumns.of(lattice.logp, labels)
    (loss,), g_blank, g_emit = padded_loss_and_grad(cols, lam, w_fb)
    return loss, kernels.dense_grad(g_blank, g_emit, 0, lattice.T, labels, lattice.logp.shape[2])


def padded_loss_and_grad(cols: kernels.PaddedColumns, lam, final_blank_weight):
    """Per-utterance weighted losses and column gradients of a padded batch,
    from one emission sweep and one gradient sweep; the training loop's
    workhorse.

    ``lam`` (B, Umax) holds each row's token weights, zero-padded, and
    ``final_blank_weight`` (B,) its sentence-end weight, as
    ``kernels.weighted_grad`` takes them.  Returns (losses, g_blank,
    g_emit); ``kernels.dense_grad`` turns a row of the column gradients into
    the dense gradient of that utterance's loss.  A zero-probability prefix
    in any utterance raises NumericalError.
    """
    w_fb = np.asarray(final_blank_weight, dtype=np.float64)
    sweep = cols.sweep()
    _, _, prefix, loglik = sweep
    losses = _padded_losses(prefix, loglik, lam, w_fb, cols.U)
    g_blank, g_emit = cols.grad(sweep, lam, w_fb)
    return losses, g_blank, g_emit
