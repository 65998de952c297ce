"""Emission-time factorized conditional token probabilities.

The sequence probability factors as a product of per-token conditionals
P(y[u] | y[:u]).  Each conditional is the ratio of two prefix masses, and
each prefix mass is the total probability of all partial alignments that
end by emitting that token at some frame: blanks advance frames between
consecutive emissions, so the mass of emitting token u at frame t recurses
over the frame t' where token u-1 was emitted.

One sweep computes all U conditionals plus the sentence-end (final blank)
completion term; nothing is recomputed per token.  The conditionals double
as token confidence scores for the weighted objective.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import DataError, NumericalError, check_count
from .lattice import PosteriorLattice, as_labels, check_dims

__all__ = [
    "ConditionalProfile",
    "conditional_profile",
    "padded_profiles",
    "next_token_distribution",
    "profile_to_json",
]


@dataclass(frozen=True)
class ConditionalProfile:
    """Per-token conditionals c_u = P(y[u] | y[:u]) in (0, 1], plus the
    log-probability of the terminating blank run given the full sequence.

    ``loglik_check`` = sum(log c) + final_blank_logp reproduces the sequence
    log-likelihood, so profile and standard loss telescope to zero.
    """

    conditionals: np.ndarray
    final_blank_logp: float

    @property
    def loglik_check(self) -> float:
        return float(np.sum(np.log(self.conditionals)) + self.final_blank_logp)

    def __len__(self) -> int:
        return len(self.conditionals)


def _columns(lattice: PosteriorLattice, y):
    labels = as_labels(y)
    if labels.size == 0:
        raise DataError("conditional computation needs U >= 1 (no tokens to condition on)")
    check_dims(lattice, labels)
    return kernels.PaddedColumns.of(lattice.logp, labels)


def conditional_profile(lattice: PosteriorLattice, y) -> ConditionalProfile:
    """All token conditionals plus the sentence-end term, in one sweep.

    c_u = exp(prefix_logp[u] - prefix_logp[u-1]); a zero-probability prefix
    raises rather than propagating NaN into training.
    """
    return padded_profiles(_columns(lattice, y))[0]


def padded_profiles(cols: kernels.PaddedColumns) -> list:
    """``conditional_profile`` of every utterance in a padded batch, from
    one emission sweep."""
    _, _, prefix, loglik = cols.sweep()
    return [_profile(prefix[b, : U + 1], loglik[b]) for b, U in enumerate(cols.U)]


def _profile(prefix, loglik) -> ConditionalProfile:
    U = prefix.size - 1
    for u in range(1, U + 1):
        if prefix[u - 1] == -np.inf:
            raise NumericalError(
                f"prefix y[:{u - 1}] has zero probability; conditional at "
                f"position {u} is undefined"
            )
    if prefix[U] == -np.inf:
        raise NumericalError(
            f"prefix y[:{U}] has zero probability; the sentence-end term is undefined"
        )
    conditionals = np.exp(np.diff(prefix))
    return ConditionalProfile(
        conditionals=conditionals,
        final_blank_logp=float(loglik - prefix[U]),
    )


def next_token_distribution(lattice: PosteriorLattice, prefix, u: int) -> np.ndarray:
    """Distribution of the u-th output symbol given the prefix y[:u-1].

    Returns a vector over V tokens plus one terminal slot (last index): the
    probability that the output ends after the prefix, i.e. only blanks
    remain to frame T.  Entries sum to 1.  The lattice must carry rows for
    label levels 0..u-1 (a model lattice for the prefix, or a synthetic
    full lattice).
    """
    labels = as_labels(prefix)
    check_count(u, "position u", 1)
    if u - 1 > labels.size:
        raise DataError(
            f"position u={u} needs a prefix of {u - 1} tokens, got {labels.size}"
        )
    level = u - 1
    if level > lattice.U:
        raise DataError(
            f"lattice has label levels 0..{lattice.U}; position u={u} needs level {level}"
        )
    labels = labels[:level]
    if labels.size and labels.max() >= lattice.blank:
        raise DataError(
            f"token index {int(labels.max())} is not below the blank index {lattice.blank}"
        )
    # Emission sweep for the prefix alone, on the sliced lattice.  Column
    # ``level`` of R is the mass of having emitted the prefix and reached
    # frame t; the sweep's own loglik closes it with the final blank.
    cols = kernels.PaddedColumns.of(lattice.logp[:, : level + 1], labels)
    _, R, prefix_logp, loglik = cols.sweep()
    if prefix_logp[0, level] == -np.inf:
        raise NumericalError(
            f"prefix y[:{level}] has zero probability; next-token distribution "
            "is undefined"
        )
    R = kernels.grid(R, 0, lattice.T, level + 1)
    masses = np.logaddexp.reduce(R[:, level, None] + lattice.logp[:, level, :-1], axis=0)
    return np.exp(np.append(masses, loglik[0]) - prefix_logp[0, level])


def profile_to_json(profile: ConditionalProfile) -> str:
    """Teacher confidence record: {"conditionals": [...], "final_blank_logp": ...}."""
    return json.dumps(
        {
            "conditionals": [float(c) for c in profile.conditionals],
            "final_blank_logp": float(profile.final_blank_logp),
        }
    )
