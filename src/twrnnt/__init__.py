"""Token-weighted transducer loss lab.

Exact lattice dynamic programming for sequence and token-conditional
probabilities, confidence-derived token weights, analytical gradients, a
desk-scale trainable transducer, and experiment engines for pseudo-labeling
and label-corruption protocols on synthetic data.
"""

from .conditionals import (
    ConditionalProfile,
    conditional_profile,
    next_token_distribution,
)
from .errors import ConfigError, DataError, NumericalError, TwrnntError
from .lattice import (
    ForwardBackwardTables,
    PosteriorLattice,
    Vocabulary,
    as_labels,
    backward,
    forward,
    lattice_from_json,
    normalize_logits,
    rnnt_loss,
    rnnt_loss_grad,
)
from .weighting import (
    TokenWeights,
    WeightConfig,
    compute_weights,
    weighted_loss_and_grad,
    weighted_rnnt_loss,
    weighted_rnnt_loss_grad,
)

__version__ = "0.1.0"

__all__ = [
    "ConditionalProfile",
    "ConfigError",
    "DataError",
    "ForwardBackwardTables",
    "NumericalError",
    "PosteriorLattice",
    "TokenWeights",
    "TwrnntError",
    "Vocabulary",
    "WeightConfig",
    "as_labels",
    "backward",
    "compute_weights",
    "conditional_profile",
    "forward",
    "lattice_from_json",
    "next_token_distribution",
    "normalize_logits",
    "rnnt_loss",
    "rnnt_loss_grad",
    "weighted_loss_and_grad",
    "weighted_rnnt_loss",
    "weighted_rnnt_loss_grad",
    "__version__",
]
