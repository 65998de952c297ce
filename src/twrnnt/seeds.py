"""Deterministic, splittable random streams.

Every stream in the package derives from one root seed through
``numpy.random.SeedSequence`` spawn keys: ``stream(root, "corrupt", 3)``
hashes the string labels to uint32 words and uses (label..., index...) as
the spawn key.  Streams are independent of each other and of how many
other streams exist, so adding parallelism or reordering work cannot
change results.
"""

from __future__ import annotations

import zlib

import numpy as np

from .errors import check_count


def _key_word(part) -> int:
    if isinstance(part, str):
        return zlib.crc32(part.encode("utf-8"))
    return int(part) & 0xFFFFFFFF


def seed_sequence(root_seed: int, *path) -> np.random.SeedSequence:
    """The seed sequence of stream ``path`` under ``root_seed``, an integer >= 0."""
    return np.random.SeedSequence(
        entropy=int(check_count(root_seed, "root seed")), spawn_key=tuple(_key_word(p) for p in path)
    )


def stream(root_seed: int, *path) -> np.random.Generator:
    """Named random stream: stream(seed, "datagen", "train") etc."""
    return np.random.default_rng(seed_sequence(root_seed, *path))
