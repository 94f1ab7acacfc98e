"""Reproducible random-number management.

Every stochastic component in the library takes an explicit
``numpy.random.Generator``.  These helpers create generators from integer
seeds and spawn statistically independent child generators, so experiments
are reproducible and hot/cold acquisitions use independent noise.
"""

from __future__ import annotations

from typing import List, Union

import numpy as np

GeneratorLike = Union[int, np.random.Generator, None]


def make_rng(seed: GeneratorLike = None) -> np.random.Generator:
    """Return a ``numpy.random.Generator``.

    ``seed`` may be ``None`` (OS entropy), an integer seed, or an existing
    generator (returned unchanged so callers can pass either form).
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def spawn_rngs(seed: GeneratorLike, count: int) -> List[np.random.Generator]:
    """Spawn ``count`` independent child generators from one seed.

    Uses ``SeedSequence.spawn`` so children are independent regardless of
    how many draws each consumes.
    """
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    if isinstance(seed, np.random.Generator):
        seq = seed.bit_generator.seed_seq
    else:
        seq = np.random.SeedSequence(seed)
    return [np.random.default_rng(child) for child in seq.spawn(count)]
