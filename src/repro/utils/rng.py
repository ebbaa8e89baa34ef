"""Deterministic random-number helpers.

Every stochastic component in the library accepts either a seed or a
``numpy.random.Generator``.  Centralising the conversion here keeps every
experiment reproducible from a single integer seed.
"""

from __future__ import annotations

from typing import Union

import numpy as np

SeedLike = Union[int, np.random.Generator, None]

_DEFAULT_SEED = 0x70B1C  # "TOPIC(k)"


def make_rng(seed: SeedLike = None) -> np.random.Generator:
    """Return a ``numpy.random.Generator`` from a seed or pass one through.

    ``None`` maps to a fixed library-wide default so that *omitting* a seed
    still yields deterministic results (important for tests and benchmarks).
    """
    if isinstance(seed, np.random.Generator):
        return seed
    if seed is None:
        seed = _DEFAULT_SEED
    return np.random.default_rng(seed)
