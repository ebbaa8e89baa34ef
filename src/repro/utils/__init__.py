"""Shared utilities: deterministic RNG, numerics, bit helpers, formatting."""

from repro.utils.numerics import (
    EXP_CLIP,
    log_softmax,
    logsumexp,
    softmax,
)
from repro.utils.rng import make_rng, spawn_rngs
from repro.utils.tables import format_table

__all__ = [
    "EXP_CLIP",
    "format_table",
    "log_softmax",
    "logsumexp",
    "make_rng",
    "softmax",
    "spawn_rngs",
]
