"""Shared utilities: deterministic RNG, numerics, bit helpers, formatting."""
