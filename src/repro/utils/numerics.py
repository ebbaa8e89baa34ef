"""Numerically-stable primitives used across the estimator and the LM.

The hardware keeps the softmax denominator as ``ln(denominator)`` and
evaluates the prune predicate in log space (Sec. 4 of the paper); the same
log-space discipline is used here so that the Python model and the cycle
simulator agree bit-for-bit on decisions.
"""

from __future__ import annotations

import numpy as np

# exp() inputs are clipped to this magnitude before exponentiation.  Scores
# in the 12-bit fixed-point pipeline are bounded far below this; the clip
# only guards pathological float inputs in the pure-float reference paths.
EXP_CLIP = 700.0


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Stable softmax along ``axis``."""
    x = np.asarray(x, dtype=np.float64)
    m = np.max(x, axis=axis, keepdims=True)
    e = np.exp(x - m)
    return e / np.sum(e, axis=axis, keepdims=True)


class RunningLogSum:
    """Streaming ``ln(Σ exp(s))`` with O(1) add / replace operations.

    Mirror of the hardware DAG arithmetic: the denominator is kept in linear
    space relative to a running offset (the maximum term seen so far) and the
    log is materialised on demand.  Supports the DAG's *update* operation —
    replacing a token's previous lower-bound term ``exp(old)`` with a tighter
    ``exp(new)`` by adding the difference — which is how partial-exp deltas
    from the PE lanes are aggregated.
    """

    __slots__ = ("_offset", "_sum", "_count")

    def __init__(self) -> None:
        self._offset = -np.inf  # current reference exponent
        self._sum = 0.0  # sum of exp(term - offset)
        self._count = 0

    def __len__(self) -> int:
        return self._count

    def _rescale(self, new_offset: float) -> None:
        if new_offset == self._offset:
            return
        if self._sum > 0.0 and np.isfinite(self._offset):
            self._sum *= float(np.exp(np.clip(self._offset - new_offset, -EXP_CLIP, 0.0)))
        self._offset = new_offset

    def add(self, term: float) -> None:
        """Add ``exp(term)`` to the sum."""
        term = float(term)
        if term == -np.inf:
            self._count += 1
            return
        if term > self._offset:
            self._rescale(term)
        self._sum += float(np.exp(np.clip(term - self._offset, -EXP_CLIP, 0.0)))
        self._count += 1

    def replace(self, old_term: float, new_term: float) -> None:
        """Replace a previously-added ``exp(old)`` with ``exp(new)``.

        Requires ``new_term >= old_term`` (lower bounds only tighten as more
        chunks arrive); this keeps the running sum non-decreasing, exactly as
        the DAG only ever *adds* partial-exp differences.
        """
        old_term, new_term = float(old_term), float(new_term)
        if new_term < old_term - 1e-9:
            raise ValueError(
                f"RunningLogSum.replace requires new >= old (got {new_term} < {old_term}); "
                "lower bounds must tighten monotonically"
            )
        if new_term > self._offset:
            self._rescale(new_term)
        delta = np.exp(np.clip(new_term - self._offset, -EXP_CLIP, 0.0)) - np.exp(
            np.clip(old_term - self._offset, -EXP_CLIP, 0.0)
        )
        self._sum += float(max(delta, 0.0))

    @property
    def log_value(self) -> float:
        """Current ``ln(Σ exp(term))``; ``-inf`` when empty."""
        if self._sum <= 0.0 or not np.isfinite(self._offset):
            return -np.inf
        return float(self._offset + np.log(self._sum))
