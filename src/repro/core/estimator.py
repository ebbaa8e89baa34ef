"""Conservative probability estimation (Sec. 3.1, Eq. 5).

Let ``subset`` be the tokens examined so far and ``b_j`` the number of key
chunks known for token ``j``.  With score bounds
``s_min_j <= s_j <= s_max_j`` from :mod:`repro.core.margins`, define::

    D      = sum_{j in subset} exp(s_min_j)          (lower-bound denominator)
    p''_i  = exp(s_max_i) / D

Then because ``exp`` is positive and monotone and ``subset`` is a subset of
all tokens::

    p''_i >= exp(s_i) / sum_{j in subset} exp(s_j)
          >= exp(s_i) / sum_{all j} exp(s_j)  =  p_i

so ``p''_i <= thr  =>  p_i <= thr`` — pruning on ``p''`` is *certified*: no
token whose true attention probability exceeds the threshold is ever
removed, for any processing order and any chunk progress.  The hardware
evaluates the equivalent log-space predicate
``s_max_i - ln(D) <= ln(thr)`` (Sec. 4, DAG + RPDU); this module does the
same.

:class:`DenominatorAggregator` mirrors the DAG: lanes submit the
*difference* ``exp(s_min^b) - exp(s_min^{b-1})`` whenever a token's bound
tightens, and the module maintains ``ln(D)`` for broadcast.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np

from repro.utils.numerics import RunningLogSum


@dataclass
class PruneDecision:
    """Outcome of one RPDU check."""

    pruned: bool
    log_upper_bound: float  # ln(p'') = s_max - ln(D)
    log_denominator: float


class DenominatorAggregator:
    """Software model of the DAG (Denominator AGgregation module).

    Tracks ``ln(D)`` where ``D = Σ_j exp(s_min_j)`` over every token that has
    submitted at least one lower bound.  Tokens later pruned keep their last
    bound in the sum (exactly as in hardware, where partial-exp differences
    are only ever added) — this is still safe because each retained term is
    a lower bound on a real token's ``exp(s_j)``.
    """

    def __init__(self) -> None:
        self._sum = RunningLogSum()
        self._current: Dict[int, float] = {}

    def __len__(self) -> int:
        return len(self._current)

    @property
    def log_denominator(self) -> float:
        """Current ``ln(D)``; ``-inf`` before any submission."""
        return self._sum.log_value

    def submit(self, token: int, s_min: float) -> None:
        """Submit or tighten the lower bound of ``token``.

        First submission adds ``exp(s_min)``; later submissions must be
        monotonically non-decreasing (margins only shrink) and add the
        difference, as the PEC feeds the DAG.
        """
        s_min = float(s_min)
        if token in self._current:
            old = self._current[token]
            if s_min < old - 1e-9:
                raise ValueError(
                    f"lower bound for token {token} went backwards: {old} -> {s_min}"
                )
            self._sum.replace(old, s_min)
        else:
            self._sum.add(s_min)
        self._current[token] = s_min


@dataclass
class PruneRule:
    """The RPDU predicate: prune iff ``s_max - ln(D) <= ln(thr)``."""

    log_threshold: float

    def check(self, s_max: float, log_denominator: float) -> PruneDecision:
        """Evaluate the prune predicate for one token."""
        if not np.isfinite(log_denominator):
            # Empty denominator: p'' is unbounded, never prune.
            return PruneDecision(False, np.inf, log_denominator)
        log_ub = float(s_max) - float(log_denominator)
        return PruneDecision(log_ub <= self.log_threshold, log_ub, log_denominator)


def certified_upper_bounds(
    s_max: np.ndarray, log_denominator: float
) -> np.ndarray:
    """``p''`` values (linear domain) for reporting and tests."""
    s_max = np.asarray(s_max, dtype=np.float64)
    if not np.isfinite(log_denominator):
        return np.full(s_max.shape, np.inf)
    return np.exp(np.clip(s_max - log_denominator, -700.0, 700.0))


def true_probabilities(scores: np.ndarray) -> np.ndarray:
    """Exact softmax probabilities of full-precision scores (reference)."""
    scores = np.asarray(scores, dtype=np.float64)
    m = scores.max() if scores.size else 0.0
    e = np.exp(scores - m)
    return e / e.sum()
