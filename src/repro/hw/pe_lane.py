"""PE Lane microarchitecture (Fig. 7) as explicit hardware modules.

Each of the 16 lanes carries (besides the 64-dim multiplier/adder tree):

* :class:`Scoreboard` — 32 x 67-bit entries (token index + 24-bit partial
  score + 32-bit partial exp + bookkeeping, Fig. 7) buffering the partial
  score and partial exp of tokens awaiting their next chunk;
* :class:`PartialExpCalculator` (PEC) — produces ``exp(s_min)`` and the
  *difference* between chunk indices that the DAG aggregates;
* :class:`RequestPruneDecisionUnit` (RPDU) — evaluates
  ``s_max - ln(denominator) <= ln(thr)`` and picks the next request;
* :class:`ProbabilityGenerator` — step 1: final probabilities
  ``exp(s - ln(denominator))`` for unpruned tokens and V requests.

:class:`DAGUnit` is the shared Denominator AGgregation module that collects
the lanes' partial-exp differences each cycle and broadcasts
``ln(denominator)``.

All modules optionally run on the conservative fixed-point EXP/LN units
(:mod:`repro.hw.fixedpoint`); by construction the fixed-point datapath can
only prune a *subset* of what exact arithmetic would, so the certificate
survives (tested in tests/test_pe_lane.py).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np

from repro.hw.fixedpoint import ConservativeExpUnit


class ScoreboardFullError(RuntimeError):
    """Raised when an allocation exceeds the scoreboard capacity."""


@dataclass
class ScoreboardEntry:
    """One in-flight token's buffered partial results."""

    token: int
    chunks_known: int
    partial_score: float  # scaled score units (24-bit fixed point in RTL)
    partial_exp: float  # exp of the current lower bound (32-bit in RTL)


class Scoreboard:
    """Capacity-bounded storage for partial results (per lane)."""

    def __init__(self, capacity: int = 32) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._entries: Dict[int, ScoreboardEntry] = {}
        self.reads = 0
        self.writes = 0
        self.peak_occupancy = 0

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def is_full(self) -> bool:
        return len(self._entries) >= self.capacity

    def store(self, entry: ScoreboardEntry) -> None:
        """Insert or update an entry (counts as one write)."""
        if entry.token not in self._entries and self.is_full:
            raise ScoreboardFullError(
                f"scoreboard full ({self.capacity} entries)"
            )
        self._entries[entry.token] = entry
        self.writes += 1
        self.peak_occupancy = max(self.peak_occupancy, len(self._entries))

    def fetch(self, token: int) -> ScoreboardEntry:
        """Read an entry (one read); KeyError if absent."""
        self.reads += 1
        return self._entries[token]

    def release(self, token: int) -> None:
        """Free an entry once the token is finalized."""
        self._entries.pop(token, None)

    def contains(self, token: int) -> bool:
        return token in self._entries


class PartialExpCalculator:
    """PEC: ``exp(s_min)`` and deltas between chunk indices.

    Lower-bound exponentials are rounded *down* (fixed-point mode) so the
    aggregated denominator never exceeds the true one.
    """

    def __init__(self, exp_unit: Optional[ConservativeExpUnit] = None) -> None:
        self.exp_unit = exp_unit
        self.evaluations = 0

    def partial_exp(self, s_min: float) -> float:
        self.evaluations += 1
        if self.exp_unit is not None:
            return self.exp_unit.exp_lower(s_min)
        return math.exp(min(s_min, 700.0))

    def delta(self, new_s_min: float, previous_exp: float) -> Tuple[float, float]:
        """(new partial exp, non-negative difference to aggregate)."""
        new_exp = self.partial_exp(new_s_min)
        return new_exp, max(0.0, new_exp - previous_exp)


class DAGUnit:
    """Denominator AGgregation module shared by all lanes.

    Holds the running denominator in linear space (sum of partial exps) and
    broadcasts ``ln(denominator)``; with the fixed-point unit the log is
    rounded down, keeping the RPDU predicate conservative.
    """

    def __init__(self, exp_unit: Optional[ConservativeExpUnit] = None) -> None:
        self.exp_unit = exp_unit
        self._denominator = 0.0
        self.updates = 0

    def aggregate(self, delta: float) -> None:
        if delta < 0:
            raise ValueError("DAG deltas must be non-negative")
        self._denominator += delta
        self.updates += 1

    @property
    def denominator(self) -> float:
        return self._denominator

    @property
    def ln_denominator(self) -> float:
        if self._denominator <= 0.0:
            return -math.inf
        if self.exp_unit is not None:
            return self.exp_unit.ln_lower(self._denominator)
        return math.log(self._denominator)


class RequestPruneDecisionUnit:
    """RPDU: the prune predicate plus request selection."""

    def __init__(self, log_threshold: float) -> None:
        self.log_threshold = log_threshold
        self.decisions = 0
        self.prunes = 0

    def decide(self, s_max: float, ln_denominator: float) -> bool:
        """True -> prune (certified); False -> request the next chunk."""
        self.decisions += 1
        if not math.isfinite(ln_denominator):
            return False
        pruned = (s_max - ln_denominator) <= self.log_threshold
        self.prunes += int(pruned)
        return pruned


class ProbabilityGenerator:
    """Step 1: probabilities of survivors and their V requests."""

    def __init__(self, exp_unit: Optional[ConservativeExpUnit] = None) -> None:
        self.exp_unit = exp_unit
        self.evaluations = 0

    def probability(self, score: float, ln_denominator: float) -> float:
        self.evaluations += 1
        x = score - ln_denominator
        if self.exp_unit is not None:
            return self.exp_unit.exp_lower(x)
        return math.exp(min(x, 700.0))


@dataclass
class LaneDecision:
    """Outcome of processing one chunk in a lane."""

    action: str  # "pruned" | "kept" | "request_next"
    s_min: float
    s_max: float


class PELane:
    """One PE lane: multiplier tree accounting + the Fig. 7 modules."""

    def __init__(
        self,
        lane_id: int,
        log_threshold: float,
        n_chunks: int,
        scoreboard_entries: int = 32,
        exp_unit: Optional[ConservativeExpUnit] = None,
    ) -> None:
        self.lane_id = lane_id
        self.n_chunks = n_chunks
        self.scoreboard = Scoreboard(scoreboard_entries)
        self.pec = PartialExpCalculator(exp_unit)
        self.rpdu = RequestPruneDecisionUnit(log_threshold)
        self.macs = 0

    def process_chunk(
        self,
        token: int,
        chunks_known: int,
        partial_score: float,
        s_min: float,
        s_max: float,
        dag: DAGUnit,
        lane_dim: int,
        guarded: bool = False,
    ) -> LaneDecision:
        """Dot product done by the tree; update scoreboard/DAG and decide.

        ``partial_score``/``s_min``/``s_max`` arrive pre-computed in scaled
        score units (the simulator precomputes the integer chunk table; a
        real lane would produce them with the multiplier tree — we account
        the MACs here).  ``guarded`` tokens (the recent window) are never
        pruned; their RPDU decision is overridden to keep fetching.
        """
        self.macs += lane_dim
        previous_exp = 0.0
        if chunks_known > 1:
            entry = self.scoreboard.fetch(token)
            previous_exp = entry.partial_exp
        new_exp, delta = self.pec.delta(s_min, previous_exp)
        dag.aggregate(delta)

        pruned = self.rpdu.decide(s_max, dag.ln_denominator) and not guarded
        if pruned:
            self.scoreboard.release(token)
            return LaneDecision("pruned", s_min, s_max)
        if chunks_known == self.n_chunks:
            self.scoreboard.release(token)
            return LaneDecision("kept", s_min, s_max)
        self.scoreboard.store(
            ScoreboardEntry(
                token=token,
                chunks_known=chunks_known,
                partial_score=partial_score,
                partial_exp=new_exp,
            )
        )
        return LaneDecision("request_next", s_min, s_max)
