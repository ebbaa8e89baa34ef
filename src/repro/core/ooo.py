"""Out-of-order score calculation (Sec. 3.2, Fig. 5) — algorithm level.

On-demand chunk fetches are only practical if the engine does *something
else* while a requested chunk is in flight.  This module models that
mechanism with an abstract fixed-latency memory so the scheduling behaviour
can be studied (and property-tested) independently of the full HBM2 channel
model in :mod:`repro.hw`:

1. First chunks of K vectors are requested in processing order.
2. Whenever *any* chunk arrives, its partial score is computed (fetching the
   previous partial result from the Scoreboard for downstream chunks), the
   probability bound is updated, and the prune decision is made.
3. Not pruned -> the next chunk of that key is requested (high priority) and
   the partial result parked in the Scoreboard; pruned -> the engine simply
   continues with other tokens.

``in_order=True`` degenerates to the blocking pipeline (one outstanding
request, wait for every dependent chunk): this reproduces exactly the
depth-first functional schedule and is the ablation that quantifies what
the Scoreboard buys (the paper's 1.32x speedup factor).
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass
from typing import Deque, List, Optional, Tuple

import numpy as np

from repro.core.config import TokenPickerConfig
from repro.core.estimator import DenominatorAggregator, PruneRule
from repro.core.margins import margin_pairs
from repro.core.ordering import processing_order
from repro.core.pruning import PruneStats, _chunk_score_table, _quantize_operands


@dataclass(frozen=True)
class OoOConfig:
    """Timing/resource parameters of the algorithm-level engine."""

    dram_latency: int = 40  # cycles between request issue and data ready
    requests_per_cycle: int = 1
    process_per_cycle: int = 1
    scoreboard_entries: int = 32  # paper: 32-entry scoreboard per lane
    in_order: bool = False

    def __post_init__(self) -> None:
        if self.dram_latency < 1:
            raise ValueError("dram_latency must be >= 1")
        if self.requests_per_cycle < 1 or self.process_per_cycle < 1:
            raise ValueError("per-cycle rates must be >= 1")
        if self.scoreboard_entries < 1:
            raise ValueError("scoreboard_entries must be >= 1")


@dataclass
class OoOResult:
    """Decisions plus timing of one out-of-order step-0 execution."""

    kept: np.ndarray
    chunks_fetched: np.ndarray
    cycles: int
    busy_cycles: int
    requests_issued: int
    max_scoreboard_occupancy: int
    stats: PruneStats

    @property
    def utilization(self) -> float:
        """Fraction of cycles the PE processed a chunk (paper's motivation)."""
        return self.busy_cycles / self.cycles if self.cycles else 1.0


class OutOfOrderEngine:
    """Single-lane out-of-order chunk scheduler.

    Drives the same estimator mathematics as
    :func:`repro.core.pruning.token_picker_scores` but interleaved with a
    latency model, so prune decisions depend on *arrival* order.  All
    decision paths remain certified-safe (the denominator only ever contains
    true lower bounds of real tokens).
    """

    def __init__(self, config: TokenPickerConfig, timing: OoOConfig) -> None:
        self.config = config
        self.timing = timing

    def run(
        self,
        q: np.ndarray,
        keys: np.ndarray,
        q_scale: Optional[float] = None,
        k_scale: Optional[float] = None,
    ) -> OoOResult:
        """Execute step 0 for one query over ``keys`` (t, d)."""
        quant = self.config.quant
        keys = np.asarray(keys, dtype=np.float64)
        n_tokens = keys.shape[0]
        head_dim = int(np.asarray(q).shape[-1])
        if n_tokens == 0:
            return OoOResult(
                kept=np.zeros(0, dtype=bool),
                chunks_fetched=np.zeros(0, dtype=np.int64),
                cycles=0,
                busy_cycles=0,
                requests_issued=0,
                max_scoreboard_occupancy=0,
                stats=PruneStats(0, 0, 0, 0, head_dim, quant),
            )

        q_codes, k_codes, score_scale = _quantize_operands(
            q, keys, quant, q_scale, k_scale
        )
        ps = _chunk_score_table(q_codes, k_codes, quant)
        margins = margin_pairs(q_codes, quant)
        n_chunks = quant.n_chunks
        guard_start = max(0, n_tokens - self.config.prompt_guard)

        rule = PruneRule(self.config.log_threshold)
        dag = DenominatorAggregator()
        order = list(processing_order(n_tokens, self.config.order))

        kept = np.zeros(n_tokens, dtype=bool)
        chunks_fetched = np.zeros(n_tokens, dtype=np.int64)
        finalized = np.zeros(n_tokens, dtype=bool)

        # --- scheduler state -------------------------------------------------
        first_ptr = 0  # next index into `order` whose chunk 0 is unrequested
        high_q: Deque[Tuple[int, int]] = deque()  # downstream (token, chunk)
        in_flight: List[Tuple[int, int, int, int]] = []  # (ready, seq, tok, chunk)
        ready: Deque[Tuple[int, int]] = deque()  # arrived, waiting to process
        open_tokens = 0  # requested but not finalized (scoreboard pressure)
        seq = 0
        cycle = 0
        busy = 0
        issued = 0
        max_occ = 0
        blocking = self.timing.in_order

        def all_done() -> bool:
            return bool(finalized.all())

        while not all_done():
            # 1) Retire arrivals whose data is ready this cycle.
            while in_flight and in_flight[0][0] <= cycle:
                _, _, tok, chunk = heapq.heappop(in_flight)
                ready.append((tok, chunk))

            # 2) Process up to process_per_cycle ready chunks.
            processed = 0
            while ready and processed < self.timing.process_per_cycle:
                tok, chunk = ready.popleft()
                processed += 1
                b = chunk + 1  # chunks now known
                chunks_fetched[tok] = b
                s_min = float(ps[tok, b - 1] + margins.mins[b]) * score_scale
                s_max = float(ps[tok, b - 1] + margins.maxs[b]) * score_scale
                dag.submit(tok, s_min)
                decision = rule.check(s_max, dag.log_denominator)
                guarded = tok >= guard_start
                if decision.pruned and not guarded:
                    finalized[tok] = True
                    open_tokens -= 1
                elif b == n_chunks:
                    kept[tok] = True
                    finalized[tok] = True
                    open_tokens -= 1
                else:
                    high_q.append((tok, chunk + 1))
            busy += 1 if processed else 0

            # 3) Issue requests.
            slots = self.timing.requests_per_cycle
            while slots > 0:
                if blocking and (in_flight or ready or high_q):
                    # In-order pipeline: at most one outstanding request and
                    # downstream chunks are requested only from process time —
                    # but processing happens above, so drain high_q here when
                    # nothing is in flight.
                    if high_q and not in_flight and not ready:
                        tok, chunk = high_q.popleft()
                        seq += 1
                        issued += 1
                        heapq.heappush(
                            in_flight,
                            (cycle + self.timing.dram_latency, seq, tok, chunk),
                        )
                    break
                if high_q:
                    tok, chunk = high_q.popleft()
                elif first_ptr < len(order) and open_tokens < self.timing.scoreboard_entries:
                    tok, chunk = order[first_ptr], 0
                    first_ptr += 1
                    open_tokens += 1
                    max_occ = max(max_occ, open_tokens)
                else:
                    break
                seq += 1
                issued += 1
                heapq.heappush(
                    in_flight, (cycle + self.timing.dram_latency, seq, tok, chunk)
                )
                slots -= 1
                if blocking:
                    break

            cycle += 1
            if cycle > 10_000_000:
                raise RuntimeError("OoO engine failed to converge (scheduling bug)")

        stats = PruneStats(
            n_tokens=n_tokens,
            n_kept=int(kept.sum()),
            k_chunks_fetched=int(chunks_fetched.sum()),
            v_vectors_fetched=int(kept.sum()),
            head_dim=head_dim,
            quant=quant,
        )
        return OoOResult(
            kept=kept,
            chunks_fetched=chunks_fetched,
            cycles=cycle,
            busy_cycles=busy,
            requests_issued=issued,
            max_scoreboard_occupancy=max_occ,
            stats=stats,
        )
