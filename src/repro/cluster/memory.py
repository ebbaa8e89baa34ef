"""Admission and preemption policy: optimistic memory over the KV arena.

The serving engine's default contract is *conservative*: admission
reserves a request's full lifetime footprint (prompt + ``max_new_tokens``)
so decode can never exhaust the pool — and the reserved-but-unwritten tail
of every active sequence sits idle.  This module supplies the alternative
the engine's ``memory_manager`` hook accepts:

* :class:`OptimisticMemory` admits on the *prompt* footprint only (plus a
  configurable block margin) and reserves just that, so far more
  sequences decode concurrently;
* when a sequence's next-token growth cannot be satisfied
  (:class:`~repro.serving.kv_pool.PoolExhausted` at the engine's
  decode-time headroom check), the manager picks a preemption victim by
  **lowest estimated attention probability mass retained** — the
  Token-Picker probability estimates (Eq. 5 certified bounds, accumulated
  per request in :class:`~repro.serving.request.RequestStats`) repurposed
  as the memory-pressure signal: the sequence whose kept KV rows carry the
  least attention mass is the cheapest to swap out, the same
  probabilistic-retention idea as *Learning What to Remember* / *SubGen*.

Preemption swaps the victim's encoded KV segments out of the arena
byte-exactly and re-prefills them on resume, so a preempted-and-resumed
sequence produces bit-identical outputs to an uninterrupted run (property
tested in ``tests/test_cluster.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.serving.engine import VictimCandidate
from repro.serving.request import GenerationRequest


@dataclass(frozen=True)
class OptimisticMemory:
    """Prompt-footprint admission with probability-guided preemption.

    ``margin_blocks`` extra blocks of the engine's pool are required
    (not reserved) at admission so a newly admitted sequence has a few
    steps of guaranteed growth before it can feel pool pressure.
    """

    name: str = "optimistic"
    margin_blocks: int = 1

    def __post_init__(self) -> None:
        if self.margin_blocks < 0:
            raise ValueError(
                f"margin_blocks must be >= 0, got {self.margin_blocks}"
            )

    def admission_tokens(
        self, request: GenerationRequest, block_size: int
    ) -> int:
        """Headroom a request must see to be admitted on a pool of
        ``block_size``-token blocks: prompt + margin, capped at the
        lifetime footprint (a short request never waits for more room
        than it could ever use)."""
        margin = self.margin_blocks * block_size
        return min(request.prompt_tokens + margin, request.total_tokens)

    def reserve_tokens(self, request: GenerationRequest) -> int:
        """Only the prompt is reserved; decode growth is claimed on demand
        (and defended by preemption)."""
        return request.prompt_tokens

    def select_victim(
        self, candidates: Sequence[VictimCandidate]
    ) -> Optional[int]:
        """The sequence retaining the least estimated attention mass.

        Ties (e.g. freshly admitted sequences that have not decoded yet,
        all at the no-data default of 1.0) break toward still-prefilling
        sequences first — a mid-prefill victim has decoded nothing, its
        swap moves only the ingested chunk (``context_length`` counts
        exactly the partially-prefilled footprint), and its un-ingested
        prompt tail costs nothing to evict — then toward the most
        recently admitted (LIFO preserves the oldest sequences'
        progress), then the higher sequence id, so selection is fully
        deterministic.
        """
        if not candidates:
            return None
        best = min(
            candidates,
            key=lambda c: (
                c.retained_mass,
                not c.prefilling,
                -c.admitted_step,
                -c.seq_id,
            ),
        )
        return best.seq_id


@dataclass(frozen=True)
class TieredMemory(OptimisticMemory):
    """Optimistic admission that prices preemption by **hot-tier footprint**.

    With the tiered KV store (:mod:`repro.kvstore`) most of a long-lived
    sequence's tokens are demoted to the cold tier, so a preemption swap
    only has to move the *hot* remainder — admission already counts just
    the prompt footprint (inherited), and victim selection here prefers
    the sequence whose eviction moves the fewest fast-tier bytes,
    breaking ties by lowest retained attention mass.  On an untiered
    engine ``hot_tokens`` equals the context length and this degrades to
    "evict the shortest low-mass sequence".
    """

    name: str = "tiered"

    def select_victim(
        self, candidates: Sequence[VictimCandidate]
    ) -> Optional[int]:
        if not candidates:
            return None
        best = min(
            candidates,
            key=lambda c: (
                c.hot_tokens,
                c.retained_mass,
                not c.prefilling,
                -c.admitted_step,
                -c.seq_id,
            ),
        )
        return best.seq_id


def make_memory_manager(name: str) -> Optional[object]:
    """CLI-facing factory: ``conservative`` -> ``None`` (engine default),
    ``optimistic`` -> :class:`OptimisticMemory`, ``tiered`` ->
    :class:`TieredMemory` (hot-footprint-aware victim selection)."""
    if name == "conservative":
        return None
    if name == "optimistic":
        return OptimisticMemory()
    if name == "tiered":
        return TieredMemory()
    raise ValueError(
        f"unknown admission policy {name!r} "
        "(expected 'conservative', 'optimistic' or 'tiered')"
    )
