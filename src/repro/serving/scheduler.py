"""Continuous-batching admission control.

The scheduler owns the pending queue (the serving engine queues one
:class:`~repro.serving.engine.SequenceRecord` per request; the queue
reads items only through the ``can_fit`` / ``prefill`` callbacks).
Requests are admitted FIFO whenever a batch slot *and* enough KV-pool
headroom for the request's admission footprint are available.  Under
the default *conservative* rule the footprint is the full lifetime
(prompt + ``max_new_tokens``), which makes mid-flight pool exhaustion
impossible, so the engine never needs preemption;
:mod:`repro.cluster.memory` supplies the *optimistic* alternative
(prompt-only admission + probability-guided preemption) that trades
that guarantee for batch occupancy.  Finished sequences retire
every step, which is exactly what frees slots and blocks for the next
admission: batches re-fill continuously instead of draining in lockstep.
An optional small-request bypass (``admit(..., allow_bypass=True)``)
relaxes head-of-line blocking without reordering the blocked remainder.

The scheduler does not order the fused kernel's batch: sequences stay
where the KV pool placed them in the arena and the kernel reads them in
place.  :meth:`Scheduler.ragged_utilization` only reports how much a
rectangular pad-to-max batch would have wasted on the same lengths.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, List, Optional, Sequence


class Scheduler:
    """FIFO continuous-batching admission over a shared KV pool."""

    def __init__(
        self,
        max_batch_size: int = 32,
        prefill_budget_tokens: Optional[int] = None,
    ) -> None:
        """``prefill_budget_tokens`` is the per-step token budget the
        engine's step loop honours for *prompt ingestion*, with decode
        priority: every active decode claims one budget token first
        (decode itself is never throttled), and only the leftover is
        spent on prompt chunks — so a step ingests at most
        ``max(budget - n_decoding, 0)`` prompt tokens, the chunked-
        prefill rule that stops a long prompt from stalling co-resident
        decodes.  ``None`` (the default) is unbounded: a prompt ingests
        whole in the step its request is admitted, the monolithic
        behaviour."""
        if max_batch_size < 1:
            raise ValueError(
                f"max_batch_size must be >= 1, got {max_batch_size}"
            )
        if prefill_budget_tokens is not None and prefill_budget_tokens < 1:
            raise ValueError(
                f"prefill_budget_tokens must be >= 1 or None, "
                f"got {prefill_budget_tokens}"
            )
        self.max_batch_size = max_batch_size
        self.prefill_budget_tokens = prefill_budget_tokens
        self.pending: Deque[Any] = deque()
        self.bypassed_total = 0

    # ------------------------------------------------------------- admission
    def submit(self, item: Any) -> None:
        self.pending.append(item)

    @property
    def n_pending(self) -> int:
        return len(self.pending)

    def admit(
        self,
        can_fit: Callable[[Any], bool],
        n_active: int,
        prefill: Callable[[Any], None],
        allow_bypass: bool = False,
    ) -> List[Any]:
        """Admit queued requests while slots and pool headroom allow.

        ``can_fit`` is re-evaluated per candidate (each ``prefill`` commits
        blocks, shrinking the headroom the next candidate sees).  FIFO
        order is strict by default — a large request at the head blocks
        later ones until capacity frees up (no starvation of big prompts).

        ``allow_bypass=True`` relaxes head-of-line blocking: once the head
        does not fit, later queued requests that *do* fit are admitted in
        queue order (small-request bypass), leaving the blocked head — and
        the relative order of everything left behind — untouched.  The
        head still gets first claim on headroom every step, so it admits
        as soon as capacity frees up; bypass trades its worst-case wait
        for batch occupancy.
        """
        admitted: List[Any] = []
        while (
            self.pending
            and n_active + len(admitted) < self.max_batch_size
            and can_fit(self.pending[0])
        ):
            request = self.pending.popleft()
            prefill(request)
            admitted.append(request)
        if (
            allow_bypass
            and self.pending
            and n_active + len(admitted) < self.max_batch_size
        ):
            # the head is blocked on headroom but a slot is open: scan
            # the rest of the queue for admissible small requests.  The
            # scan short-circuits the moment slots run out: candidates
            # past that point are unadmittable, so the tail is left in
            # place instead of being popped and re-appended wholesale.
            survivors: List[Any] = [self.pending.popleft()]
            while (
                self.pending
                and n_active + len(admitted) < self.max_batch_size
            ):
                request = self.pending.popleft()
                if can_fit(request):
                    prefill(request)
                    admitted.append(request)
                    self.bypassed_total += 1
                else:
                    survivors.append(request)
            self.pending.extendleft(reversed(survivors))
        return admitted

    # --------------------------------------------------------------- packing
    @staticmethod
    def ragged_utilization(lengths: Sequence[int]) -> float:
        """Packed-token fraction vs a rectangular pad-to-max batch.

        1.0 means the flat packing wastes nothing; a rectangular batch
        would compute ``1 / ragged_utilization`` times more token-rounds.
        """
        if not lengths:
            return 1.0
        longest = max(lengths)
        if longest == 0:
            return 1.0
        return sum(lengths) / (longest * len(lengths))
