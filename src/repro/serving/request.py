"""Request/response surface of the serving engine.

A :class:`GenerationRequest` carries a sequence's prompt-phase K/V (the
tensors the engine calibrates quantization scales from and prefills into
the KV pool) plus a decode-step source that yields the per-step
``(q, k_t, v_t)`` triples an upstream model would produce.  The engine
attaches a :class:`RequestStats` to every request — per-request DRAM
traffic, clip events and queue/service latency in steps — and hands back a
:class:`CompletedRequest` when the sequence retires.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Optional, Tuple

import numpy as np

from repro.core.pruning import AccessCounter

#: One decode step's new tensors: ``(q (H, d), k_t (H, d), v_t (H, d))``.
StepTensors = Tuple[np.ndarray, np.ndarray, np.ndarray]
#: Called with the 0-based decode-step index of the sequence.
StepSource = Callable[[int], StepTensors]


class RequestState(str, Enum):
    """Lifecycle of a request inside an engine (or a cluster replica).

    ``QUEUED -> PREFILLING -> RUNNING -> FINISHED`` is the
    conservative-admission path: admission reserves blocks and the prompt
    is then ingested in budgeted chunks (one step under an unbounded
    prefill budget, several under a finite one) before the first decode
    step.  Optimistic admission adds the ``PREFILLING/RUNNING <->
    PREEMPTED`` cycle — a preempted sequence's KV segments (possibly a
    partially-ingested prompt) are swapped out of the arena and the
    request resumes (bit-identically) once headroom returns.

    ``CANCELLED`` and ``TIMED_OUT`` are the two *abort* terminals
    (client disconnect vs deadline breach): the request's KV — queued,
    mid-prefill, decoding or swapped out — is released immediately via
    :meth:`repro.serving.engine.ServingEngine.cancel`, returning arena
    blocks, tier state and radix refcounts exactly to baseline.

    A live request can also leave an engine without terminating: withdrawn
    while queued, exported while preempted (it stays ``PREEMPTED`` until
    another engine adopts it), or lost with a dead arena (reset to
    ``QUEUED`` for re-prefill).  The engine sets the state in one place
    and releases every exit through one path;
    :meth:`repro.obs.trace.Tracer.request_event` maps each state to the
    trace spans it opens.
    """

    QUEUED = "queued"
    PREFILLING = "prefilling"
    RUNNING = "running"
    PREEMPTED = "preempted"
    FINISHED = "finished"
    CANCELLED = "cancelled"
    TIMED_OUT = "timed_out"

    @property
    def terminal(self) -> bool:
        """Whether the request can make no further progress."""
        return self in (
            RequestState.FINISHED,
            RequestState.CANCELLED,
            RequestState.TIMED_OUT,
        )


@dataclass
class GenerationRequest:
    """One sequence's admission ticket into the serving engine.

    Attributes:
        prompt_keys / prompt_values: (H, t, d) prompt-phase tensors; they
            seed the KV pool and freeze the per-head quantization scales.
        max_new_tokens: decode steps to run before the request retires.
        queries: optional (H, t, d) prompt-phase queries for Q-scale
            calibration (K statistics stand in when absent).
        step_source: per-step ``(q, k_t, v_t)`` generator; when ``None``
            the engine synthesises a query-aligned stream from ``seed``.
        seed: seed for the default synthetic step source.
        request_id: assigned by the engine at submit time.
        deadline_ms: optional end-to-end deadline (milliseconds from
            ``submitted_wall``); the frontend's deadline sweep moves the
            request to ``TIMED_OUT`` and frees its KV when breached.
        submitted_wall: wall-clock submit stamp (``time.perf_counter``
            domain; < 0 until the engine stamps it at submit).
    """

    prompt_keys: np.ndarray
    prompt_values: np.ndarray
    max_new_tokens: int
    queries: Optional[np.ndarray] = None
    step_source: Optional[StepSource] = None
    seed: Optional[int] = None
    request_id: Optional[int] = None
    state: RequestState = RequestState.QUEUED
    deadline_ms: Optional[float] = None
    submitted_wall: float = -1.0

    def __post_init__(self) -> None:
        self.prompt_keys = np.asarray(self.prompt_keys, dtype=np.float64)
        self.prompt_values = np.asarray(self.prompt_values, dtype=np.float64)
        if self.prompt_keys.ndim != 3:
            raise ValueError(
                f"prompt_keys must be (H, t, d), got {self.prompt_keys.shape}"
            )
        if self.prompt_values.shape != self.prompt_keys.shape:
            raise ValueError(
                f"prompt_values shape {self.prompt_values.shape} must match "
                f"prompt_keys shape {self.prompt_keys.shape}"
            )
        if self.prompt_keys.shape[1] < 1:
            raise ValueError("prompt must contain at least one token")
        if self.max_new_tokens < 1:
            raise ValueError(
                f"max_new_tokens must be >= 1, got {self.max_new_tokens}"
            )
        if self.queries is not None:
            self.queries = np.asarray(self.queries, dtype=np.float64)
            if self.queries.ndim != 3 or self.queries.shape[0] != self.prompt_keys.shape[0]:
                raise ValueError("queries must be (H, t, d)")
        if self.deadline_ms is not None and self.deadline_ms <= 0:
            raise ValueError(
                f"deadline_ms must be > 0, got {self.deadline_ms}"
            )

    @property
    def n_heads(self) -> int:
        return self.prompt_keys.shape[0]

    @property
    def prompt_tokens(self) -> int:
        return self.prompt_keys.shape[1]

    @property
    def head_dim(self) -> int:
        return self.prompt_keys.shape[2]

    @property
    def total_tokens(self) -> int:
        """KV-pool footprint when the request finishes."""
        return self.prompt_tokens + self.max_new_tokens


@dataclass
class RequestStats:
    """Per-request traffic, clipping and latency accounting.

    Traffic is accumulated into an :class:`AccessCounter` (same unit and
    semantics as the model backends), so a request's KV-bit reduction is
    directly comparable to the paper's Fig. 8 numbers.  Latencies are in
    engine steps: one step is one fused batched decode iteration.
    """

    prompt_tokens: int = 0
    generated_tokens: int = 0
    clip_events: int = 0
    #: chunks the prompt was ingested in (1 = monolithic prefill; more
    #: under a finite per-step prefill token budget)
    prefill_chunks: int = 0
    #: prompt tokens whose cold-tier ingest was served by the prefix
    #: cache (0 when no :class:`repro.kvstore.radix.RadixKVCache` is
    #: attached to the engine)
    prefix_hit_tokens: int = 0
    counter: AccessCounter = field(default_factory=AccessCounter)
    submitted_step: int = -1
    admitted_step: int = -1
    finished_step: int = -1
    #: times the sequence was swapped out of the arena under pool pressure
    preemptions: int = 0
    #: engine steps spent swapped out (decode made no progress)
    preempted_steps: int = 0
    #: running sum / count of the per-step estimated attention probability
    #: mass *retained* after pruning (Eq. 5 certified bounds: 1 minus the
    #: summed upper bounds of the pruned tokens, averaged over heads) —
    #: the victim-selection signal for probability-guided preemption
    retained_mass_sum: float = 0.0
    retained_mass_steps: int = 0
    #: wall-clock stamps (``time.perf_counter`` domain; < 0 when unset) —
    #: the cluster metrics registry derives TTFT, queue-wait, prefill and
    #: end-to-end latency percentiles from these.  ``queued_wall`` is
    #: stamped at submit, ``prefill_start_wall`` when the first prompt
    #: chunk is ingested, ``first_token_wall`` at the first *decoded*
    #: token — so queue wait and prefill time stay separable even when
    #: chunked prefill spreads ingestion across many steps.
    queued_wall: float = -1.0
    prefill_start_wall: float = -1.0
    first_token_wall: float = -1.0
    finished_wall: float = -1.0

    @property
    def queue_delay_steps(self) -> int:
        """Steps spent waiting for admission (continuous-batching queue)."""
        if self.admitted_step < 0:
            return -1
        return self.admitted_step - self.submitted_step

    @property
    def mean_retained_mass(self) -> float:
        """Mean estimated attention mass kept per decode step (1.0 = all).

        Sequences whose queries concentrate on few tokens prune hard and
        retain *less* certified mass headroom; the preemption policy
        targets the lowest value (cheapest to re-prefill relative to the
        attention mass it is serving).
        """
        if self.retained_mass_steps == 0:
            return 1.0
        return self.retained_mass_sum / self.retained_mass_steps

    @property
    def ttft_seconds(self) -> float:
        """Wall-clock time from submit to the first *decoded* token
        (< 0 when unset) — queue wait plus prefill time."""
        if self.first_token_wall < 0 or self.queued_wall < 0:
            return -1.0
        return self.first_token_wall - self.queued_wall

    @property
    def queue_wait_seconds(self) -> float:
        """Wall-clock time from submit to the first prompt chunk landing
        in the pool (< 0 when unset) — the admission-queue share of TTFT."""
        if self.prefill_start_wall < 0 or self.queued_wall < 0:
            return -1.0
        return self.prefill_start_wall - self.queued_wall

    @property
    def prefill_seconds(self) -> float:
        """Wall-clock time from the first prompt chunk to the first
        decoded token (< 0 when unset) — the prefill share of TTFT."""
        if self.first_token_wall < 0 or self.prefill_start_wall < 0:
            return -1.0
        return self.first_token_wall - self.prefill_start_wall

    @property
    def e2e_seconds(self) -> float:
        """Wall-clock submit-to-finish latency (< 0 when unset)."""
        if self.finished_wall < 0 or self.queued_wall < 0:
            return -1.0
        return self.finished_wall - self.queued_wall


@dataclass(frozen=True)
class CompletedRequest:
    """Terminal response for one retired request.

    ``state`` records *how* the request terminated: ``FINISHED`` for a
    normally retired sequence, ``CANCELLED``/``TIMED_OUT`` for aborts
    (whose partial stats are still meaningful — generated tokens up to
    the abort point, preemptions, traffic).
    """

    request_id: int
    stats: RequestStats
    state: RequestState = RequestState.FINISHED

    @property
    def generated_tokens(self) -> int:
        return self.stats.generated_tokens


def synthetic_step_source(
    rng: np.random.Generator, n_heads: int, head_dim: int
) -> StepSource:
    """Default decode stream: queries aligned with the step's own key.

    Mirrors the structure the session tests use — the new token's query
    correlates with recent keys, so attention has dominant tokens to find
    and the pruner has realistic work to do.
    """

    def source(step: int) -> StepTensors:
        k = rng.normal(size=(n_heads, head_dim))
        v = rng.normal(size=(n_heads, head_dim))
        q = 2.0 * k + 0.3 * rng.normal(size=(n_heads, head_dim))
        return q, k, v

    return source


def replayable_step_source(
    rng: np.random.Generator, n_heads: int, head_dim: int, n_steps: int
):
    """A :func:`synthetic_step_source`-distributed stream, pre-drawn.

    Returns ``(source, stream)``: the source replays the recorded
    ``stream`` (a list of ``(q, k_t, v_t)``), so a per-sequence session
    can be fed the exact same tensors the engine consumed — the basis of
    the fused-vs-looped bit-identity comparisons in the example and the
    engine tests.
    """
    stream = []
    for _ in range(n_steps):
        k = rng.normal(size=(n_heads, head_dim))
        v = rng.normal(size=(n_heads, head_dim))
        q = 2.0 * k + 0.3 * rng.normal(size=(n_heads, head_dim))
        stream.append((q, k, v))

    def source(step: int) -> StepTensors:
        return stream[step]

    return source, stream


def synthetic_request(
    rng: np.random.Generator,
    n_heads: int,
    prompt_tokens: int,
    head_dim: int,
    max_new_tokens: int,
) -> GenerationRequest:
    """A fully synthetic request (prompt + reproducible decode stream)."""
    keys = rng.normal(size=(n_heads, prompt_tokens, head_dim))
    values = rng.normal(size=(n_heads, prompt_tokens, head_dim))
    seed = int(rng.integers(0, 2**31 - 1))
    return GenerationRequest(
        prompt_keys=keys,
        prompt_values=values,
        max_new_tokens=max_new_tokens,
        seed=seed,
    )
