"""The multi-sequence serving engine: one fused decode step for N sequences.

:class:`ServingEngine` owns the KV cache of every sequence it serves (a
:class:`~repro.serving.kv_pool.KVCachePool` arena).  The engine hands the
pool raw float K/V; the pool alone knows the stored format (chunk
digits, plane dtype, row size) and encodes each token once, at append
time.  :meth:`ServingEngine.step` runs named stages:

1. **resume** swapped-out sequences, then **admit** queued requests,
   while batch slots and KV-pool headroom allow (the pool takes the
   scales frozen at :meth:`ServingEngine.submit` and the prompt);
2. **prefill**: the pool encodes this step's prompt chunks;
3. **grow** each decoding sequence's arena run by one token (under a
   memory manager, preempting victims when it does not fit);
4. **pack**: draw each decoding sequence's new ``(q, k_t, v_t)`` — a
   draw that is not three finite ``(H, d)`` arrays raises before
   anything is written — count clips against the frozen calibration
   window and append the new token to the pool;
5. **kernel**: **one** fused ragged-batch Token-Picker kernel on the
   arena (:func:`repro.core.pruning.token_picker_attention_ragged`) —
   the breadth-schedule chunk rounds execute once per *batch*, pruning
   decisions bit-identical to stepping each sequence alone — then the
   tier store's and the shard group's reads of its results;
6. **account / retire**: per-request traffic stats; finished sequences
   retire, freeing their blocks.  The finished :class:`EngineStepReport`
   is folded into the engine's totals in one place and, when sampled,
   traced.

A caller that owns its cache and wants one sequence at a time uses
:class:`repro.core.session.TokenPickerSession` instead.  It runs the
batched reference kernel, which shares this engine's kernel's breadth
round step (bounds, ``ln D`` fold, prune predicate) and the
scale-freezing rule, but not its arena, packing or pair rounds.

Every request lives in one :class:`SequenceRecord` from
:meth:`~ServingEngine.submit` to its exit: the scheduler's queue holds
records, and admission gives a record its arena ``seq_id``.  Every
state change goes through ``ServingEngine._transition``, every exit
through ``ServingEngine._finish``; the tracer draws each one on the
request's trace track (the state → span table is at
:meth:`repro.obs.trace.Tracer.request_event`).  A failover hands off
the records themselves (:meth:`~ServingEngine.harvest_for_failover`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

if TYPE_CHECKING:  # engine <-> kvstore: runtime import stays lazy
    from repro.kvstore.radix import PrefixHandle, RadixKVCache
    from repro.kvstore.tiers import TierConfig, TieredKVStore

from repro.core.config import TokenPickerConfig
from repro.core.pruning import (
    AccessCounter,
    KernelScratch,
    PhaseClock,
    PruneStats,
    RaggedSequenceResult,
    token_picker_attention_ragged,
)
from repro.serving.kv_pool import (
    KVCachePool,
    PoolExhausted,
    SequenceScales,
    SwappedSequence,
    freeze_scales,
)
from repro.serving.request import (
    CompletedRequest,
    GenerationRequest,
    RequestState,
    RequestStats,
    StepSource,
    synthetic_step_source,
)
from repro.obs.trace import NULL_TRACER
from repro.serving.scheduler import Scheduler


@dataclass(frozen=True)
class SequenceStepView:
    """One sequence's share of a fused engine step."""

    seq_id: int
    request_id: int
    context_length: int
    stats: PruneStats  # this step's attention accounting (all heads)
    #: fetch-path split by memory tier (``fast_bits + slow_bits ==
    #: stats.total_bits_fetched``); -1 on an untiered engine, where
    #: two-tier pricing charges everything to the fast tier
    fast_bits: int = -1
    slow_bits: int = -1

    @property
    def kept_tokens(self) -> int:
        return self.stats.n_kept


@dataclass
class EngineStepReport:
    """Everything one :meth:`ServingEngine.step` did.

    ``per_sequence`` carries each active sequence's *measured* traffic for
    this step — the quantity :meth:`repro.hw.serving.ServingSimulator.
    price` converts to a :class:`~repro.hw.serving.StepCost`.
    ``prefill_bits`` carries the encoded KV bits of every prompt chunk
    ingested *this step*, so the hardware model prices prefill traffic
    inside the step it happens.  The engine's running totals
    (``peak_concurrency``, ``prefill_chunks_total``, ... ) are folded from
    the finished report, so each equals the sum (or maximum) over the
    reports.
    """

    step_index: int
    admitted: List[int] = field(default_factory=list)  # request ids
    #: request ids swapped out of the arena this step (pool pressure)
    preempted: List[int] = field(default_factory=list)
    #: request ids swapped back in this step (headroom returned)
    resumed: List[int] = field(default_factory=list)
    retired: List[CompletedRequest] = field(default_factory=list)
    n_active: int = 0
    per_sequence: Dict[int, SequenceStepView] = field(default_factory=dict)
    results: Dict[int, RaggedSequenceResult] = field(default_factory=dict)
    ragged_utilization: float = 1.0
    #: wall-clock seconds by phase (:data:`repro.obs.trace.PHASE_ORDER`):
    #: "prefill" (admission and prompt chunks), "pack" (draw/encode/append
    #: of the decode tokens), "score" (partial scores + bounds; inside it
    #: "score_chunk0", the full-width chunk-0 pass, and "score_refine"),
    #: "prune" (breadth rounds), "unpack" (softmax/outputs + accounting)
    phase_seconds: Dict[str, float] = field(default_factory=dict)
    #: KV-tiering movement this step (zero on an untiered engine):
    #: tokens demoted / promoted.  ``tier_reruns`` is always 0 (a step
    #: makes one kernel call); the benchmark recorder still reads it.
    tier_demotions: int = 0
    tier_promotions: int = 0
    tier_reruns: int = 0
    #: chunked-prefill work this step: sequences still mid-prefill after
    #: it, prompt chunks and tokens ingested, and the modelled encoded
    #: bits those tokens wrote (K chunk digits + V) — what the serving
    #: simulator prices as this step's ingest stream
    prefilling: int = 0
    prefill_chunks: int = 0
    prefill_tokens: int = 0
    prefill_bits: int = 0
    #: ``time.perf_counter()`` at the step's start: the wall anchor its
    #: ``engine_step`` span and the router's ``modelled_step`` twin share
    wall_start: float = 0.0
    #: wall-clock seconds of the whole step — the one step-latency float
    #: the router's histograms and the step span's ``wall_seconds`` both
    #: carry, so trace analysis matches live telemetry bit for bit
    wall_seconds: float = 0.0
    #: this step's main kernel call's alive (head, token) pairs entering
    #: each chunk round plus the final kept count — shape
    #: (n_chunks + 1,); None when the step ran no kernel call
    round_alive: Optional[np.ndarray] = None
    #: per-shard interconnect telemetry (``repro.cluster.shard.
    #: ShardStepView``s) on a head-sharded engine, else empty; ``price``
    #: charges the per-shard straggler and the all-gather when non-empty
    shard_views: List = field(default_factory=list)

    @property
    def batch_size(self) -> int:
        return len(self.per_sequence)

    @property
    def tokens_generated(self) -> int:
        return len(self.per_sequence)


@dataclass(eq=False)
class SequenceRecord:
    """One request, from :meth:`ServingEngine.submit` to its exit: queued,
    resident or swapped out.  Records compare by identity.

    It is also what a failover hands off
    (:meth:`ServingEngine.harvest_for_failover`).  Swapped out
    (``swapped`` set), its encoded rows, frozen scales, stats and (already
    advanced) decode stream travel together, so an adopting engine
    continues the sequence bit-identically.
    """

    request: GenerationRequest
    scales: SequenceScales
    stats: RequestStats
    step_source: StepSource
    remaining: int
    #: arena sequence id, assigned at admission in admission order (arena
    #: placement and victim tie-breaks follow it); -1 while queued
    seq_id: int = -1
    #: prompt tokens ingested into the pool so far; the sequence joins
    #: the fused decode batch only once this reaches the prompt length
    prefill_pos: int = 0
    #: the host copy of the rows while swapped out (None while resident)
    swapped: Optional[SwappedSequence] = None
    #: the prefix-cache reference taken at admission (None without a
    #: cache, and once released)
    prefix: "Optional[PrefixHandle]" = None

    @property
    def prefilling(self) -> bool:
        return self.prefill_pos < self.request.prompt_tokens

    @property
    def pending_prompt_tokens(self) -> int:
        """Prompt tokens admitted but not yet written to the pool."""
        return self.request.prompt_tokens - self.prefill_pos


@dataclass(frozen=True)
class VictimCandidate:
    """One active sequence, as the preemption policy sees it.

    ``retained_mass`` is the running mean of the sequence's per-step
    estimated attention probability mass retained after pruning
    (:attr:`repro.serving.request.RequestStats.mean_retained_mass`) —
    the Token-Picker probability estimates repurposed as a
    memory-pressure signal.
    """

    seq_id: int
    request_id: int
    retained_mass: float
    admitted_step: int
    context_length: int
    remaining_tokens: int
    #: fast-tier resident tokens — what a preemption swap actually has to
    #: move (demoted rows already live in the cold tier).  Equals
    #: ``context_length`` on an untiered engine.
    hot_tokens: int = -1
    #: the sequence is still mid-prefill: ``context_length`` counts only
    #: the ingested prompt chunk (the swap footprint), while
    #: ``remaining_tokens`` includes the not-yet-ingested prompt tail —
    #: policies can prefer these victims (no decoded progress to lose)
    prefilling: bool = False


class ServingEngine:
    """Continuous-batching Token-Picker serving over a pooled KV cache."""

    def __init__(
        self,
        config: Optional[TokenPickerConfig] = None,
        *,
        max_batch_size: int = 32,
        safety_factor: float = 1.25,
        capacity_tokens: int = 8192,
        block_size: int = 16,
        seed: int = 0,
        memory_manager=None,
        allow_bypass: bool = False,
        prefill_budget_tokens: Optional[int] = None,
        kv_tiering: "Optional[TierConfig]" = None,
        prefix_cache: "Optional[RadixKVCache]" = None,
        tracer=None,
        trace_label: str = "engine",
        shards: int = 1,
    ) -> None:
        """The engine holds one :class:`SequenceRecord` per request (queued,
        resident or swapped out) and folds each finished step report into
        its totals (``peak_concurrency``, ``prefill_*_total``,
        ``allgather_*_total``, ``round_alive_totals``); the lifecycle
        counters (``preemptions_total``, ``resumes_total``,
        ``adopted_total``) move with each state change.

        ``memory_manager`` switches admission from the conservative
        full-lifetime reservation (``None``, the default — decode can
        never exhaust the pool) to the manager's policy: it decides the
        admission/reservation footprint and, under decode-time pool
        pressure, which active sequence to preempt (see
        :mod:`repro.cluster.memory`).  ``allow_bypass`` enables the
        scheduler's small-request head-of-line bypass.

        ``prefill_budget_tokens`` bounds each step's *prompt ingestion*
        with decode priority: decode itself is never throttled — every
        active sequence claims one budget token first — and only the
        leftover is spent ingesting prompt chunks of admitted-but-
        incomplete requests in admission order, so a long prompt streams
        in over several steps instead of stalling every co-resident
        decode for one monolithic prefill.  ``None`` (default) keeps the
        monolithic behaviour.  Scales are always frozen from the *full*
        prompt at :meth:`submit`, so chunked ingestion is bit-identical
        to monolithic prefill.

        ``kv_tiering`` (a :class:`repro.kvstore.tiers.TierConfig`) layers
        the two-tier KV store (:attr:`tiers`) over the arena: low-mass
        tokens demote to a modelled cold tier and promote back on demand,
        outputs bit-identical to the untiered engine.  The store hears of
        each arena event and reads each step's kernel results in one call
        (:meth:`~repro.kvstore.tiers.TieredKVStore.after_kernel`).
        ``prefix_cache``
        (a :class:`repro.kvstore.radix.RadixKVCache`) dedupes shared
        prompt prefixes into refcounted cold-tier extents.

        ``tracer`` (a :class:`repro.obs.trace.Tracer`) records request
        lifecycle spans and engine step spans under the ``trace_label``
        process track (``"r<id>"`` when owned by a cluster router).
        ``None`` installs the falsy :data:`repro.obs.trace.NULL_TRACER`,
        so every instrumentation site reduces to one truthiness check.

        ``shards`` > 1 runs the engine head-sharded across K modelled
        workers (:class:`repro.cluster.shard.ShardGroup`): one full-width
        pool and kernel call, with every worker's head range reported as
        a :class:`~repro.cluster.shard.ShardStepView` whose kept-token
        all-gather the interconnect term prices.  Outputs stay
        bit-identical to ``shards=1``; a request with fewer heads than
        shards is rejected at :meth:`submit`.
        """
        if safety_factor < 1.0:
            raise ValueError("safety_factor must be >= 1 (headroom only)")
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        self.config = config or TokenPickerConfig()
        if self.config.schedule != "breadth":
            raise ValueError(
                "the serving engine uses the breadth schedule (hardware order)"
            )
        self.safety_factor = safety_factor
        self.scheduler = Scheduler(
            max_batch_size=max_batch_size,
            prefill_budget_tokens=prefill_budget_tokens,
        )
        self._capacity_tokens = capacity_tokens
        self._block_size = block_size
        self._seed = seed
        self.memory_manager = memory_manager
        self.allow_bypass = allow_bypass
        self._tier_config = kv_tiering
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.trace_label = trace_label
        #: sampled-in step spans whose attribute payload was actually
        #: built — benchmarks/test_trace_overhead.py asserts sampling
        #: skips the payload work entirely, not just the emit
        self.trace_payloads_built = 0
        self.tiers: "Optional[TieredKVStore]" = None  # built with the pool
        self.prefix_cache = prefix_cache
        self.pool: Optional[KVCachePool] = None  # built on first pooled admit
        #: (n_heads, head_dim) every request must have: fixed by the first
        #: accepted request, since the pool is built at that width
        self._geometry: Optional[Tuple[int, int]] = None
        self._scratch = KernelScratch()  # fused-kernel work arrays, reused
        self._shards = shards
        self._shard_group = None  # ShardGroup over the pool when shards > 1
        #: engine-layer all-gather bits shipped (pruned) vs the
        #: no-pruning footprint of the same steps — the interconnect
        #: savings Token-Picker's Eq. 5 bounds buy at cluster scale
        self.allgather_bits_total = 0
        self.allgather_baseline_bits_total = 0
        self.counter = AccessCounter()  # engine-wide aggregate
        self.completed: List[CompletedRequest] = []
        #: aborted requests (CANCELLED / TIMED_OUT terminal records)
        self.cancelled: List[CompletedRequest] = []
        self.adopted_total = 0
        self._active: Dict[int, SequenceRecord] = {}
        #: swapped-out sequences, oldest preemption first
        self._preempted: Dict[int, SequenceRecord] = {}
        self._next_seq_id = 0
        self._next_request_id = 0
        self._step_index = 0
        self.peak_concurrency = 0
        self.preemptions_total = 0
        self.resumes_total = 0
        self.prefill_chunks_total = 0
        self.prefill_tokens_total = 0
        #: elementwise sum of every step's kernel ``round_alive``:
        #: alive (head, token) pairs entering each chunk round plus the
        #: final kept count, shape (n_chunks + 1,).  The serve CLIs'
        #: ``--profile`` derives per-round survival fractions and the
        #: chunks-fetched histogram from this.
        self.round_alive_totals = np.zeros(
            self.config.quant.n_chunks + 1, dtype=np.int64
        )

    # ------------------------------------------------------------ properties
    @property
    def n_active(self) -> int:
        """Sequences holding a batch slot (decoding or mid-prefill)."""
        return len(self._active)

    @property
    def n_prefilling(self) -> int:
        """Admitted sequences whose prompt is not fully ingested yet."""
        return sum(1 for e in self._active.values() if e.prefilling)

    @property
    def prefill_budget_tokens(self) -> Optional[int]:
        """Per-step token budget for decode + prompt-chunk ingest
        (``None``: unbounded, monolithic prefill)."""
        return self.scheduler.prefill_budget_tokens

    @property
    def n_pending(self) -> int:
        return self.scheduler.n_pending

    @property
    def n_preempted(self) -> int:
        """Sequences swapped out of the arena, waiting to resume."""
        return len(self._preempted)

    @property
    def cancelled_total(self) -> int:
        return sum(d.state is RequestState.CANCELLED for d in self.cancelled)

    @property
    def timed_out_total(self) -> int:
        return len(self.cancelled) - self.cancelled_total

    def _records(self) -> List[SequenceRecord]:
        """Every admitted sequence: resident ones, then swapped-out ones."""
        return [*self._active.values(), *self._preempted.values()]

    @property
    def outstanding_tokens(self) -> int:
        """Remaining lifetime KV footprint of every unfinished request.

        Queued requests count their full lifetime; running and preempted
        sequences count cached context plus tokens still to generate.
        The cluster router's least-loaded policy weighs this by the
        replica's live keep-fraction to estimate effective load.
        """
        total = sum(rec.request.total_tokens for rec in self.scheduler.pending)
        for rec in self._records():
            total += (
                rec.swapped.length
                if rec.swapped is not None
                else self.pool.length(rec.seq_id)
            ) + rec.pending_prompt_tokens + rec.remaining
        return total

    @property
    def step_index(self) -> int:
        return self._step_index

    @property
    def max_batch_size(self) -> int:
        return self.scheduler.max_batch_size

    # ------------------------------------------------------------- admission
    def submit(self, request: GenerationRequest) -> int:
        """Queue a request as a :class:`SequenceRecord`; returns its
        assigned request id.

        Its scales are frozen here, once, from the full prompt.  A prompt
        they cannot be frozen from, or a request this engine can never
        serve (:meth:`_check_admissible`), raises ``ValueError`` before it
        is stamped or queued, the engine unchanged.
        """
        scales = freeze_scales(
            request.prompt_keys, request.prompt_values, self.config.quant,
            self.safety_factor, queries=request.queries,
        )
        self._check_admissible(request)
        request.request_id = self._next_request_id
        self._next_request_id += 1
        source = request.step_source
        if source is None:
            rng = np.random.default_rng(
                [self._seed, request.request_id]
                if request.seed is None
                else request.seed
            )
            source = synthetic_step_source(rng, request.n_heads, request.head_dim)
        rec = SequenceRecord(
            request,
            scales,
            RequestStats(
                prompt_tokens=request.prompt_tokens,
                submitted_step=self._step_index,
            ),
            source,
            remaining=request.max_new_tokens,
        )
        self._transition(rec, RequestState.QUEUED)
        self.scheduler.submit(rec)
        return request.request_id

    def _check_admissible(self, request: GenerationRequest) -> None:
        """Raise ``ValueError``, engine unchanged, for a request this
        engine can never serve (:meth:`submit` and :meth:`adopt_preempted`):
        a lifetime footprint beyond the whole pool — queued or swapped
        out, it would wait forever — fewer heads than shards, or
        ``(n_heads, head_dim)`` other than the engine's, which the first
        request that passes fixes."""
        total_blocks = self._capacity_tokens // self._block_size
        needed = -(-request.total_tokens // self._block_size)
        if needed > total_blocks:
            raise ValueError(
                f"request needs {request.total_tokens} tokens "
                f"({needed} blocks); the pool holds {total_blocks} blocks"
            )
        geometry = (request.n_heads, request.head_dim)
        if request.n_heads < self._shards:
            raise ValueError(
                f"cannot shard {request.n_heads} heads across "
                f"{self._shards} workers"
            )
        if self._geometry is None:
            self._geometry = geometry
        elif geometry != self._geometry:
            raise ValueError(
                f"request dims {geometry} do not match the engine's "
                f"(n_heads, head_dim) {self._geometry}"
            )

    def withdraw_pending(self) -> List[SequenceRecord]:
        """Take back every still-queued record (the drain/rebalance path).

        Queued requests have not touched the pool, so their requests can
        move to another replica (which assigns a new ``request_id``);
        active and preempted sequences stay and drain naturally.
        """
        withdrawn = list(self.scheduler.pending)
        self.scheduler.pending.clear()
        for rec in withdrawn:
            self._finish(rec, "withdrawn")
        return withdrawn

    # -------------------------------------------------------------- lifecycle
    def _transition(
        self, rec: SequenceRecord, to: str, tokens: int = 0
    ) -> None:
        """Move a live record to state ``to``; record the mark ``to``
        names inside its state (``"prefill_start"``, ``"prefill_chunk"``
        of ``tokens`` rows, ``"first_token"``, or ``"adopted"`` from
        another engine, mid-prefill or not); or let it leave as ``to``
        (:meth:`_finish`).  Sets the state, stamps the wall clocks and
        bumps the lifecycle counters; the tracer draws the request track
        (:meth:`repro.obs.trace.Tracer.request_event`)."""
        request, stats = rec.request, rec.stats
        now = time.perf_counter()
        if to == "adopted":
            request.state = RequestState.PREEMPTED
            self.adopted_total += 1
        elif to == "prefill_start":
            stats.prefill_start_wall = now
        elif to == "first_token":
            stats.first_token_wall = now
        elif to in ("finished", "cancelled", "timed_out"):
            request.state = RequestState(to)
            stats.finished_step = self._step_index
            stats.finished_wall = now
        elif to == "lost":
            request.state = RequestState.QUEUED
        elif isinstance(to, RequestState):
            prev, request.state = request.state, to
            if to is RequestState.QUEUED:
                request.submitted_wall = stats.queued_wall = now
            elif to is RequestState.PREEMPTED:
                stats.preemptions += 1
                self.preemptions_total += 1
            elif prev is RequestState.PREEMPTED:
                self.resumes_total += 1
                to = "resumed"
        if self.tracer:
            self.tracer.request_event(
                self.trace_label, rec, to, now,
                step=self._step_index, tokens=tokens,
            )

    def _finish(
        self, rec: SequenceRecord, how: str
    ) -> Optional[CompletedRequest]:
        """The one exit: ``rec`` leaves as ``how``.  Releases what it
        holds — arena blocks or its swapped-out copy, tier state, radix
        reference; nothing while it is queued, once the caller took it
        off the queue — and closes its track with ``state=how``.  A
        terminal ``how`` also sets the state, stamps the finish and
        records the returned :class:`CompletedRequest`; a hand-off
        (``"withdrawn"``, ``"exported"``, ``"lost"`` — reset to
        ``QUEUED``) returns None."""
        if self._active.pop(rec.seq_id, None) is not None:
            self.pool.free(rec.seq_id)
        self._preempted.pop(rec.seq_id, None)
        if self.tiers is not None:
            self.tiers.free(rec.seq_id)
        if rec.prefix is not None:
            self.prefix_cache.release(rec.prefix)
            rec.prefix = None
        self._transition(rec, how)
        request = rec.request
        if not request.state.terminal:
            return None
        done = CompletedRequest(request.request_id, rec.stats, request.state)
        (self.completed if how == "finished" else self.cancelled).append(done)
        return done

    # -------------------------------------------------- cancellation/deadline
    def cancel(
        self, request_id: int, *, timed_out: bool = False
    ) -> CompletedRequest:
        """Abort a request mid-flight, freeing its KV immediately.

        Works in every live phase — queued, mid-prefill, decoding or
        preempted — through :meth:`_finish`.  Returns the terminal
        :class:`CompletedRequest` (state ``TIMED_OUT`` when ``timed_out``
        else ``CANCELLED``), also appended to :attr:`cancelled`.  Unknown
        or already-terminal request ids raise :class:`KeyError`.
        """
        how = "timed_out" if timed_out else "cancelled"
        for rec in (*self.scheduler.pending, *self._records()):
            if rec.request.request_id == request_id:
                if rec.seq_id < 0:  # still queued
                    self.scheduler.pending.remove(rec)
                return self._finish(rec, how)
        raise KeyError(
            f"unknown or already-terminal request {request_id}"
        )

    def expire_deadlines(
        self, now: Optional[float] = None
    ) -> List[CompletedRequest]:
        """Time out every live request whose ``deadline_ms`` has passed.

        ``now`` is in the ``time.perf_counter`` domain (injectable for
        deterministic tests); deadlines are measured from the request's
        submit stamp.  Called by the frontend between steps — never from
        inside :meth:`step` — so engine stepping stays deterministic.
        """
        now = time.perf_counter() if now is None else now
        expired: List[CompletedRequest] = []
        for rec in [*self.scheduler.pending, *self._records()]:
            request = rec.request
            if request.deadline_ms is None or request.submitted_wall < 0:
                continue
            if (now - request.submitted_wall) * 1e3 > request.deadline_ms:
                expired.append(
                    self.cancel(request.request_id, timed_out=True)
                )
        return expired

    def set_threshold(self, threshold: float) -> float:
        """Swap the keep-threshold live (the overload-degradation
        actuator): a higher threshold prunes more, shrinking per-step DRAM
        traffic at the cost of retained attention mass.  In-flight
        sequences see it from the next step on.  Returns the threshold
        now in force."""
        if threshold != self.config.threshold:
            self.config = self.config.with_threshold(threshold)
        return self.config.threshold

    # --------------------------------------------------------------- failover
    def export_preempted(self, request_id: int) -> SequenceRecord:
        """Detach a swapped-out sequence for adoption by another engine:
        its record — byte-exact host copy, frozen scales, stats and decode
        stream — leaves whole, and this engine forgets it."""
        for rec in list(self._preempted.values()):
            if rec.request.request_id == request_id:
                self._finish(rec, "exported")
                return rec
        raise KeyError(f"request {request_id} is not swapped out here")

    def adopt_preempted(self, export: SequenceRecord) -> int:
        """Adopt another engine's swapped-out sequence (failover resume).

        The record lands in this engine's preempted set and swaps into
        the arena when headroom allows, continuing bit-identically from
        the donor's last decoded token.  ``ValueError`` refuses it, the
        engine unchanged, on a tiered engine (per-token tier state does
        not travel: re-prefill instead) and wherever :meth:`submit` would.
        The request gets a **fresh** request id in this engine's namespace
        (returned): per-replica ids restart at 0, so cross-replica
        identity is the caller's job (the fault injector keys requests by
        trace origin)."""
        if self._tier_config is not None:
            raise ValueError(
                "a tiered engine cannot adopt swapped-out KV (per-token "
                "tier state does not travel); re-prefill instead"
            )
        request = export.request
        self._check_admissible(request)
        self._ensure_pool(request)
        export.seq_id = self._next_seq_id
        self._next_seq_id += 1
        request.request_id = self._next_request_id
        self._next_request_id += 1
        self._preempted[export.seq_id] = export
        self._transition(export, "adopted")
        return request.request_id

    def harvest_for_failover(self) -> List[SequenceRecord]:
        """Strip every unfinished record off this engine for resubmission.

        The replica-death path, in this order: queued records withdraw
        untouched (``seq_id`` -1); swapped-out ones export with their
        byte-exact KV (``swapped`` set) for another engine to adopt; and
        arena-resident ones, whose KV died with the arena, come back lost,
        their requests reset to ``QUEUED`` for re-prefill (their seeded
        decode streams replay, so a re-run's outputs are bit-identical).
        """
        harvest = self.withdraw_pending()
        harvest += [
            self.export_preempted(rec.request.request_id)
            for rec in list(self._preempted.values())
        ]
        for rec in list(self._active.values()):
            self._finish(rec, "lost")
            harvest.append(rec)
        return harvest

    def _admission_tokens(self, request: GenerationRequest) -> int:
        if self.memory_manager is None:
            return request.total_tokens
        return self.memory_manager.admission_tokens(request, self._block_size)

    def _reserve_tokens(self, request: GenerationRequest) -> int:
        if self.memory_manager is None:
            return request.total_tokens
        return self.memory_manager.reserve_tokens(request)

    def _ensure_pool(self, request: GenerationRequest) -> KVCachePool:
        if self.pool is None:
            self.pool = KVCachePool(
                request.n_heads, request.head_dim, self.config.quant,
                capacity_tokens=self._capacity_tokens,
                block_size=self._block_size,
            )
            if self._shards > 1:
                # lazy import: cluster sits above serving in the layer
                # stack (the engine only reaches up when sharding is on)
                from repro.cluster.shard import ShardGroup

                self._shard_group = ShardGroup(self.pool, self._shards)
            if self._tier_config is not None:
                from repro.kvstore.tiers import TieredKVStore

                self.tiers = TieredKVStore(
                    self.pool, self._tier_config, self.config.prompt_guard,
                    tracer=self.tracer, trace_label=self.trace_label,
                )
        return self.pool

    def _admit(self, rec: SequenceRecord) -> None:
        """Admit one queued record: give it its ``seq_id``, reserve its
        arena run and hand the pool its scales (frozen at :meth:`submit`)
        and prompt, which the pool encodes in budgeted chunks
        (:meth:`_run_prefill`) bit-identically to a monolithic prefill."""
        request = rec.request
        pool = self._ensure_pool(request)
        rec.seq_id = self._next_seq_id
        self._next_seq_id += 1
        # conservative admission reserves the full lifetime footprint so
        # decode can never hit PoolExhausted mid-flight; a memory manager
        # (optimistic admission) reserves less and preempts under pressure
        pool.register(
            rec.seq_id, rec.scales, (request.prompt_keys, request.prompt_values),
            self._reserve_tokens(request),
        )
        rec.stats.admitted_step = self._step_index
        if self.prefix_cache is not None:
            # dedupe the prompt's cold-tier ingest against shared
            # prefixes (matched on the raw K/V bytes); the sequence still
            # encodes its *own* prompt with its own scales, so a hit only
            # removes modelled transfer, never changes bytes
            rec.prefix = self.prefix_cache.acquire(
                request.prompt_keys, request.prompt_values
            )
            rec.stats.prefix_hit_tokens = rec.prefix.hit_tokens
        self._active[rec.seq_id] = rec
        self._transition(rec, RequestState.PREFILLING)

    def _ingest_prefill_chunk(
        self, entry: SequenceRecord, n: int, report: EngineStepReport
    ) -> None:
        """Have the pool encode its next ``n`` prompt rows, charging tier
        ingest for exactly this chunk."""
        start = entry.prefill_pos
        if entry.stats.prefill_start_wall < 0:
            # queued -> prefill at the exact stamp the queue-wait /
            # prefill split is measured from
            self._transition(entry, "prefill_start")
        self.pool.append(entry.seq_id, n)
        if self.tiers is not None:
            hits = (
                0 if entry.prefix is None
                else entry.prefix.hits_in(start, start + n)
            )
            self.tiers.note_prompt_chunk(
                entry.seq_id, n, hits, self._step_index
            )
        entry.prefill_pos = start + n
        entry.stats.prefill_chunks += 1
        report.prefill_chunks += 1
        report.prefill_tokens += n
        report.prefill_bits += n * self.pool.row_bits
        self._transition(entry, "prefill_chunk", tokens=n)
        if not entry.prefilling:
            self._transition(entry, RequestState.RUNNING)

    def _run_prefill(self, report: EngineStepReport) -> None:
        """Spend this step's leftover token budget on prompt chunks.

        Decode-priority: every sequence that will decode this step claims
        one budget token first; what remains feeds prompt ingestion in
        admission order (FIFO completion minimises the queue head's
        TTFT); an unbounded budget ingests every pending prompt whole.  A
        chunk that outgrows its sequence's reservation (only after a
        mid-prefill preemption cycle) preempts like decode growth does.
        """
        # admission order, robust to a preempt/resume cycle re-inserting
        # an old sequence behind younger ones in the _active dict
        waiting = sorted(
            (e for e in self._active.values() if e.prefilling),
            key=lambda e: (e.stats.admitted_step, e.seq_id),
        )
        if not waiting:
            return
        budget = self.scheduler.prefill_budget_tokens
        left: Optional[int] = None
        if budget is not None:  # every decoding sequence claims one token
            left = max(budget - (self.n_active - len(waiting)), 0)
        for entry in waiting:
            if left == 0:
                break
            if entry.seq_id not in self._active:
                continue  # preempted defending an earlier chunk
            n = entry.pending_prompt_tokens
            if left is not None:
                n = min(n, left)
            if n <= 0:
                continue
            target = self.pool.length(entry.seq_id) + n
            if not self._ensure_tokens(entry, target, report):
                continue  # the chunk evicted its own sequence
            self._ingest_prefill_chunk(entry, n, report)
            if left is not None:
                left -= n
        report.prefilling = self.n_prefilling

    # ------------------------------------------------------ preempt / resume
    def preempt(self, seq_id: int) -> None:
        """Swap a pooled sequence's KV segments out of the arena: its
        encoded rows are copied out byte-exactly and its blocks freed; it
        resumes bit-identically once headroom returns
        (:meth:`_resume_preempted` runs at the top of every step)."""
        entry = self._active.get(seq_id)
        if entry is None:
            raise KeyError(f"unknown sequence {seq_id}")
        swapped = self.pool.swap_out(seq_id)
        if self.tiers is not None:
            self.tiers.on_swap_out(seq_id, swapped)
        del self._active[seq_id]
        entry.swapped = swapped
        self._preempted[seq_id] = entry
        self._transition(entry, RequestState.PREEMPTED)

    def _resume_preempted(self, report: EngineStepReport) -> None:
        """Swap preempted sequences back in, oldest preemption first.

        Resume asks for one spare block beyond the swapped length so a
        just-resumed sequence cannot be re-preempted by its own next-token
        growth (anti-thrash).  Resumed sequences take batch slots before
        new admissions — they were admitted first.
        """
        for seq_id, rec in list(self._preempted.items()):
            if self.n_active >= self.max_batch_size:
                break
            # a mid-prefill victim re-reserves its admission footprint so
            # the remaining prompt chunks can never fail to grow into it
            reserve = rec.swapped.length + self.pool.block_size
            if rec.prefilling:
                reserve = max(reserve, self._reserve_tokens(rec.request))
            if not self.pool.can_fit(reserve):
                continue
            self.pool.swap_in(seq_id, rec.swapped, reserve_tokens=reserve)
            if self.tiers is not None:
                self.tiers.on_swap_in(seq_id)
            del self._preempted[seq_id]
            rec.swapped = None
            self._active[seq_id] = rec
            report.resumed.append(rec.request.request_id)
            self._transition(rec, (
                RequestState.PREFILLING if rec.prefilling
                else RequestState.RUNNING
            ))

    def _victim_candidates(self) -> List[VictimCandidate]:
        return [
            VictimCandidate(
                e.seq_id, e.request.request_id, e.stats.mean_retained_mass,
                e.stats.admitted_step, self.pool.length(e.seq_id),
                e.pending_prompt_tokens + e.remaining,
                hot_tokens=(
                    self.tiers.hot_tokens(e.seq_id) if self.tiers is not None
                    else self.pool.length(e.seq_id)
                ),
                prefilling=e.prefilling,
            )
            for e in self._active.values()
        ]

    def _ensure_tokens(
        self,
        entry: SequenceRecord,
        target_tokens: int,
        report: EngineStepReport,
    ) -> bool:
        """Grow ``entry``'s arena run to ``target_tokens``, preempting
        victims under a memory manager; ``False`` means ``entry`` itself
        was picked as a victim (its growth is abandoned this step).

        The shared pressure valve of decode growth (one token) and
        prefill-chunk growth (``n`` tokens): runs *before* any tensors
        are drawn or encoded, so a preempted sequence's streams are
        untouched and it resumes bit-identically.
        """
        while True:
            try:
                self.pool.ensure_capacity(entry.seq_id, target_tokens)
                return True
            except PoolExhausted:
                if self.memory_manager is None:
                    raise  # conservative contract violated: surface it
                victim = self.memory_manager.select_victim(
                    self._victim_candidates()
                )
                if victim is None or victim not in self._active:
                    raise
                report.preempted.append(
                    self._active[victim].request.request_id
                )
                self.preempt(victim)
                if victim == entry.seq_id:
                    return False

    # ----------------------------------------------------------------- step
    def step(self) -> EngineStepReport:
        """One engine step through its named stages: resume, admit,
        prefill, grow, pack, kernel, account/retire (module docstring).
        A sequence joins the fused decode batch the step its last prompt
        chunk lands.  The phases of :data:`repro.obs.trace.PHASE_ORDER`
        are laps of one clock: the kernel laps its own."""
        report = EngineStepReport(
            step_index=self._step_index, wall_start=time.perf_counter()
        )
        if self._preempted:
            self._resume_preempted(report)
        clock = PhaseClock(report.phase_seconds)
        admitted = self.scheduler.admit(
            lambda rec: self.pool is None
            or self.pool.can_fit(self._admission_tokens(rec.request)),
            self.n_active,
            self._admit,
            allow_bypass=self.allow_bypass,
        )
        report.admitted = [rec.request.request_id for rec in admitted]
        self._run_prefill(report)
        clock.lap("prefill")
        pooled = self._grow(report)
        if pooled:
            clock.restart()
            seq_ids, draws, scales, segments = self._pack(pooled)
            clock.lap("pack")
            results, tier_bits, demoted = self._kernel(
                seq_ids, draws[0], scales, segments, report
            )
            clock.restart()
            self._account(pooled, results, tier_bits, demoted, report)
            clock.lap("unpack")
        self._step_index += 1
        self._close_step(report)
        return report

    def _grow(self, report: EngineStepReport) -> List[SequenceRecord]:
        """Make room for every decoding sequence's next token — a no-op
        under conservative admission; under a memory manager a growth
        that does not fit preempts victims (maybe itself).  Returns the
        step's decode batch."""
        for entry in [e for e in self._active.values() if not e.prefilling]:
            if entry.seq_id in self._active:  # not evicted as a victim
                target = self.pool.length(entry.seq_id) + 1
                self._ensure_tokens(entry, target, report)
        pooled = [e for e in self._active.values() if not e.prefilling]
        for rec in self._preempted.values():
            rec.stats.preempted_steps += 1
        report.n_active = len(pooled)
        return pooled

    def _pack(self, pooled: List[SequenceRecord]):
        """Draw every decoding sequence's next ``(q, k, v)``, count clips
        against the frozen calibration window, append (the pool encodes
        once, in place).  Returns the sequence ids, the ``(3, S, H, d)``
        draws, the ``(3, S, H)`` q/k/v scales and the segment table.

        A draw that is not three finite ``(H, d)`` arrays raises
        ``ValueError`` naming its request, before anything is appended —
        a NaN key would encode as digit 0, a NaN value poison every later
        output, a ``(d,)`` row broadcast to every head."""
        shape = (self.pool.n_heads, self.pool.head_dim)
        draws = np.empty((3, len(pooled)) + shape)
        for i, entry in enumerate(pooled):
            q, k, v = entry.step_source(entry.stats.generated_tokens)
            if q.shape == k.shape == v.shape == shape:
                draws[0, i], draws[1, i], draws[2, i] = q, k, v
            else:
                draws[:, i] = np.nan  # fails the finite check below
        if not np.isfinite(draws).all():
            finite = np.isfinite(draws).all(axis=(0, 2, 3))
            bad = pooled[int(np.argmin(finite))]
            raise ValueError(
                f"request {bad.request.request_id}: decode draw "
                f"{bad.stats.generated_tokens} must be three finite {shape} "
                f"arrays (q, k, v); nothing was appended"
            )
        scales = np.array([
            [e.scales.q_scale for e in pooled],
            [e.scales.k_scale for e in pooled],
            [e.scales.v_scale for e in pooled],
        ])
        clip_counts = (
            np.abs(draws) > scales[..., None] * self.config.quant.qmax
        ).sum(axis=(0, 2, 3))
        for entry, clips in zip(pooled, clip_counts):
            entry.stats.clip_events += int(clips)
        seq_ids = [e.seq_id for e in pooled]
        self.pool.append_rows(seq_ids, draws[1], draws[2])
        if self.tiers is not None:
            self.tiers.note_decode(seq_ids, self._step_index)
        return seq_ids, draws, scales, self.pool.segments_of(seq_ids)

    def _kernel(
        self,
        seq_ids: List[int],
        qs: np.ndarray,
        scales: np.ndarray,
        segments: np.ndarray,
        report: EngineStepReport,
    ):
        """The step's one fused kernel call, straight on the arena (the
        segment table is the only per-step metadata, no packing copies;
        through the shard group on a head-sharded engine), then the tier
        store's and the shard group's reads of its results.  Returns the
        results and, from the tier store, each sequence's ``(fast_bits,
        slow_bits)`` and demoted mask (both None untiered)."""
        kernel_kw = dict(
            q_scales=scales[0], k_scales=scales[1], v_scales=scales[2],
            segments=segments, scratch=self._scratch,
            phase_times=report.phase_seconds,
        )
        if self._shard_group is not None:
            ragged = self._shard_group.run(qs, self.config, **kernel_kw)
        else:
            ragged = token_picker_attention_ragged(
                qs, self.config, k_plane_arena=self.pool.k_arena,
                v_arena=self.pool.v_arena, **kernel_kw,
            )
        report.ragged_utilization = Scheduler.ragged_utilization(
            segments[:, 1].tolist()
        )
        report.round_alive = ragged.round_alive
        tier_bits = demoted = None
        if self.tiers is not None:
            tier_bits, report.tier_promotions, demoted = (
                self.tiers.after_kernel(
                    seq_ids, ragged.results, self._step_index
                )
            )
        if self._shard_group is not None:
            report.shard_views = self._shard_group.step_views(ragged.results)
        return ragged.results, tier_bits, demoted

    def _account(
        self,
        pooled: List[SequenceRecord],
        results: Sequence[RaggedSequenceResult],
        tier_bits: Optional[Sequence[Tuple[int, int]]],
        demoted: Optional[Sequence[np.ndarray]],
        report: EngineStepReport,
    ) -> None:
        """Per-sequence and engine-wide traffic accounting from each
        result's O(1) ``stats()``, each sequence's view and new token,
        retirement of the finished ones, then the tier store's demotions.

        ``demoted`` (tiered engines) drops demoted tokens from the
        retained-mass bound: after the step's promotions each died within
        the sketch rounds, and the tier store tracks its (by construction
        negligible) mass per token instead."""
        track_mass = self.memory_manager is not None
        n_heads = self.pool.n_heads
        for i, (entry, result) in enumerate(zip(pooled, results)):
            stats = result.stats()
            if track_mass and result.n_tokens:
                # estimated attention probability mass retained this step:
                # 1 minus the pruned tokens' certified upper bounds
                # (Eq. 5, p'' = exp(s - ln D) >= p), averaged over heads
                # — the signal the preemption policy ranks victims by.
                # Only computed when a memory manager can consume it, so
                # the default hot path pays nothing.
                bounds = result.pruned_bounds()
                if demoted is not None and demoted[i].any():
                    bounds[:, demoted[i]] = 0.0
                lost = np.minimum(bounds.sum(axis=1), 1.0)
                entry.stats.retained_mass_sum += float(1.0 - lost.mean())
                entry.stats.retained_mass_steps += 1
            entry.stats.counter.add(stats, n_heads)
            self.counter.add(stats, n_heads)
            fast_bits, slow_bits = (
                tier_bits[i] if tier_bits is not None else (-1, -1)
            )
            report.results[entry.seq_id] = result
            report.per_sequence[entry.seq_id] = SequenceStepView(
                entry.seq_id, entry.request.request_id,
                self.pool.length(entry.seq_id), stats, fast_bits, slow_bits,
            )
            entry.stats.generated_tokens += 1
            if entry.stats.generated_tokens == 1:
                self._transition(entry, "first_token")
            entry.remaining -= 1
            if entry.remaining <= 0:
                report.retired.append(self._finish(entry, "finished"))
        if self.tiers is not None:
            report.tier_demotions = self.tiers.run_policy(self._step_index)

    def _close_step(self, report: EngineStepReport) -> None:
        """Stamp the step's wall time (always: the cluster router reads
        it in place of its own timer), fold the finished report into the
        engine's totals, and trace it when tracing is on, the step is
        sampled and it did any work — the tracer builds the payload."""
        report.wall_seconds = time.perf_counter() - report.wall_start
        self.peak_concurrency = max(self.peak_concurrency, report.n_active)
        self.prefill_chunks_total += report.prefill_chunks
        self.prefill_tokens_total += report.prefill_tokens
        if report.round_alive is not None:
            self.round_alive_totals += report.round_alive
        for view in report.shard_views:
            self.allgather_bits_total += view.allgather_bits
            self.allgather_baseline_bits_total += view.baseline_allgather_bits
        tracer = self.tracer
        if not tracer or not tracer.want_step(report.step_index):
            return
        if report.per_sequence or report.prefill_tokens or report.admitted:
            self.trace_payloads_built += 1
            tracer.engine_step(
                self.trace_label, report,
                keep_fraction=self.counter.keep_fraction,
                tiered=self._tier_config is not None,
            )

    def run_until_drained(
        self, max_steps: int = 100_000
    ) -> List[EngineStepReport]:
        """Step until queue and batch are empty; returns every step report."""
        reports: List[EngineStepReport] = []
        while self.n_pending or self.n_active or self.n_preempted:
            if len(reports) >= max_steps:
                raise RuntimeError(f"engine not drained after {max_steps} steps")
            reports.append(self.step())
        return reports
