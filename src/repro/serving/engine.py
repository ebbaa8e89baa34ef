"""The multi-sequence serving engine: one fused decode step for N sequences.

:class:`ServingEngine` owns the KV cache of every sequence it serves (a
:class:`~repro.serving.kv_pool.KVCachePool` arena, encoded once at append
time).  Per step it

1. admits queued requests while batch slots and KV-pool headroom allow
   (prefill: prompt K/V into the pool, per-head scales frozen),
2. draws every active sequence's new ``(q, k_t, v_t)`` from its decode
   stream, appends the new token to the pooled cache and counts clip
   events against the frozen calibration window,
3. runs **one** fused ragged-batch Token-Picker kernel across all active
   sequences (:func:`repro.core.pruning.token_picker_attention_ragged`,
   straight on the arena) — the breadth-schedule chunk rounds execute
   once per *batch*, with pruning decisions bit-identical to stepping
   each sequence alone,
4. accumulates per-request traffic/latency stats and retires finished
   sequences, freeing their blocks for the next admission.

A caller that owns its cache and wants one sequence at a time uses
:class:`repro.core.session.TokenPickerSession` instead; it shares no code
with this engine beyond the scale-freezing rule.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

if TYPE_CHECKING:  # engine <-> kvstore: runtime import stays lazy
    from repro.hw.dram import TieredDRAMModel
    from repro.kvstore.radix import RadixKVCache
    from repro.kvstore.tiers import TierConfig

from repro.core.config import TokenPickerConfig
from repro.core.pruning import (
    BatchedPickerResult,
    KernelScratch,
    PruneStats,
    token_picker_attention_ragged,
)
from repro.core.quantization import signed_chunk_digit
from repro.model.attention import AccessCounter
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


def _encode_kv_into(
    keys, values, scales: SequenceScales, quant, k_out, v_out
) -> None:
    """Frozen-scale encoding applied once, when a token enters the pool.

    K is quantized and decomposed into its MSB-first chunk *digits* — the
    representation the paper's DRAM layout streams — written straight
    into the arena's token-major ``(n, H * n_chunks, d)`` rows.  Digits
    are stored unshifted (the fused kernel applies each chunk's
    power-of-two positional shift after its contraction), so they fit the
    arena's float32 storage exactly for practical formats.  V is stored
    quantize-dequantized.  Both are elementwise identical to what the
    kernel would re-derive from the raw floats at every later step, so
    storing them loses nothing and saves the per-step requantization of
    the whole cache.
    """
    n_heads, n, head_dim = keys.shape
    # Work in the arena's token-major layout from the start and reuse one
    # buffer per stage: the quantize → pattern → per-chunk digit chain is
    # elementwise, so in-place ufuncs produce bit-identical codes to the
    # head-major + per-chunk-transpose formulation while skipping its
    # temporaries and strided copies (prefill encodes whole prompts, so
    # this is a measurable slice of time-to-first-token).
    kt = keys.transpose(1, 0, 2)  # (n, H, d) view
    buf = np.divide(kt, scales.k_scale[None, :, None])
    np.rint(buf, out=buf)
    np.clip(buf, quant.qmin, quant.qmax, out=buf)
    pattern = buf.astype(np.int64)
    np.bitwise_and(pattern, (1 << quant.total_bits) - 1, out=pattern)
    k3 = k_out.reshape(n, n_heads, quant.n_chunks, head_dim)
    chunk_mask = (1 << quant.chunk_bits) - 1
    digit = np.empty_like(pattern)
    for c in range(quant.n_chunks):
        shift = quant.total_bits - (c + 1) * quant.chunk_bits
        np.right_shift(pattern, shift, out=digit)
        np.bitwise_and(digit, chunk_mask, out=digit)
        if c == 0:
            # sign-extend the sign-carrying chunk (same rule as
            # signed_chunk_digit, Eq. 4)
            wrap = 1 << quant.chunk_bits
            np.subtract(
                digit, wrap, out=digit, where=digit >= (wrap >> 1)
            )
        k3[:, :, c, :] = digit
    vsc = scales.v_scale[None, :, None]
    vbuf = np.divide(values.transpose(1, 0, 2), vsc)
    np.rint(vbuf, out=vbuf)
    np.clip(vbuf, quant.qmin, quant.qmax, out=vbuf)
    vbuf *= vsc
    v_out[:] = vbuf


@dataclass(frozen=True)
class SequenceStepView:
    """One sequence's share of a fused engine step."""

    seq_id: int
    request_id: Optional[int]
    context_length: int
    stats: PruneStats  # this step's attention accounting (all heads)
    #: fetch-path split by memory tier when KV tiering is enabled
    #: (``fast_bits + slow_bits == stats.total_bits_fetched``); both are
    #: -1 on an untiered engine, and two-tier pricing falls back to
    #: charging everything to the fast tier.
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
    price` converts to a :class:`~repro.hw.serving.StepCost`, replacing
    the old single-instance-mean approximation.  ``prefill_bits`` carries the
    encoded KV bits of every prompt chunk ingested *this step*, so the
    hardware model prices prefill traffic inside the step it actually
    happens instead of silently omitting it.
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
    results: Dict[int, BatchedPickerResult] = field(default_factory=dict)
    ragged_utilization: float = 1.0
    #: wall-clock seconds by phase: "pack" (draw/encode/append), "score"
    #: (partial-score table + bounds), "prune" (breadth rounds), "unpack"
    #: (softmax/outputs/slicing + accounting) — the serve-sim ``--profile``
    #: and benchmark breakdowns read this.  Inside "score" the kernel
    #: also reports "score_chunk0" (the one full-width chunk-0 pass) and
    #: "score_refine" (alive-set refinement rounds); "score" is their
    #: sum plus the kernel's set-up.
    phase_seconds: Dict[str, float] = field(default_factory=dict)
    #: KV-tiering movement this step (zero on an untiered engine):
    #: tokens demoted / promoted, and sequences whose kernel call was
    #: re-run after an on-demand promotion
    tier_demotions: int = 0
    tier_promotions: int = 0
    tier_reruns: int = 0
    #: chunked-prefill work this step: sequences still mid-prefill after
    #: it, prompt tokens ingested, and the modelled encoded bits those
    #: tokens wrote (K chunk digits + V) — what the serving simulator
    #: prices as this step's ingest stream
    prefilling: int = 0
    prefill_tokens: int = 0
    prefill_bits: int = 0
    #: wall-clock seconds the whole step took, measured inside
    #: :meth:`ServingEngine.step` — the one step-latency float: the
    #: cluster router's ``step_seconds`` / ``token_latency_seconds``
    #: histograms and the step span's ``wall_seconds`` trace attribute
    #: both carry exactly this value, so post-hoc trace analysis matches
    #: live telemetry bit for bit
    wall_seconds: float = 0.0
    #: this step's main kernel call's alive (head, token) pairs entering
    #: each chunk round plus the final kept count — shape
    #: (n_chunks + 1,); None when the step ran no kernel call
    round_alive: Optional[np.ndarray] = None
    #: per-shard interconnect telemetry (List[repro.cluster.shard.
    #: ShardStepView]) when the engine runs head-sharded; empty on an
    #: unsharded engine.  ``price`` charges the per-shard straggler and
    #: the all-gather whenever this is non-empty.
    shard_views: List = field(default_factory=list)

    @property
    def batch_size(self) -> int:
        return len(self.per_sequence)

    @property
    def tokens_generated(self) -> int:
        return len(self.per_sequence)


@dataclass
class _ActiveSequence:
    seq_id: int
    scales: SequenceScales
    stats: RequestStats
    request: Optional[GenerationRequest] = None
    step_source: Optional[StepSource] = None
    remaining: int = 0
    #: prompt tokens ingested into the pool so far; the sequence joins
    #: the fused decode batch only once this reaches the prompt length
    prefill_pos: int = 0

    @property
    def prefilling(self) -> bool:
        return (
            self.request is not None
            and self.prefill_pos < self.request.prompt_tokens
        )

    @property
    def pending_prompt_tokens(self) -> int:
        """Prompt tokens admitted but not yet written to the pool."""
        if self.request is None:
            return 0
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
    request_id: Optional[int]
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


@dataclass
class _PreemptedSequence:
    """A swapped-out sequence waiting for headroom to resume."""

    entry: _ActiveSequence
    swapped: SwappedSequence
    preempted_step: int


@dataclass
class PreemptedExport:
    """A swapped-out sequence packaged to resume on *another* engine.

    The byte-exact swap format doubles as a failover wire format: the
    encoded rows, frozen scales, accumulated stats and the (already
    advanced) decode stream travel together, so the adopting engine
    continues the sequence bit-identically from where the donor stopped.
    """

    request: GenerationRequest
    swapped: SwappedSequence
    scales: SequenceScales
    stats: RequestStats
    step_source: Optional[StepSource]
    remaining: int
    prefill_pos: int


@dataclass
class FailoverHarvest:
    """Everything recoverable from a dead (or draining) engine.

    ``queued`` requests never touched the pool and resubmit anywhere;
    ``swapped`` sequences carry their byte-exact KV in host memory and
    can be adopted (:meth:`ServingEngine.adopt_preempted`) without
    re-prefilling; ``lost`` requests were resident in the dead arena —
    their KV is gone, so they must re-prefill from scratch (their decode
    streams replay from ``seed``, keeping outputs bit-identical)."""

    queued: List[GenerationRequest] = field(default_factory=list)
    swapped: List[PreemptedExport] = field(default_factory=list)
    lost: List[GenerationRequest] = field(default_factory=list)

    @property
    def n_requests(self) -> int:
        return len(self.queued) + len(self.swapped) + len(self.lost)


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
        tier_dram: "Optional[TieredDRAMModel]" = None,
        tracer=None,
        trace_label: str = "engine",
        cycle_sim=None,
        shards: int = 1,
    ) -> None:
        """``memory_manager`` switches admission from the conservative
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
        prompt before the first chunk, so chunked ingestion is
        bit-identical to monolithic prefill.

        ``kv_tiering`` (a :class:`repro.kvstore.tiers.TierConfig`) layers
        the two-tier KV store over the arena: low-mass tokens demote to a
        byte-exact cold tier and promote back on demand, with generated
        outputs bit-identical to the untiered engine.  ``prefix_cache``
        (a :class:`repro.kvstore.radix.RadixKVCache`) dedupes shared
        prompt prefixes into refcounted cold-tier extents.  ``tier_dram``
        supplies the :class:`repro.hw.dram.TieredDRAMModel` ledger tier
        traffic is charged to (a default model is built when tiering is
        on).

        ``tracer`` (a :class:`repro.obs.trace.Tracer`) records request
        lifecycle spans and engine step spans under the ``trace_label``
        process track (``"r<id>"`` when owned by a cluster router).
        ``None`` installs the falsy :data:`repro.obs.trace.NULL_TRACER`,
        so every instrumentation site reduces to one truthiness check.

        ``cycle_sim`` (a :class:`repro.hw.serving.ServingSimulator`)
        turns each sampled step span into a *dual-clock* record: the
        step's measured per-sequence traffic is priced on the modelled
        hardware (:meth:`~repro.hw.serving.ServingSimulator.price`,
        two-tier when KV tiering is on and the step is unsharded) and its
        :class:`~repro.hw.serving.StepCost` terms are projected onto the
        trace's ``cycles`` track sharing the step's wall anchor.  Only consulted when a
        step span is actually emitted, so it costs nothing on unsampled
        steps or with tracing off.

        ``shards`` > 1 runs the engine head-sharded: the KV arena is a
        :class:`repro.cluster.shard.ShardedKVPool` sliced head-wise
        across K modelled workers, each step's kernel runs once per
        slice via :class:`repro.cluster.shard.ShardGroup`, and the
        kept-token all-gather combining the partial outputs is priced by
        the hardware model's interconnect term.  Decode outputs stay
        bit-identical to ``shards=1``.
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
        self._tier_dram = tier_dram
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.trace_label = trace_label
        self.cycle_sim = cycle_sim
        #: sampled-in step spans whose attribute payload was actually
        #: built — the trace-overhead bench asserts sampling skips the
        #: payload work entirely, not just the emit
        self.trace_payloads_built = 0
        self.tiers = None  # TieredKVStore, built with the pool
        self.prefix_cache = prefix_cache
        self._prefix_handles: Dict[int, object] = {}
        self.pool: Optional[KVCachePool] = None  # built on first pooled admit
        self._scratch = KernelScratch()  # fused-kernel work arrays, reused
        self._shards = shards
        self._shard_group = None  # ShardGroup, built with the sharded pool
        #: engine-layer all-gather bits shipped (pruned) vs the
        #: no-pruning footprint of the same steps — the interconnect
        #: savings Token-Picker's Eq. 5 bounds buy at cluster scale
        self.allgather_bits_total = 0
        self.allgather_baseline_bits_total = 0
        self.counter = AccessCounter()  # engine-wide aggregate
        self.completed: List[CompletedRequest] = []
        #: aborted requests (CANCELLED / TIMED_OUT terminal records)
        self.cancelled: List[CompletedRequest] = []
        self.cancelled_total = 0
        self.timed_out_total = 0
        self.adopted_total = 0
        self._active: Dict[int, _ActiveSequence] = {}
        self._preempted: Dict[int, _PreemptedSequence] = {}
        self._submitted_at: Dict[int, int] = {}
        self._submitted_wall: Dict[int, float] = {}
        self._next_seq_id = 0
        self._next_request_id = 0
        self._step_index = 0
        self.peak_concurrency = 0
        self.preemptions_total = 0
        self.resumes_total = 0
        self.prefill_chunks_total = 0
        self.prefill_tokens_total = 0
        #: elementwise sum of every main kernel call's ``round_alive``
        #: (tier-repair reruns excluded — they would double-count pairs):
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
    def outstanding_tokens(self) -> int:
        """Remaining lifetime KV footprint of every unfinished request.

        Queued requests count their full lifetime; running and preempted
        sequences count cached context plus tokens still to generate.
        The cluster router's least-loaded policy weighs this by the
        replica's live keep-fraction to estimate effective load.
        """
        total = sum(r.total_tokens for r in self.scheduler.pending)
        for entry in self._active.values():
            total += (
                self.pool.length(entry.seq_id)
                + entry.pending_prompt_tokens
                + entry.remaining
            )
        for rec in self._preempted.values():
            total += (
                rec.swapped.length
                + rec.entry.pending_prompt_tokens
                + rec.entry.remaining
            )
        return total

    @property
    def step_index(self) -> int:
        return self._step_index

    @property
    def max_batch_size(self) -> int:
        return self.scheduler.max_batch_size

    def stats_of(self, seq_id: int) -> RequestStats:
        return self._entry(seq_id).stats

    # ------------------------------------------------------------- admission
    def submit(self, request: GenerationRequest) -> int:
        """Queue a request; returns its assigned request id.

        Requests whose lifetime footprint (prompt + ``max_new_tokens``)
        exceeds the pool outright are rejected here — queued, they would
        head-block FIFO admission forever.
        """
        total_blocks = self._capacity_tokens // self._block_size
        needed = -(-request.total_tokens // self._block_size)
        if needed > total_blocks:
            raise ValueError(
                f"request needs {request.total_tokens} tokens "
                f"({needed} blocks); the pool holds {total_blocks} blocks"
            )
        request.request_id = self._next_request_id
        self._next_request_id += 1
        request.state = RequestState.QUEUED
        request.submitted_wall = time.perf_counter()
        self._submitted_at[request.request_id] = self._step_index
        self._submitted_wall[request.request_id] = request.submitted_wall
        if self.tracer:
            track = f"req{request.request_id}"
            self.tracer.begin(
                self.trace_label,
                track,
                "request",
                ts=request.submitted_wall,
                args={
                    "request_id": request.request_id,
                    "prompt_tokens": request.prompt_tokens,
                    "max_new_tokens": request.max_new_tokens,
                },
            )
            self.tracer.begin(
                self.trace_label, track, "queued", ts=request.submitted_wall
            )
        self.scheduler.submit(request)
        return request.request_id

    def withdraw_pending(self) -> List[GenerationRequest]:
        """Take back every still-queued request (the drain/rebalance path).

        Queued requests have not touched the pool, so they can be moved to
        another replica safely; active and preempted sequences stay and
        drain naturally.  Each request keeps its assigned ``request_id``
        from this engine but will be re-assigned on re-submission.
        """
        withdrawn = list(self.scheduler.pending)
        self.scheduler.pending.clear()
        for request in withdrawn:
            self._submitted_at.pop(request.request_id, None)
            self._submitted_wall.pop(request.request_id, None)
            if self.tracer:
                self.tracer.close_track(
                    self.trace_label,
                    f"req{request.request_id}",
                    args={"state": "withdrawn"},
                )
        return withdrawn

    # -------------------------------------------------- cancellation/deadline
    def _release_sequence(self, seq_id: int, *, pooled: bool) -> None:
        """Return every byte a sequence holds: arena blocks (``pooled``
        sequences only — a swapped-out victim's blocks are already free),
        tier state and the radix prefix reference.  The exact inverse of
        what admission acquired, so a cancellation storm leaves arena,
        tier and radix accounting at baseline."""
        if pooled:
            self.pool.free(seq_id)
        if self.tiers is not None:
            self.tiers.free(seq_id)
        handle = self._prefix_handles.pop(seq_id, None)
        if handle is not None:
            self.prefix_cache.release(handle)

    def _finish_abort(
        self,
        request: GenerationRequest,
        stats: RequestStats,
        state: RequestState,
    ) -> CompletedRequest:
        request.state = state
        stats.finished_step = self._step_index
        stats.finished_wall = time.perf_counter()
        if self.tracer:
            self.tracer.close_track(
                self.trace_label,
                f"req{request.request_id}",
                ts=stats.finished_wall,
                args={
                    "state": state.value,
                    "generated_tokens": stats.generated_tokens,
                },
            )
        done = CompletedRequest(
            request_id=request.request_id, stats=stats, state=state
        )
        self.cancelled.append(done)
        if state is RequestState.TIMED_OUT:
            self.timed_out_total += 1
        else:
            self.cancelled_total += 1
        return done

    def cancel(
        self, request_id: int, *, timed_out: bool = False
    ) -> CompletedRequest:
        """Abort a request mid-flight, freeing its KV immediately.

        Works in every live phase: still queued (removed from the
        scheduler, nothing was reserved), mid-prefill or decoding (arena
        blocks, tier state and the radix prefix reference are all
        released), or preempted (the swapped-out host copy is dropped).
        Returns the terminal :class:`CompletedRequest` (state
        ``TIMED_OUT`` when ``timed_out`` else ``CANCELLED``), also
        appended to :attr:`cancelled`.  Unknown or already-terminal
        request ids raise :class:`KeyError`.
        """
        state = (
            RequestState.TIMED_OUT if timed_out else RequestState.CANCELLED
        )
        for request in self.scheduler.pending:
            if request.request_id == request_id:
                # remove by identity: dataclass __eq__ compares the
                # prompt arrays element-wise, which deque.remove chokes on
                remaining = [
                    r for r in self.scheduler.pending if r is not request
                ]
                self.scheduler.pending.clear()
                self.scheduler.pending.extend(remaining)
                stats = RequestStats(
                    prompt_tokens=request.prompt_tokens,
                    submitted_step=self._submitted_at.pop(
                        request_id, self._step_index
                    ),
                    queued_wall=self._submitted_wall.pop(
                        request_id, request.submitted_wall
                    ),
                )
                return self._finish_abort(request, stats, state)
        for seq_id, entry in list(self._active.items()):
            request = entry.request
            if request is not None and request.request_id == request_id:
                self._release_sequence(seq_id, pooled=True)
                del self._active[seq_id]
                return self._finish_abort(request, entry.stats, state)
        for seq_id, rec in list(self._preempted.items()):
            request = rec.entry.request
            if request is not None and request.request_id == request_id:
                del self._preempted[seq_id]
                self._release_sequence(seq_id, pooled=False)
                return self._finish_abort(request, rec.entry.stats, state)
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
        live: List[GenerationRequest] = list(self.scheduler.pending)
        live += [
            e.request
            for e in self._active.values()
            if e.request is not None
        ]
        live += [
            r.entry.request
            for r in self._preempted.values()
            if r.entry.request is not None
        ]
        expired: List[CompletedRequest] = []
        for request in live:
            if request.deadline_ms is None or request.submitted_wall < 0:
                continue
            if (now - request.submitted_wall) * 1e3 > request.deadline_ms:
                expired.append(
                    self.cancel(request.request_id, timed_out=True)
                )
        return expired

    def set_threshold(self, threshold: float) -> float:
        """Swap the keep-threshold live (the overload-degradation
        actuator): a higher threshold prunes more tokens per certified
        bound, shrinking per-step DRAM traffic at the cost of retained
        attention mass.  Config objects are frozen, so this installs a
        copy; in-flight sequences simply see the new threshold from the
        next step on.  Returns the threshold now in force."""
        if threshold != self.config.threshold:
            self.config = self.config.with_threshold(threshold)
        return self.config.threshold

    # --------------------------------------------------------------- failover
    def export_preempted(self, request_id: int) -> PreemptedExport:
        """Detach a swapped-out sequence for adoption by another engine.

        The sequence's byte-exact host-memory copy, frozen scales, stats
        and decode stream leave together; this engine forgets the
        sequence entirely (tier state and radix reference released).
        """
        for seq_id, rec in list(self._preempted.items()):
            request = rec.entry.request
            if request is not None and request.request_id == request_id:
                del self._preempted[seq_id]
                self._release_sequence(seq_id, pooled=False)
                entry = rec.entry
                if self.tracer:
                    self.tracer.close_track(
                        self.trace_label,
                        f"req{request_id}",
                        args={"state": "exported"},
                    )
                return PreemptedExport(
                    request=request,
                    swapped=rec.swapped,
                    scales=entry.scales,
                    stats=entry.stats,
                    step_source=entry.step_source,
                    remaining=entry.remaining,
                    prefill_pos=entry.prefill_pos,
                )
        raise KeyError(f"request {request_id} is not swapped out here")

    def adopt_preempted(self, export: PreemptedExport) -> int:
        """Adopt another engine's swapped-out sequence (failover resume).

        The sequence lands in this engine's preempted set and swaps into
        the arena when headroom allows, continuing bit-identically from
        the donor's last decoded token.  A tiered engine refuses: the
        donor's per-token tier state does not travel, so the caller must
        fall back to re-prefill.  The request gets a **fresh** request id
        in this engine's namespace (returned) — per-replica ids restart
        at 0, so keeping the donor's id could collide with a request this
        engine already owns; cross-replica identity is the caller's job
        (the fault injector keys requests by trace origin).
        """
        if self._tier_config is not None:
            raise ValueError(
                "a tiered engine cannot adopt swapped-out KV (per-token "
                "tier state does not travel); re-prefill instead"
            )
        request = export.request
        self._ensure_pool(request)
        seq_id = self._next_seq_id
        self._next_seq_id += 1
        request.request_id = self._next_request_id
        self._next_request_id += 1
        request.state = RequestState.PREEMPTED
        entry = _ActiveSequence(
            seq_id=seq_id,
            scales=export.scales,
            stats=export.stats,
            request=request,
            step_source=export.step_source,
            remaining=export.remaining,
            prefill_pos=export.prefill_pos,
        )
        self._preempted[seq_id] = _PreemptedSequence(
            entry=entry, swapped=export.swapped, preempted_step=self._step_index
        )
        self.adopted_total += 1
        if self.tracer:
            # the adopted request's lifecycle continues on this engine's
            # track, anchored at the donor's stamps so TTFT/queue-wait
            # recomputed from the trace match the carried RequestStats
            track = f"req{request.request_id}"
            now = time.perf_counter()
            stats = export.stats
            self.tracer.begin(
                self.trace_label,
                track,
                "request",
                ts=stats.queued_wall,
                args={
                    "request_id": request.request_id,
                    "prompt_tokens": request.prompt_tokens,
                    "max_new_tokens": request.max_new_tokens,
                    "adopted": True,
                },
            )
            if stats.prefill_start_wall >= 0:
                self.tracer.instant(
                    self.trace_label,
                    track,
                    "prefill_start",
                    ts=stats.prefill_start_wall,
                )
            if stats.first_token_wall >= 0:
                self.tracer.instant(
                    self.trace_label,
                    track,
                    "first_token",
                    ts=stats.first_token_wall,
                )
            phase_ts = (
                stats.prefill_start_wall
                if entry.prefilling and stats.prefill_start_wall >= 0
                else now
            )
            self.tracer.begin(
                self.trace_label,
                track,
                "prefill" if entry.prefilling else "decode",
                ts=phase_ts,
            )
            self.tracer.begin(self.trace_label, track, "preempted", ts=now)
        return request.request_id

    def harvest_for_failover(self) -> FailoverHarvest:
        """Strip every unfinished request off this engine for resubmission.

        The replica-death path: queued requests withdraw untouched,
        swapped-out sequences export with their byte-exact KV, and
        arena-resident sequences — whose KV died with the arena — come
        back as re-prefillable requests (state reset to ``QUEUED``; their
        seeded decode streams replay from step 0, so a re-run's outputs
        are bit-identical).  Afterwards the engine holds no requests.
        """
        harvest = FailoverHarvest(queued=self.withdraw_pending())
        for seq_id, rec in list(self._preempted.items()):
            request = rec.entry.request
            if request is None:
                continue
            harvest.swapped.append(self.export_preempted(request.request_id))
        for seq_id, entry in list(self._active.items()):
            request = entry.request
            if request is None:
                continue
            self._release_sequence(seq_id, pooled=True)
            del self._active[seq_id]
            request.state = RequestState.QUEUED
            if self.tracer:
                self.tracer.close_track(
                    self.trace_label,
                    f"req{request.request_id}",
                    args={"state": "lost"},
                )
            harvest.lost.append(request)
        return harvest

    def _admission_tokens(self, request: GenerationRequest) -> int:
        if self.memory_manager is None:
            return request.total_tokens
        return self.memory_manager.admission_tokens(request)

    def _reserve_tokens(self, request: GenerationRequest) -> int:
        if self.memory_manager is None:
            return request.total_tokens
        return self.memory_manager.reserve_tokens(request)

    def _ensure_pool(self, request: GenerationRequest) -> KVCachePool:
        if self.pool is None:
            quant = self.config.quant
            # unshifted chunk digits contract exactly in float32 when
            # every partial sum stays below 2**24; otherwise fall back to
            # float64 digit storage (the kernel re-checks both gates)
            digit_bound = (
                request.head_dim * ((1 << quant.chunk_bits) - 1) * quant.qmax
            )
            exact64 = (
                2 * quant.total_bits - 2
                + max(request.head_dim - 1, 1).bit_length()
                <= 52
            )
            k_dtype = (
                np.float32
                if exact64 and digit_bound < 2 ** 24
                else np.float64
            )
            if self._shards > 1:
                # lazy import: cluster sits above serving in the layer
                # stack (the engine only reaches up when sharding is on)
                from repro.cluster.shard import ShardedKVPool, ShardGroup

                if request.n_heads < self._shards:
                    raise ValueError(
                        f"cannot shard {request.n_heads} heads across "
                        f"{self._shards} workers"
                    )
                self.pool = ShardedKVPool(
                    n_heads=request.n_heads,
                    head_dim=request.head_dim,
                    capacity_tokens=self._capacity_tokens,
                    block_size=self._block_size,
                    k_heads=request.n_heads * self.config.quant.n_chunks,
                    k_dtype=k_dtype,
                    n_shards=self._shards,
                )
                self._shard_group = ShardGroup(self.pool, quant)
            else:
                self.pool = KVCachePool(
                    n_heads=request.n_heads,
                    head_dim=request.head_dim,
                    capacity_tokens=self._capacity_tokens,
                    block_size=self._block_size,
                    # K channel holds the chunk-digit decomposition (what
                    # the accelerator's DRAM layout streams): C digits
                    # per head
                    k_heads=request.n_heads * self.config.quant.n_chunks,
                    k_dtype=k_dtype,
                )
            if self._tier_config is not None:
                from repro.kvstore.tiers import TieredKVStore

                self.tiers = TieredKVStore(
                    self.pool,
                    self.config.quant,
                    config=self._tier_config,
                    dram=self._tier_dram,
                    prompt_guard=self.config.prompt_guard,
                    tracer=self.tracer,
                    trace_label=self.trace_label,
                )
        elif (
            self.pool.n_heads != request.n_heads
            or self.pool.head_dim != request.head_dim
        ):
            raise ValueError(
                f"request dims ({request.n_heads}, {request.head_dim}) do not "
                f"match pool dims ({self.pool.n_heads}, {self.pool.head_dim})"
            )
        return self.pool

    def _prefill(self, request: GenerationRequest) -> None:
        """Admit one request: reserve its arena run and freeze its scales.

        Admission commits the reservation exactly as before, but prompt
        *ingestion* is now resumable: the prompt lands in the pool in
        budgeted chunks (:meth:`_run_prefill`, called from every step —
        one chunk covering the whole prompt when the budget is
        unbounded).  Scales are frozen here, once, from the full prompt,
        so every later chunk encodes with the same per-head windows and
        the encoded bytes stay bit-identical to monolithic prefill.
        """
        pool = self._ensure_pool(request)
        seq_id = self._next_seq_id
        self._next_seq_id += 1
        scales = freeze_scales(
            request.prompt_keys,
            request.prompt_values,
            self.config.quant,
            self.safety_factor,
            queries=request.queries,
        )
        # conservative admission reserves the full lifetime footprint so
        # decode can never hit PoolExhausted mid-flight; a memory manager
        # (optimistic admission) reserves less and preempts under pressure
        pool.register(
            seq_id, scales=scales, reserve_tokens=self._reserve_tokens(request)
        )
        prefix_hits = 0
        if self.prefix_cache is not None:
            # dedupe the prompt's cold-tier ingest against shared
            # prefixes; the sequence still encodes from its *own* prompt
            # tensors chunk by chunk (per-sequence frozen scales), so a
            # hit only removes modelled transfer, never changes bytes
            handle = self.prefix_cache.acquire(
                request.prompt_keys, request.prompt_values
            )
            prefix_hits = handle.hit_tokens
            self._prefix_handles[seq_id] = handle
        if self.tiers is not None:
            self.tiers.register(seq_id)
        stats = RequestStats(
            prompt_tokens=request.prompt_tokens,
            prefix_hit_tokens=prefix_hits,
            submitted_step=self._submitted_at.pop(
                request.request_id, self._step_index
            ),
            admitted_step=self._step_index,
            queued_wall=self._submitted_wall.pop(
                request.request_id, time.perf_counter()
            ),
        )
        request.state = RequestState.PREFILLING
        source = request.step_source
        if source is None:
            rng = np.random.default_rng(
                [self._seed, request.request_id or 0]
                if request.seed is None
                else request.seed
            )
            source = synthetic_step_source(rng, request.n_heads, request.head_dim)
        self._active[seq_id] = _ActiveSequence(
            seq_id=seq_id,
            scales=scales,
            stats=stats,
            request=request,
            step_source=source,
            remaining=request.max_new_tokens,
            prefill_pos=0,
        )

    @property
    def _prefill_row_bits(self) -> int:
        """Modelled encoded bits one ingested token writes (K digits + V)."""
        return (
            2 * self.pool.n_heads * self.pool.head_dim
            * self.config.quant.total_bits
        )

    def _ingest_prefill_chunk(
        self, entry: _ActiveSequence, n: int, report: EngineStepReport
    ) -> None:
        """Encode + append ``n`` prompt tokens from where the last chunk
        stopped, charging tier ingest for exactly this chunk."""
        request = entry.request
        start = entry.prefill_pos
        if start == 0 and entry.stats.prefill_start_wall < 0:
            entry.stats.prefill_start_wall = time.perf_counter()
            if self.tracer:
                # queued -> prefill at the exact stamp the queue-wait /
                # prefill split is measured from
                track = f"req{request.request_id}"
                ts = entry.stats.prefill_start_wall
                self.tracer.end(self.trace_label, track, "queued", ts=ts)
                self.tracer.begin(
                    self.trace_label, track, "prefill", ts=ts, cat="request"
                )
                self.tracer.instant(
                    self.trace_label, track, "prefill_start", ts=ts
                )
        if getattr(self.pool, "supports_inplace_slots", True):
            k_slots, v_slots = self.pool.append_slots(entry.seq_id, n)
        else:
            # sharded pool: no single writable arena view spans the K
            # slices — encode into full-width staging rows and let the
            # pool scatter each slice's columns (a float32 staging array
            # casts exactly like a float32 arena view, so the stored
            # bytes match the in-place path bit for bit)
            k_slots = np.empty(
                (n, self.pool.k_heads, self.pool.head_dim),
                dtype=self.pool.k_dtype,
            )
            v_slots = np.empty((n, self.pool.n_heads, self.pool.head_dim))
        _encode_kv_into(
            request.prompt_keys[:, start:start + n],
            request.prompt_values[:, start:start + n],
            entry.scales,
            self.config.quant,
            k_slots,
            v_slots,
        )
        if not getattr(self.pool, "supports_inplace_slots", True):
            self.pool.append_encoded(entry.seq_id, k_slots, v_slots)
        if self.tiers is not None:
            self.tiers.note_append(entry.seq_id, n, self._step_index)
            handle = self._prefix_handles.get(entry.seq_id)
            self.tiers.charge_prefill_ingest(
                n, handle.hits_in(start, start + n) if handle else 0
            )
        entry.prefill_pos = start + n
        entry.stats.prefill_chunks += 1
        self.prefill_chunks_total += 1
        self.prefill_tokens_total += n
        report.prefill_tokens += n
        report.prefill_bits += n * self._prefill_row_bits
        if self.tracer:
            self.tracer.instant(
                self.trace_label,
                f"req{request.request_id}",
                "prefill_chunk",
                args={"tokens": n, "pos": entry.prefill_pos},
            )
        if not entry.prefilling:
            request.state = RequestState.RUNNING
            if self.tracer:
                track = f"req{request.request_id}"
                ts = time.perf_counter()
                self.tracer.end(self.trace_label, track, "prefill", ts=ts)
                self.tracer.begin(
                    self.trace_label, track, "decode", ts=ts, cat="request"
                )

    def _run_prefill(self, report: EngineStepReport) -> None:
        """Spend this step's leftover token budget on prompt chunks.

        Decode-priority: every sequence that will decode this step claims
        one budget token first; what remains feeds prompt ingestion in
        admission order (FIFO completion minimises the queue head's
        TTFT).  An unbounded budget ingests every pending prompt whole —
        the monolithic behaviour, bit-for-bit.  Under optimistic
        admission a chunk that outgrows the sequence's reservation (only
        possible after a mid-prefill preemption cycle) defends itself by
        preemption exactly like decode growth does.
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
        if budget is not None:
            n_decoding = sum(
                1 for e in self._active.values() if not e.prefilling
            )
            left = max(budget - n_decoding, 0)
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
        """Swap a pooled sequence's KV segments out of the arena.

        The sequence's encoded rows (frozen-scale chunk digits + deq-V)
        are copied out byte-exactly and its blocks freed; the sequence
        resumes automatically — bit-identically — once headroom returns
        (:meth:`_resume_preempted` runs at the top of every step).
        """
        entry = self._entry(seq_id)
        if self.tiers is not None:
            # patch sketch-only demoted rows from their cold copies first,
            # so the swapped segments stay byte-exact; swap_out then only
            # charges the hot remainder as new cold-tier movement
            swapped = self.tiers.on_swap_out(
                seq_id, self.pool.swap_out(seq_id)
            )
        else:
            swapped = self.pool.swap_out(seq_id)
        del self._active[seq_id]
        entry.stats.preemptions += 1
        if entry.request is not None:
            entry.request.state = RequestState.PREEMPTED
            if self.tracer:
                self.tracer.begin(
                    self.trace_label,
                    f"req{entry.request.request_id}",
                    "preempted",
                    cat="request",
                    args={"step": self._step_index},
                )
        self._preempted[seq_id] = _PreemptedSequence(
            entry=entry, swapped=swapped, preempted_step=self._step_index
        )
        self.preemptions_total += 1

    def _resume_preempted(self, report: EngineStepReport) -> None:
        """Swap preempted sequences back in, oldest preemption first.

        Resume asks for one spare block beyond the swapped length so a
        just-resumed sequence cannot be re-preempted by its own next-token
        growth (anti-thrash).  Resumed sequences take batch slots before
        new admissions — they were admitted first.
        """
        for seq_id in list(self._preempted):
            if self.n_active >= self.max_batch_size:
                break
            rec = self._preempted[seq_id]
            entry = rec.entry
            # a mid-prefill victim re-reserves its admission footprint so
            # the remaining prompt chunks can never fail to grow into it
            reserve = rec.swapped.length + self.pool.block_size
            if entry.prefilling:
                reserve = max(reserve, self._reserve_tokens(entry.request))
            if not self.pool.can_fit(reserve):
                continue
            self.pool.swap_in(seq_id, rec.swapped, reserve_tokens=reserve)
            if self.tiers is not None:
                self.tiers.on_swap_in(seq_id)
            del self._preempted[seq_id]
            self._active[seq_id] = entry
            if entry.request is not None:
                entry.request.state = (
                    RequestState.PREFILLING
                    if entry.prefilling
                    else RequestState.RUNNING
                )
                report.resumed.append(entry.request.request_id)
                if self.tracer:
                    self.tracer.end(
                        self.trace_label,
                        f"req{entry.request.request_id}",
                        "preempted",
                        args={"resumed_step": self._step_index},
                    )
            self.resumes_total += 1

    def _victim_candidates(self) -> List[VictimCandidate]:
        return [
            VictimCandidate(
                seq_id=entry.seq_id,
                request_id=(
                    entry.request.request_id if entry.request else None
                ),
                retained_mass=entry.stats.mean_retained_mass,
                admitted_step=entry.stats.admitted_step,
                context_length=self.pool.length(entry.seq_id),
                remaining_tokens=(
                    entry.pending_prompt_tokens + entry.remaining
                ),
                hot_tokens=(
                    self.tiers.hot_tokens(entry.seq_id)
                    if self.tiers is not None
                    else self.pool.length(entry.seq_id)
                ),
                prefilling=entry.prefilling,
            )
            for entry in self._active.values()
        ]

    def _ensure_tokens(
        self,
        entry: _ActiveSequence,
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
                victim_entry = self._active[victim]
                self.preempt(victim)
                if victim_entry.request is not None:
                    report.preempted.append(victim_entry.request.request_id)
                if victim == entry.seq_id:
                    return False

    def _preflight_growth(
        self, pooled: List[_ActiveSequence], report: EngineStepReport
    ) -> List[_ActiveSequence]:
        """Decode-time headroom check: every survivor can append one token.

        Conservative admission sized each run up front, so the fast path
        is a no-op per sequence.  Under a memory manager, a sequence whose
        next-token growth cannot be satisfied triggers preemption: the
        manager picks victims (lowest estimated retained attention mass)
        until the growth fits or the growing sequence is itself evicted.
        """
        for entry in pooled:
            if entry.seq_id not in self._active:
                continue  # already evicted as an earlier victim
            self._ensure_tokens(
                entry, self.pool.length(entry.seq_id) + 1, report
            )
        return [e for e in pooled if e.seq_id in self._active]

    # ----------------------------------------------------------- fused decode
    def _run_kernel(
        self,
        qs: np.ndarray,
        q_scales: np.ndarray,
        k_scales: np.ndarray,
        segments: np.ndarray,
        phase_times: Dict[str, float],
    ) -> "RaggedPickerResult":
        """The step's attention kernel: one fused arena call, or — on a
        head-sharded engine — K slice calls combined in deterministic
        shard order (bit-identical either way; see ShardGroup)."""
        if self._shard_group is not None:
            return self._shard_group.run(
                qs,
                q_scales,
                k_scales,
                segments,
                self.config,
                phase_times=phase_times,
            )
        return token_picker_attention_ragged(
            qs,
            self.config,
            q_scales=q_scales,
            k_scales=k_scales,
            k_plane_arena=self.pool.k_arena,
            v_arena=self.pool.v_arena,
            segments=segments,
            scratch=self._scratch,
            phase_times=phase_times,
        )

    def step(self) -> EngineStepReport:
        """One fused decode step: resume, admit, prefill, batch-attend,
        retire.  Prompt ingestion is budgeted with decode priority
        (active decodes each claim one budget token, the leftover feeds
        prefill — decode is never throttled); a sequence joins the fused
        decode batch the step its last prompt chunk lands."""
        t_step0 = time.perf_counter()
        now = self._step_index
        report = EngineStepReport(step_index=now)
        if self._preempted:
            self._resume_preempted(report)
        admitted = self.scheduler.admit(
            lambda r: self.pool is None
            or self.pool.can_fit(self._admission_tokens(r)),
            self.n_active,
            self._prefill,
            allow_bypass=self.allow_bypass,
        )
        report.admitted = [r.request_id for r in admitted]
        self._run_prefill(report)

        pooled = [e for e in self._active.values() if not e.prefilling]
        if pooled:
            pooled = self._preflight_growth(pooled, report)
        for rec in self._preempted.values():
            rec.entry.stats.preempted_steps += 1
        report.n_active = len(pooled)
        self.peak_concurrency = max(self.peak_concurrency, len(pooled))
        if not pooled:
            self._step_index += 1
            self._trace_step(report, t_step0)
            return report

        # ---- pack: draw every sequence's new token, count clips against
        # the frozen calibration window, encode once and append in place.
        t_mark = time.perf_counter()
        quant = self.config.quant
        n = len(pooled)
        n_heads, head_dim = self.pool.n_heads, self.pool.head_dim
        qs = np.empty((n, n_heads, head_dim))
        k_t = np.empty((n, n_heads, head_dim))
        v_t = np.empty((n, n_heads, head_dim))
        for i, entry in enumerate(pooled):
            q_i, k_i, v_i = entry.step_source(entry.stats.generated_tokens)
            qs[i], k_t[i], v_t[i] = q_i, k_i, v_i
        q_scales = np.stack([e.scales.q_scale for e in pooled])
        k_scales = np.stack([e.scales.k_scale for e in pooled])
        v_scales = np.stack([e.scales.v_scale for e in pooled])
        clip_counts = (
            (np.abs(qs) > (q_scales * quant.qmax)[:, :, None]).sum(axis=(1, 2))
            + (np.abs(k_t) > (k_scales * quant.qmax)[:, :, None]).sum(axis=(1, 2))
            + (np.abs(v_t) > (v_scales * quant.qmax)[:, :, None]).sum(axis=(1, 2))
        )
        for entry, clips in zip(pooled, clip_counts):
            entry.stats.clip_events += int(clips)
        # the pool holds what DRAM holds: the frozen-scale chunk-digit
        # encoding, written once per token — one batched encode, one
        # scatter into the arena
        k_codes = np.clip(
            np.rint(k_t / k_scales[:, :, None]), quant.qmin, quant.qmax
        ).astype(np.int64)
        pattern = k_codes & ((1 << quant.total_bits) - 1)  # 2's complement
        k_rows = np.empty((n, n_heads, quant.n_chunks, head_dim))
        for c in range(quant.n_chunks):
            k_rows[:, :, c, :] = signed_chunk_digit(pattern, c, quant)
        k_rows = k_rows.reshape(n, n_heads * quant.n_chunks, head_dim)
        vsc = v_scales[:, :, None]
        v_rows = np.clip(np.rint(v_t / vsc), quant.qmin, quant.qmax) * vsc
        seq_ids = [e.seq_id for e in pooled]
        self.pool.append_rows(seq_ids, k_rows, v_rows)
        if self.tiers is not None:
            for sid in seq_ids:
                self.tiers.note_append(sid, 1, now)
        segments = self.pool.segments_of(seq_ids)
        report.phase_seconds["pack"] = time.perf_counter() - t_mark

        # ---- one fused kernel call straight on the arena (or one per
        # head shard): the segment table is the only per-step metadata,
        # no packing copies
        ragged = self._run_kernel(
            qs, q_scales, k_scales, segments, report.phase_seconds
        )
        report.ragged_utilization = Scheduler.ragged_utilization(
            segments[:, 1].tolist()
        )
        if ragged.round_alive is not None:
            report.round_alive = ragged.round_alive
            self.round_alive_totals += ragged.round_alive

        tier_bits: Optional[Dict[int, Tuple[int, int]]] = None
        if self.tiers is not None:
            tier_bits = self._tier_post_kernel(
                pooled, qs, q_scales, k_scales, segments, ragged, report
            )
        if self._shard_group is not None:
            # derive interconnect telemetry from the step's *final*
            # results (post tier-repair) so reruns are not double-counted
            report.shard_views = self._shard_group.step_views(ragged.results)
            self.allgather_bits_total += sum(
                v.allgather_bits for v in report.shard_views
            )
            self.allgather_baseline_bits_total += sum(
                v.baseline_allgather_bits for v in report.shard_views
            )

        t_mark = time.perf_counter()
        demoted_masks = (
            [self.tiers.demoted_mask(e.seq_id) for e in pooled]
            if self.tiers is not None
            else None
        )
        step_stats = self._account(
            pooled, ragged.results, instances=n_heads,
            demoted_masks=demoted_masks,
        )
        for entry, result, stats in zip(pooled, ragged.results, step_stats):
            fast_bits, slow_bits = (
                tier_bits[entry.seq_id] if tier_bits is not None else (-1, -1)
            )
            report.results[entry.seq_id] = result
            report.per_sequence[entry.seq_id] = SequenceStepView(
                seq_id=entry.seq_id,
                request_id=entry.request.request_id if entry.request else None,
                context_length=self.pool.length(entry.seq_id),
                stats=stats,
                fast_bits=fast_bits,
                slow_bits=slow_bits,
            )
            entry.stats.generated_tokens += 1
            if entry.stats.generated_tokens == 1:
                entry.stats.first_token_wall = time.perf_counter()
                if self.tracer and entry.request is not None:
                    self.tracer.instant(
                        self.trace_label,
                        f"req{entry.request.request_id}",
                        "first_token",
                        ts=entry.stats.first_token_wall,
                    )
            entry.remaining -= 1
            if entry.remaining <= 0:
                entry.stats.finished_step = now
                entry.stats.finished_wall = time.perf_counter()
                self.pool.free(entry.seq_id)
                if self.tiers is not None:
                    self.tiers.free(entry.seq_id)
                handle = self._prefix_handles.pop(entry.seq_id, None)
                if handle is not None:
                    self.prefix_cache.release(handle)
                if entry.request is not None:
                    entry.request.state = RequestState.FINISHED
                if self.tracer:
                    self.tracer.close_track(
                        self.trace_label,
                        f"req{entry.request.request_id}",
                        ts=entry.stats.finished_wall,
                        args={
                            "state": "finished",
                            "generated_tokens": entry.stats.generated_tokens,
                            "preemptions": entry.stats.preemptions,
                            "retained_mass": entry.stats.mean_retained_mass,
                        },
                    )
                done = CompletedRequest(
                    request_id=entry.request.request_id, stats=entry.stats
                )
                self.completed.append(done)
                report.retired.append(done)
                del self._active[entry.seq_id]
        self.scheduler.note_retired(len(report.retired))
        if self.tiers is not None:
            report.tier_demotions += self.tiers.run_policy(now)
        report.phase_seconds["unpack"] = (
            report.phase_seconds.get("unpack", 0.0)
            + time.perf_counter()
            - t_mark
        )
        self._step_index += 1
        self._trace_step(report, t_step0)
        return report

    def _trace_step(self, report: EngineStepReport, t0: float) -> None:
        """Stamp the step's wall time and (when sampled) emit its span.

        ``wall_seconds`` is always measured — the cluster router reads it
        in place of its own timer, so the step-latency float the live
        histograms observe and the one the trace carries are the *same*
        value.  The span itself is emitted only when tracing is on, the
        step is sampled, and the step did any work.
        """
        report.wall_seconds = time.perf_counter() - t0
        tracer = self.tracer
        if not tracer or not tracer.want_step(report.step_index):
            return
        if not (report.per_sequence or report.prefill_tokens or report.admitted):
            return
        self.trace_payloads_built += 1
        args: Dict[str, object] = {
            "step": report.step_index,
            "wall_seconds": report.wall_seconds,
            "tokens": report.tokens_generated,
            "admitted": len(report.admitted),
            "preempted": len(report.preempted),
            "resumed": len(report.resumed),
            "retired": len(report.retired),
            "prefilling": report.prefilling,
            "prefill_tokens": report.prefill_tokens,
            "ragged_utilization": report.ragged_utilization,
            "keep_fraction": self.counter.keep_fraction,
        }
        if report.round_alive is not None:
            args["round_alive"] = [int(x) for x in report.round_alive]
        if self.tiers is not None:
            args["tier_demotions"] = report.tier_demotions
            args["tier_promotions"] = report.tier_promotions
            args["tier_reruns"] = report.tier_reruns
        if report.shard_views:
            args["n_shards"] = len(report.shard_views)
            args["allgather_bits"] = sum(
                v.allgather_bits for v in report.shard_views
            )
        if report.per_sequence:
            fast = sum(
                v.fast_bits for v in report.per_sequence.values()
                if v.fast_bits >= 0
            )
            slow = sum(
                v.slow_bits for v in report.per_sequence.values()
                if v.slow_bits >= 0
            )
            if fast or slow:
                args["fast_bits"] = fast
                args["slow_bits"] = slow
        cycle = None
        if self.cycle_sim is not None and (
            report.per_sequence or report.prefill_bits
        ):
            # sharded pricing wins over two-tier: the shard views already
            # reflect post-tier-repair fetch decisions, and the straggler
            # + all-gather terms are the step's dominant modelled costs
            cycle = self.cycle_sim.price(
                report,
                engine_heads=self.pool.n_heads if self.pool is not None else None,
                two_tier=self.tiers is not None and not report.shard_views,
            ).span_payload()
        tracer.step_span(
            self.trace_label,
            ts=t0,
            dur=report.wall_seconds,
            args=args,
            phase_seconds=report.phase_seconds or None,
            cycle=cycle,
        )

    def _tier_post_kernel(
        self,
        pooled: List[_ActiveSequence],
        qs: np.ndarray,
        q_scales: np.ndarray,
        k_scales: np.ndarray,
        segments: np.ndarray,
        ragged,
        report: EngineStepReport,
    ) -> Dict[int, Tuple[int, int]]:
        """On-demand promotion and its bit-exactness repair loop.

        A demoted token the kernel pruned within its sketch rounds was
        pruned from exact chunk digits — the untiered decision, bit for
        bit.  A demoted token that *outlived* the sketch needs the bytes
        the cold tier holds: promote it (exact encoded rows restored) and
        re-run the kernel for just that sequence (per-sequence results
        are independent of batch composition, so the re-run is
        bit-identical to the full fused call).  Sketch-round decisions
        cannot change across re-runs — the sketch digits are exact either
        way — so one pass converges; the loop bound is a defensive
        invariant.

        Afterwards every sequence's final result feeds the tier store's
        policy signals and per-tier traffic split.
        """
        for _ in range(self.config.quant.n_chunks + 1):
            rerun: List[int] = []
            for i, entry in enumerate(pooled):
                need = self.tiers.tokens_needing_promotion(
                    entry.seq_id, ragged.results[i]
                )
                if need.size:
                    report.tier_promotions += self.tiers.promote(
                        entry.seq_id, need
                    )
                    rerun.append(i)
            if not rerun:
                break
            idx = np.asarray(rerun, dtype=np.int64)
            redo = self._run_kernel(
                qs[idx],
                q_scales[idx],
                k_scales[idx],
                segments[idx],
                report.phase_seconds,
            )
            for j, i in enumerate(rerun):
                ragged.results[i] = redo.results[j]
            report.tier_reruns += len(rerun)
            self.tiers.rerun_steps_total += len(rerun)
        tier_bits: Dict[int, Tuple[int, int]] = {}
        for entry, result in zip(pooled, ragged.results):
            tier_bits[entry.seq_id] = self.tiers.observe_step(
                entry.seq_id, result, self._step_index
            )
        return tier_bits

    def run_until_drained(
        self, max_steps: int = 100_000
    ) -> List[EngineStepReport]:
        """Step until queue and batch are empty; returns every step report."""
        reports: List[EngineStepReport] = []
        while (
            self.n_pending or self.n_active or self.n_preempted
        ) and len(reports) < max_steps:
            reports.append(self.step())
        if self.n_pending or self.n_active or self.n_preempted:
            raise RuntimeError(f"engine not drained after {max_steps} steps")
        return reports

    def _account(
        self,
        entries: Sequence[_ActiveSequence],
        results: Sequence[BatchedPickerResult],
        instances: int,
        demoted_masks: Optional[Sequence[np.ndarray]] = None,
    ) -> List[PruneStats]:
        """Per-sequence + engine-wide traffic accounting for one step.

        ``demoted_masks`` (tiered engines only) excludes demoted tokens
        from the retained-mass bound: their reported ``scores`` are the
        round-1 partials, not exact scores, so their Eq. 5 bound is not
        evaluable here — the tier store tracks their mass per token
        instead, and by construction of the demotion policy it is
        negligible.
        """
        step_stats: List[PruneStats] = []
        track_mass = self.memory_manager is not None
        for i, (entry, result) in enumerate(zip(entries, results)):
            stats = result.stats()
            if track_mass and result.kept.size:
                # estimated attention probability mass retained this step:
                # 1 minus the pruned tokens' certified upper bounds
                # (Eq. 5, p'' = exp(s - ln D) >= p), averaged over heads
                # — the signal the preemption policy ranks victims by.
                # Only computed when a memory manager can consume it, so
                # the default hot path pays nothing.
                bounds = np.exp(
                    np.clip(
                        result.scores - result.log_denominators[:, None],
                        -700.0,
                        700.0,
                    )
                )
                excluded = result.kept
                if demoted_masks is not None and demoted_masks[i].any():
                    excluded = excluded | demoted_masks[i][None, :]
                lost = np.minimum(
                    np.where(excluded, 0.0, bounds).sum(axis=1), 1.0
                )
                entry.stats.retained_mass_sum += float(1.0 - lost.mean())
                entry.stats.retained_mass_steps += 1
            entry.stats.counter.add(stats, instances)
            self.counter.add(stats, instances)
            step_stats.append(stats)
        return step_stats

    def _entry(self, seq_id: int) -> _ActiveSequence:
        try:
            return self._active[seq_id]
        except KeyError:
            raise KeyError(f"unknown sequence {seq_id}") from None
