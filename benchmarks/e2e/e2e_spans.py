"""Per-layer tracing taken from outside the program.

The benchmark's own span recorder (layer, name, start, end, parent; kept
in memory) wraps each layer's public entry points at the place their
caller looks them up: a module global where the caller imported the
function by name, a class attribute for methods.  A layer's *self time*
is its span minus the part its child spans cover, so children + self
close every ``engine.step`` span by construction.

Only the traced repeat runs with the wrappers installed; end-to-end
metrics are measured with none.  A target that a later refactor removed
is skipped and listed in ``SpanRecorder.missing`` rather than failing the
run — its layer then reports zero and the list says why.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import statistics
import time
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.serving.engine import EngineStepReport

from e2e_drive import Stack, percentile

_POOL_METHODS = (
    "register", "append", "append_slots", "append_encoded", "append_rows",
    "ensure_capacity", "view", "segments_of", "read_rows", "write_rows",
    "swap_out", "swap_in", "free",
)
#: pool spans that write or allocate (the rest read)
_POOL_WRITES = frozenset(
    ("freeze_scales", "register", "append", "append_slots", "append_encoded",
     "append_rows", "ensure_capacity", "write_rows", "free")
)
_POOL_SWAPS = frozenset(("swap_out", "swap_in"))

#: (owner, attribute, layer, span name); owner is ``module`` or
#: ``module:Class``
TARGETS: Tuple[Tuple[str, str, str, str], ...] = (
    ("repro.serving.engine", "token_picker_attention_ragged", "core", "kernel"),
    ("repro.cluster.shard", "token_picker_attention_ragged", "core", "kernel"),
    ("repro.serving.engine", "freeze_scales", "kv_pool", "freeze_scales"),
    ("repro.serving.engine:ServingEngine", "step", "engine", "step"),
    ("repro.serving.engine:ServingEngine", "submit", "engine", "submit"),
    ("repro.serving.scheduler:Scheduler", "admit", "scheduler", "admit"),
    *(
        (owner, method, "kv_pool", method)
        for owner in (
            "repro.serving.kv_pool:KVCachePool",
            "repro.cluster.shard:ShardedKVPool",
        )
        for method in _POOL_METHODS
    ),
    *(
        ("repro.kvstore.tiers:TieredKVStore", method, "tiers", method)
        for method in (
            "observe_step", "run_policy", "demote", "promote",
            "tokens_needing_promotion", "on_swap_out", "on_swap_in",
        )
    ),
    ("repro.kvstore.radix:RadixKVCache", "acquire", "radix", "acquire"),
    ("repro.kvstore.radix:RadixKVCache", "release", "radix", "release"),
    ("repro.cluster.shard:ShardGroup", "run", "shard", "run"),
    ("repro.cluster.shard:ShardGroup", "step_views", "shard", "step_views"),
    ("repro.cluster.memory:OptimisticMemory", "select_victim", "memory", "select_victim"),
    ("repro.cluster.memory:TieredMemory", "select_victim", "memory", "select_victim"),
    ("repro.cluster.router:ClusterRouter", "submit", "router", "submit"),
    ("repro.cluster.router:ClusterRouter", "step", "router", "step"),
    ("repro.serving.frontend:AsyncStreamingFrontend", "submit", "frontend", "submit"),
    ("repro.serving.frontend:AsyncStreamingFrontend", "_step_once", "frontend", "tick"),
    *(
        ("repro.hw.serving:ServingSimulator", method, "hw", method)
        for method in (
            "step_from_engine", "step_from_tiered", "step_from_cluster",
            "step_from_sharded", "step_from_traffic",
        )
    ),
)

LAYER, NAME, START, END, PARENT = range(5)


class SpanRecorder:
    """In-memory spans; ``spans[i] = [layer, name, start, end, parent]``
    with ``parent`` an index into the same list (-1 at the top)."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.missing: List[str] = []
        self._open: List[int] = []

    def _wrap(self, fn, layer: str, name: str):
        spans, open_, clock = self.spans, self._open, time.perf_counter

        def begin() -> list:
            record = [layer, name, 0.0, 0.0, open_[-1] if open_ else -1]
            open_.append(len(spans))
            spans.append(record)
            record[START] = clock()
            return record

        if inspect.iscoroutinefunction(fn):
            # the wrapped coroutines never suspend between begin and end
            # (frontend.submit has no await inside), so the open-span
            # stack stays a stack
            async def traced(*args, **kwargs):
                record = begin()
                try:
                    return await fn(*args, **kwargs)
                finally:
                    record[END] = clock()
                    open_.pop()
        else:
            def traced(*args, **kwargs):
                record = begin()
                try:
                    return fn(*args, **kwargs)
                finally:
                    record[END] = clock()
                    open_.pop()

        return traced

    @contextlib.contextmanager
    def installed(self) -> Iterator["SpanRecorder"]:
        """Wrap every target for the duration of the block."""
        undo = []
        try:
            for owner_path, attr, layer, name in TARGETS:
                module_name, _, class_name = owner_path.partition(":")
                owner = importlib.import_module(module_name)
                if class_name:
                    owner = getattr(owner, class_name, None)
                if owner is None or not hasattr(owner, attr):
                    self.missing.append(f"{owner_path}.{attr}")
                    continue
                if attr not in vars(owner):
                    # inherited: reached through the base class's wrapper
                    continue
                original = vars(owner)[attr]
                setattr(owner, attr, self._wrap(original, layer, name))
                undo.append((owner, attr, original))
            yield self
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)

    # ------------------------------------------------------------ analysis
    def durations(self) -> List[float]:
        return [s[END] - s[START] for s in self.spans]

    def self_times(self) -> List[float]:
        """Each span's duration minus its direct children's durations."""
        durations = self.durations()
        own = list(durations)
        for span, duration in zip(self.spans, durations):
            if span[PARENT] >= 0:
                own[span[PARENT]] -= duration
        return own

    def nesting_errors(self) -> List[str]:
        """Spans that are not contained in their parent."""
        errors = []
        for i, span in enumerate(self.spans):
            if span[END] < span[START]:
                errors.append(f"span {i} ends before it starts")
            if span[PARENT] >= 0:
                parent = self.spans[span[PARENT]]
                if span[START] < parent[START] or span[END] > parent[END]:
                    errors.append(f"span {i} escapes its parent")
        return errors

    def to_json(self) -> dict:
        return {
            "fields": ["layer", "name", "start_s", "end_s", "parent"],
            "spans": self.spans,
            "missing_targets": self.missing,
        }


class StepSampler:
    """Step observer of the traced repeat: sums the already-public report
    fields and samples pool occupancy after every step (scalars only)."""

    def __init__(self) -> None:
        self.engine_steps = 0
        self.ticks = 0
        self.tokens = 0
        self.batch_sum = 0
        self.prefill_tokens = 0
        self.phase: Dict[str, float] = {}
        self.round_alive: Optional[List[int]] = None
        self.ragged_util: List[float] = []
        self.demotions = self.promotions = self.reruns = 0
        self.preemptions = self.resumes = 0
        self.fast_bits = self.slow_bits = 0
        self.reserved_unused: List[float] = []

    def __call__(
        self,
        stack: Stack,
        reports: Sequence[Tuple[Optional[int], EngineStepReport]],
    ) -> None:
        self.ticks += 1
        for _, report in reports:
            self.engine_steps += 1
            self.tokens += report.tokens_generated
            self.batch_sum += report.batch_size
            self.prefill_tokens += report.prefill_tokens
            for phase, seconds in report.phase_seconds.items():
                self.phase[phase] = self.phase.get(phase, 0.0) + seconds
            if report.round_alive is not None:
                alive = [int(x) for x in report.round_alive]
                self.round_alive = (
                    alive
                    if self.round_alive is None
                    else [a + b for a, b in zip(self.round_alive, alive)]
                )
            if report.batch_size:
                self.ragged_util.append(report.ragged_utilization)
            self.demotions += report.tier_demotions
            self.promotions += report.tier_promotions
            self.reruns += report.tier_reruns
            self.preemptions += len(report.preempted)
            self.resumes += len(report.resumed)
            for view in report.per_sequence.values():
                if view.fast_bits >= 0:
                    self.fast_bits += view.fast_bits
                    self.slow_bits += view.slow_bits
        for engine in stack.engines:
            pool = engine.pool
            if pool is not None and pool.blocks_in_use:
                reserved = pool.blocks_in_use * pool.block_size
                self.reserved_unused.append(1.0 - pool.tokens_cached / reserved)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(
    recorder: SpanRecorder, sampler: StepSampler, stack: Stack
) -> Dict[str, float]:
    """Every per-layer metric except the ``hw.*`` cycle fractions and the
    ``bench.*`` harness-health numbers (which need other repeats)."""
    spans = recorder.spans
    durations = recorder.durations()
    own = recorder.self_times()
    ms = 1e3

    def total(layer: str, names=None, table=durations, direct_child_of=None) -> float:
        return sum(
            table[i]
            for i, s in enumerate(spans)
            if s[LAYER] == layer
            and (names is None or s[NAME] in names)
            and (
                direct_child_of is None
                or (s[PARENT] >= 0 and tuple(spans[s[PARENT]][:2]) == direct_child_of)
            )
        )

    def count(layer: str, name: str) -> int:
        return sum(1 for s in spans if s[LAYER] == layer and s[NAME] == name)

    steps = sampler.engine_steps
    ticks = sampler.ticks
    tokens = sampler.tokens
    phase = sampler.phase
    alive = sampler.round_alive or [0, 0, 0, 0]
    engines = stack.engines
    pools = [e.pool for e in engines if e.pool is not None]

    # --- core: the kernel span is all kernel time; the kernel attributes
    # its own time to score / prune / unpack, so its unpack share is the
    # span minus the two phases it reports
    kernel = total("core")
    score, prune = phase.get("score", 0.0), phase.get("prune", 0.0)
    kernel_unpack = max(kernel - score - prune, 0.0)
    counter_bits = sum(e.counter.k_bits + e.counter.v_bits for e in engines)
    out: Dict[str, float] = {
        "core.kernel_ms_per_step": ms * _ratio(kernel, steps),
        "core.score_chunk0_ms_per_step": ms * _ratio(phase.get("score_chunk0", 0.0), steps),
        "core.score_refine_ms_per_step": ms * _ratio(phase.get("score_refine", 0.0), steps),
        "core.prune_ms_per_step": ms * _ratio(prune, steps),
        "core.unpack_ms_per_step": ms * _ratio(kernel_unpack, steps),
        "core.kernel_calls": count("core", "kernel"),
        "core.pairs_scored_per_tok": _ratio(sum(alive[:-1]), tokens),
        "core.alive_frac_r1": _ratio(alive[1], alive[0]),
        "core.alive_frac_r2": _ratio(alive[2], alive[0]),
        "core.keep_frac": _ratio(alive[-1], alive[0]),
        "core.kv_bytes_per_tok": _ratio(counter_bits / 8, tokens),
    }

    # --- serving.engine: what no child span and no reported phase covers
    step_spans = [durations[i] for i, s in enumerate(spans) if s[:2] == ["engine", "step"]]
    step_total = sum(step_spans)
    step_self = total("engine", ("step",), own)
    in_step = ("engine", "step")
    pack_own = phase.get("pack", 0.0) - total(
        "kv_pool", ("append_rows", "segments_of"), direct_child_of=in_step
    )
    unpack_own = (
        phase.get("unpack", 0.0)
        - kernel_unpack
        - total("kv_pool", ("free",), direct_child_of=in_step)
        - total("tiers", ("run_policy",), direct_child_of=in_step)
        - total("radix", ("release",), direct_child_of=in_step)
    )
    out.update({
        "engine.step_ms_p50": ms * (statistics.median(step_spans) if step_spans else 0.0),
        "engine.pack_ms_per_step": ms * _ratio(phase.get("pack", 0.0), steps),
        "engine.self_ms_per_step": ms * _ratio(step_self, steps),
        "engine.unattributed_frac": _ratio(step_self - pack_own - unpack_own, step_total),
        "engine.steps": steps,
        "engine.batch_mean": _ratio(sampler.batch_sum, steps),
        "engine.prefill_tok_per_step": _ratio(sampler.prefill_tokens, steps),
    })

    # --- serving.scheduler
    waits = [
        record.stats.queue_delay_steps
        for e in engines
        for record in e.completed
    ]
    out.update({
        "scheduler.admit_ms_per_step": ms * _ratio(total("scheduler", table=own), steps),
        "scheduler.queue_wait_steps_p50": percentile(waits, 50),
        "scheduler.queue_wait_steps_p95": percentile(waits, 95),
        "scheduler.ragged_util_mean": (
            statistics.fmean(sampler.ragged_util) if sampler.ragged_util else 0.0
        ),
    })

    # --- serving.kv_pool
    written = sampler.prefill_tokens + tokens
    out.update({
        "kv_pool.write_ms_per_ktok": ms * _ratio(
            total("kv_pool", _POOL_WRITES, own), written / 1e3
        ),
        "kv_pool.read_ms_per_step": ms * _ratio(
            total("kv_pool", ("view", "segments_of", "read_rows"), own), steps
        ),
        "kv_pool.swap_ms_total": ms * total("kv_pool", _POOL_SWAPS, own),
        "kv_pool.swaps": sum(p.swaps_out_total + p.swaps_in_total for p in pools),
        "kv_pool.blocks_alloc": sum(p.blocks_allocated_total for p in pools),
        "kv_pool.peak_util": max(
            (_ratio(p.peak_blocks_in_use, p.n_blocks) for p in pools), default=0.0
        ),
        "kv_pool.reserved_unused_frac": (
            statistics.fmean(sampler.reserved_unused)
            if sampler.reserved_unused else 0.0
        ),
    })

    # --- kvstore
    caches = [e.prefix_cache for e in engines if e.prefix_cache is not None]
    out.update({
        "tiers.busy_ms_per_step": ms * _ratio(total("tiers", table=own), steps),
        "tiers.demotions": sampler.demotions,
        "tiers.promotions": sampler.promotions,
        "tiers.reruns": sampler.reruns,
        "tiers.promote_per_demote": _ratio(sampler.promotions, sampler.demotions),
        "tiers.fast_bytes_per_tok": _ratio(sampler.fast_bits / 8, tokens),
        "tiers.slow_bytes_per_tok": _ratio(sampler.slow_bits / 8, tokens),
        "radix.acquire_ms_per_req": ms * _ratio(
            total("radix", ("acquire",), own), count("radix", "acquire")
        ),
        "radix.hit_frac": _ratio(
            sum(c.hit_tokens_total for c in caches),
            sum(c.lookup_tokens for c in caches),
        ),
    })

    # --- cluster
    clustered = stack.router is not None
    per_replica = [len(e.completed) for e in engines] if clustered else []
    out.update({
        "router.submit_ms_per_req": ms * _ratio(
            total("router", ("submit",), own), count("router", "submit")
        ),
        "router.self_ms_per_step": ms * _ratio(total("router", ("step",), own), ticks),
        "router.imbalance": (
            _ratio(max(per_replica) - min(per_replica), statistics.fmean(per_replica))
            if per_replica else 0.0
        ),
        "memory.preemptions": sampler.preemptions,
        "memory.resumes": sampler.resumes,
        "memory.select_ms_total": ms * total("memory", table=own),
        "shard.run_ms_per_step": ms * _ratio(total("shard", ("run",)), steps),
        "shard.self_ms_per_step": ms * _ratio(total("shard", table=own), steps),
        "shard.allgather_bytes_per_tok": _ratio(
            sum(e.allgather_bits_total for e in engines) / 8, tokens
        ),
        "shard.allgather_reduction": _ratio(
            sum(e.allgather_baseline_bits_total for e in engines),
            sum(e.allgather_bits_total for e in engines),
        ),
    })

    # --- hw.serving (host cost of pricing) and serving.frontend
    frontend = stack.frontend
    out.update({
        "hw.price_ms_per_step": ms * _ratio(total("hw", table=own), ticks),
        "frontend.submit_ms_per_req": ms * _ratio(
            total("frontend", ("submit",), own), count("frontend", "submit")
        ),
        "frontend.self_ms_per_step": ms * _ratio(total("frontend", ("tick",), own), ticks),
        "frontend.events_streamed": (
            int(frontend.registry.counter("requests_streamed").value)
            if frontend is not None else 0
        ),
    })
    return out
