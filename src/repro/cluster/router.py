"""Multi-replica serving: an SLO-aware router over N serving engines.

:class:`ClusterRouter` owns N independent
:class:`~repro.serving.engine.ServingEngine` replicas (in a deployment,
one accelerator card each) and dispatches incoming
:class:`~repro.serving.request.GenerationRequest`\\ s by **estimated token
cost**: a request costs ``prompt + max_new_tokens`` arena tokens, weighted
by the candidate replica's *live keep-fraction* from its pruning stats — a
replica whose traffic prunes harder serves the same tokens with less DRAM
traffic, so it can absorb more load before its decode step slows down.
``least-loaded`` routing picks the replica minimising that effective load;
``round-robin`` is the baseline spread.

Every cluster step steps each replica once and folds the per-replica
reports into the shared :class:`~repro.cluster.metrics.MetricsRegistry`:
TTFT and per-token wall-clock latency histograms (p50/p95/p99), queue
depth, preemption counts and arena occupancy, one labelled series per
replica.  A replica can be **drained** (routed around; queued requests
rebalanced to its peers) and later restored — the path a deployment uses
for rolling restarts.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.config import TokenPickerConfig
from repro.cluster.memory import make_memory_manager
from repro.cluster.metrics import MetricsRegistry
from repro.obs.trace import NULL_TRACER
from repro.serving.engine import (
    EngineStepReport,
    FailoverHarvest,
    ServingEngine,
)
from repro.serving.request import (
    GenerationRequest,
    RequestState,
    synthetic_request,
)

ROUTER_POLICIES = ("least-loaded", "round-robin")


@dataclass
class ClusterStepReport:
    """One router tick: every replica stepped once."""

    step_index: int
    per_replica: Dict[int, EngineStepReport] = field(default_factory=dict)
    #: wall-clock seconds each replica's engine step took
    step_seconds: Dict[int, float] = field(default_factory=dict)

    @property
    def tokens_generated(self) -> int:
        return sum(r.tokens_generated for r in self.per_replica.values())

    @property
    def n_active(self) -> int:
        return sum(r.n_active for r in self.per_replica.values())


class ClusterRouter:
    """N serving-engine replicas behind one cost-aware dispatch point."""

    def __init__(
        self,
        n_replicas: int,
        config: Optional[TokenPickerConfig] = None,
        *,
        policy: str = "least-loaded",
        admission: str = "optimistic",
        max_batch_size: int = 32,
        capacity_tokens: int = 8192,
        block_size: int = 16,
        safety_factor: float = 1.25,
        allow_bypass: bool = False,
        prefill_budget_tokens: Optional[int] = None,
        seed: int = 0,
        registry: Optional[MetricsRegistry] = None,
        kv_tiering=None,
        prefix_cache: bool = False,
        prefix_cache_capacity: int = 0,
        tracer=None,
        cycle_sim=None,
        shards: int = 1,
        degrade_capacity_boost: float = 0.5,
    ) -> None:
        """``kv_tiering`` (a :class:`repro.kvstore.tiers.TierConfig`)
        enables the two-tier KV store on every replica; ``prefix_cache``
        gives each replica its own prefix-sharing
        :class:`~repro.kvstore.radix.RadixKVCache` (extents live with the
        replica that owns the sequences' KV, so caches are per-replica),
        bounded to ``prefix_cache_capacity`` retained tokens each
        (0: unbounded).  ``prefill_budget_tokens`` enables chunked
        prefill on every replica: each engine step spends at most that
        many tokens of work, decode first and the leftover on prompt
        chunks (``None``: monolithic prefill).

        ``cycle_sim`` (a :class:`repro.hw.serving.ServingSimulator`)
        enables the dual-clock trace: every replica prices its sampled
        step spans on the modelled hardware (``price``), and the router
        adds a cluster-level ``modelled_step`` span (the
        :class:`~repro.hw.serving.FleetCost` straggler's cycles — the
        synchronous-tick latency) on the ``cluster``/``cycles`` track.

        ``shards`` > 1 runs every replica head-sharded across that many
        modelled tensor-parallel workers (see
        :mod:`repro.cluster.shard`) — the router composes shard-groups x
        replicas.  ``degrade_capacity_boost`` scales how strongly a
        replica's SLO degrade level (reported by the frontend's overload
        controller via :meth:`note_degrade_level`) raises its advertised
        effective capacity: a degraded replica prunes more aggressively
        and streams fewer bytes per token, so dispatch divides its
        marginal cost by ``1 + boost * level``."""
        if n_replicas < 1:
            raise ValueError(f"n_replicas must be >= 1, got {n_replicas}")
        if policy not in ROUTER_POLICIES:
            raise ValueError(
                f"unknown policy {policy!r} (expected one of {ROUTER_POLICIES})"
            )
        self.policy = policy
        self.admission = admission
        self.metrics = registry if registry is not None else MetricsRegistry()
        self.tracer = tracer if tracer is not None else NULL_TRACER
        #: engine incarnations per replica slot — a revived replica's
        #: fresh engine traces under "r<id>+<gen>" so its request tracks
        #: can never collide with the dead incarnation's closed ones
        self._trace_gen: Dict[int, int] = {}
        self._seed = seed
        self.cycle_sim = cycle_sim
        if degrade_capacity_boost < 0:
            raise ValueError(
                f"degrade_capacity_boost must be >= 0, got "
                f"{degrade_capacity_boost}"
            )
        self.degrade_capacity_boost = degrade_capacity_boost
        #: last SLO degrade level the frontend reported per replica
        self._degrade_level: Dict[int, int] = {}
        self._replica_kwargs = dict(
            config=config,
            max_batch_size=max_batch_size,
            safety_factor=safety_factor,
            capacity_tokens=capacity_tokens,
            block_size=block_size,
            allow_bypass=allow_bypass,
            prefill_budget_tokens=prefill_budget_tokens,
            kv_tiering=kv_tiering,
            prefix_cache=prefix_cache,
            prefix_cache_capacity=prefix_cache_capacity,
            shards=shards,
        )
        # each replica gets an independent seed stream; request-level RNGs
        # derive from (replica seed, request id) inside the engine
        self.replicas: List[ServingEngine] = [
            self._make_replica(rid) for rid in range(n_replicas)
        ]
        self._draining: set = set()
        self._dead: set = set()
        self._rr_next = 0
        self._step_index = 0
        self._routed: Dict[int, List[int]] = {
            rid: [] for rid in range(n_replicas)
        }
        # deterministic occupancy accounting (no wall-clock involved);
        # the denominator counts only steps the replica was live-and-
        # routable or still finishing work, so a drained/dead replica's
        # idle ticks cannot skew the fleet mean (they used to)
        self._occupancy_sum: Dict[int, int] = {
            rid: 0 for rid in range(n_replicas)
        }
        self._occupancy_steps: Dict[int, int] = {
            rid: 0 for rid in range(n_replicas)
        }
        #: finished requests of replicas that have since been replaced
        #: (``revive_replica``), so :attr:`completed` never loses history
        self._archived_completed: List[Tuple[int, object]] = []

    def _make_replica(self, rid: int) -> ServingEngine:
        kw = self._replica_kwargs
        prefix_cache = None
        if kw["prefix_cache"]:
            from repro.kvstore.radix import RadixKVCache

            prefix_cache = RadixKVCache(
                capacity_tokens=kw["prefix_cache_capacity"]
            )
        gen = self._trace_gen.get(rid, 0)
        self._trace_gen[rid] = gen + 1
        return ServingEngine(
            kw["config"],
            max_batch_size=kw["max_batch_size"],
            safety_factor=kw["safety_factor"],
            capacity_tokens=kw["capacity_tokens"],
            block_size=kw["block_size"],
            seed=self._seed * 100_003 + rid,
            memory_manager=make_memory_manager(
                self.admission, block_size=kw["block_size"]
            ),
            allow_bypass=kw["allow_bypass"],
            prefill_budget_tokens=kw["prefill_budget_tokens"],
            kv_tiering=kw["kv_tiering"],
            prefix_cache=prefix_cache,
            tracer=self.tracer,
            trace_label=f"r{rid}" if gen == 0 else f"r{rid}+{gen}",
            cycle_sim=self.cycle_sim,
            shards=kw["shards"],
        )

    # --------------------------------------------------------------- routing
    @property
    def n_replicas(self) -> int:
        return len(self.replicas)

    @property
    def step_index(self) -> int:
        return self._step_index

    def routable(self) -> List[int]:
        """Replica ids currently accepting new requests."""
        return [
            rid
            for rid in range(self.n_replicas)
            if rid not in self._draining and rid not in self._dead
        ]

    def replica_status(self, replica_id: int) -> str:
        """``"live"``, ``"draining"`` or ``"dead"``."""
        if not 0 <= replica_id < self.n_replicas:
            raise ValueError(f"unknown replica {replica_id}")
        if replica_id in self._dead:
            return "dead"
        if replica_id in self._draining:
            return "draining"
        return "live"

    def note_degrade_level(
        self, level: int, replica_id: Optional[int] = None
    ) -> None:
        """Feed the overload controller's degrade level into placement.

        The frontend's SLO controller reports its current degrade level
        each control tick (:class:`repro.serving.frontend` calls this for
        the whole fleet); a test or an external controller can pin one
        replica's level via ``replica_id``.  A degraded replica runs a
        looser prune threshold — fewer bytes per decoded token — so
        dispatch treats it as proportionally higher-capacity
        (:meth:`capacity_factor`) instead of keeping the pre-degrade
        placement that under-uses exactly the replicas the controller
        just made cheaper.
        """
        if level < 0:
            raise ValueError(f"degrade level must be >= 0, got {level}")
        if replica_id is None:
            for rid in range(self.n_replicas):
                if rid not in self._dead:
                    self._degrade_level[rid] = level
        else:
            if not 0 <= replica_id < self.n_replicas:
                raise ValueError(f"unknown replica {replica_id}")
            self._degrade_level[replica_id] = level

    def capacity_factor(self, replica_id: int) -> float:
        """Effective-capacity multiplier from the replica's degrade level."""
        level = self._degrade_level.get(replica_id, 0)
        return 1.0 + self.degrade_capacity_boost * level

    def effective_load(self, replica_id: int) -> float:
        """Outstanding arena tokens, discounted by live pruning behaviour.

        ``keep_fraction`` starts at 1.0 (no pruning evidence yet) and
        falls as the replica's Token-Picker traffic proves most of its
        KV rows are never fetched; the product estimates the DRAM-traffic
        cost of the replica's backlog, which is what actually bounds its
        decode-step latency (Fig. 2's argument).  A degraded replica's
        advertised capacity rises with its degrade level
        (:meth:`capacity_factor`), so the same backlog reads as lighter
        load there.
        """
        engine = self.replicas[replica_id]
        return (
            engine.outstanding_tokens
            * engine.counter.keep_fraction
            / self.capacity_factor(replica_id)
        )

    def select_replica(self, request: GenerationRequest) -> int:
        """Route one request under the configured policy."""
        routable = self.routable()
        if not routable:
            raise RuntimeError(
                "every replica is draining or dead; nowhere to route"
            )
        if self.policy == "round-robin":
            for _ in range(self.n_replicas):
                rid = self._rr_next % self.n_replicas
                self._rr_next += 1
                if rid in routable:
                    return rid
        # least-loaded: marginal effective cost of placing the request,
        # discounted by the replica's degrade-boosted capacity
        return min(
            routable,
            key=lambda rid: (
                (
                    self.replicas[rid].outstanding_tokens
                    + request.total_tokens
                )
                * self.replicas[rid].counter.keep_fraction
                / self.capacity_factor(rid),
                rid,
            ),
        )

    def submit(self, request: GenerationRequest) -> Tuple[int, int]:
        """Dispatch a request; returns ``(replica_id, request_id)``."""
        rid = self.select_replica(request)
        request_id = self.replicas[rid].submit(request)
        self._routed[rid].append(request_id)
        self.metrics.counter("requests_routed", replica=rid).inc()
        return rid, request_id

    # ------------------------------------------------------- drain/rebalance
    def drain(self, replica_id: int, rebalance: bool = True) -> int:
        """Stop routing to a replica; optionally move its queue to peers.

        Active and preempted sequences keep decoding on the replica until
        they finish (their KV lives there); only queued requests move.
        Returns the number of rebalanced requests.
        """
        if not 0 <= replica_id < self.n_replicas:
            raise ValueError(f"unknown replica {replica_id}")
        self._draining.add(replica_id)
        if not self.routable():
            self._draining.discard(replica_id)
            raise RuntimeError("cannot drain the last routable replica")
        moved = 0
        if rebalance:
            moved = self.rebalance(replica_id)
        return moved

    def undrain(self, replica_id: int) -> None:
        """Return a drained replica to the routable set."""
        self._draining.discard(replica_id)

    def rebalance(self, replica_id: int) -> int:
        """Re-route a replica's still-queued requests to its peers."""
        withdrawn = self.replicas[replica_id].withdraw_pending()
        for request in withdrawn:
            self.submit(request)
        if withdrawn:
            self.metrics.counter(
                "requests_rebalanced", replica=replica_id
            ).inc(len(withdrawn))
        return len(withdrawn)

    # --------------------------------------------------------- kill / revive
    def kill_replica(self, replica_id: int) -> "FailoverHarvest":
        """Declare a replica dead and harvest its recoverable requests.

        The replica stops being stepped and routed immediately.  Its
        queued requests, swapped-out sequences (byte-exact host copies)
        and arena-resident sequences (KV lost — re-prefill) come back as
        a :class:`~repro.serving.engine.FailoverHarvest` the caller
        resubmits to survivors (:meth:`resubmit_harvest` applies the
        default policy; :class:`repro.cluster.faults.FaultInjector` adds
        backoff).  At least one replica must remain routable.
        """
        if not 0 <= replica_id < self.n_replicas:
            raise ValueError(f"unknown replica {replica_id}")
        if replica_id in self._dead:
            raise ValueError(f"replica {replica_id} is already dead")
        self._dead.add(replica_id)
        if not self.routable():
            self._dead.discard(replica_id)
            raise RuntimeError("cannot kill the last routable replica")
        self.metrics.counter("replica_kills", replica=replica_id).inc()
        if self.tracer:
            self.tracer.instant(
                "cluster",
                "router",
                "replica_kill",
                args={"replica": replica_id, "step": self._step_index},
            )
        return self.replicas[replica_id].harvest_for_failover()

    def revive_replica(self, replica_id: int) -> None:
        """Bring a dead replica back as a **fresh** engine.

        Death lost the arena, so revival is a cold start: the old
        engine's finished-request history is archived (``completed``
        keeps reporting it) and its occupancy accounting resets.
        """
        if replica_id not in self._dead:
            raise ValueError(f"replica {replica_id} is not dead")
        old = self.replicas[replica_id]
        self._archived_completed.extend(
            (replica_id, done) for done in old.completed
        )
        self.replicas[replica_id] = self._make_replica(replica_id)
        self._occupancy_sum[replica_id] = 0
        self._occupancy_steps[replica_id] = 0
        self._dead.discard(replica_id)
        self.metrics.counter("replica_revives", replica=replica_id).inc()
        if self.tracer:
            self.tracer.instant(
                "cluster",
                "router",
                "replica_revive",
                args={"replica": replica_id, "step": self._step_index},
            )

    def resubmit_harvest(
        self, harvest: "FailoverHarvest"
    ) -> List[Tuple[int, int, str]]:
        """Place a dead replica's harvest on survivors, preferring the
        byte-exact swap-resume path.

        Queued and KV-lost requests re-route through :meth:`submit`
        (re-prefill); swapped-out exports are adopted by the least-loaded
        survivor so decode continues without re-ingesting the prompt —
        falling back to re-prefill when no survivor can adopt (tiered
        engines refuse).  Returns ``(replica_id, request_id, how)``
        per request, ``how`` in ``{"requeued", "swap_resume",
        "re_prefill"}``.
        """
        placed: List[Tuple[int, int, str]] = []
        for request in harvest.queued:
            rid, request_id = self.submit(request)
            placed.append((rid, request_id, "requeued"))
        for export in harvest.swapped:
            placed.append(self.adopt_export(export))
        for request in harvest.lost:
            rid, request_id = self.submit(request)
            self.metrics.counter("fault_reprefills", replica=rid).inc()
            placed.append((rid, request_id, "re_prefill"))
        return placed

    def adopt_export(self, export) -> Tuple[int, int, str]:
        """Adopt one swapped-out export on the least-loaded survivor,
        falling back to a re-prefill submit when every survivor refuses
        (e.g. all tiered)."""
        for rid in sorted(self.routable(), key=self.effective_load):
            try:
                request_id = self.replicas[rid].adopt_preempted(export)
            except ValueError:
                continue
            self._routed[rid].append(request_id)
            self.metrics.counter("fault_swap_resumes", replica=rid).inc()
            return rid, request_id, "swap_resume"
        export.request.state = RequestState.QUEUED
        rid, request_id = self.submit(export.request)
        self.metrics.counter("fault_reprefills", replica=rid).inc()
        return rid, request_id, "re_prefill"

    # ----------------------------------------------------------------- steps
    def step(self) -> ClusterStepReport:
        """Step every live replica once and record its telemetry.

        Dead replicas are skipped entirely (no step, no report entry) —
        their in-flight state was harvested at kill time."""
        report = ClusterStepReport(step_index=self._step_index)
        t_step0 = time.perf_counter() if self.tracer else 0.0
        for rid, engine in enumerate(self.replicas):
            if rid in self._dead:
                continue
            engine_report = engine.step()
            # the engine measured its own wall time (EngineStepReport.
            # wall_seconds) — adopting it here means the step-latency
            # float the live histograms observe is the exact one the
            # step span carries, so trace analysis matches bit for bit
            seconds = engine_report.wall_seconds
            report.per_replica[rid] = engine_report
            report.step_seconds[rid] = seconds
            self._observe(rid, engine, engine_report, seconds)
        self._trace_cluster_cycles(report, t_step0)
        self._step_index += 1
        return report

    def _trace_cluster_cycles(
        self, report: ClusterStepReport, t0: float
    ) -> None:
        """The fleet-level rung of the dual-clock timeline: one
        ``modelled_step`` span per sampled cluster step on the
        ``cluster``/``cycles`` track, priced at the straggler replica
        (the synchronous-tick latency) with the concurrent fleet total
        alongside.  Per-replica cycle tracks come from the engines
        themselves."""
        if self.cycle_sim is None or not self.tracer:
            return
        if not self.tracer.want_step(self._step_index):
            return
        busy = [
            rid
            for rid, r in report.per_replica.items()
            if r.per_sequence or r.prefill_bits
        ]
        if not busy:
            return
        # at the head scale the replicas' own spans are priced at (one
        # request geometry per cluster), so the straggler is one of them
        cost = self.cycle_sim.price_fleet(
            report.per_replica.values(),
            engine_heads=self.replicas[busy[0]].pool.n_heads,
        )
        self.tracer.cycle_span(
            "cluster",
            ts=t0,
            dur=time.perf_counter() - t0,
            payload=cost.span_payload(),
        )

    def _observe(
        self,
        rid: int,
        engine: ServingEngine,
        report: EngineStepReport,
        seconds: float,
    ) -> None:
        m = self.metrics
        m.gauge("queue_depth", replica=rid).set(engine.n_pending)
        m.gauge("active_sequences", replica=rid).set(report.n_active)
        m.gauge("prefilling_sequences", replica=rid).set(report.prefilling)
        m.gauge("preempted_sequences", replica=rid).set(engine.n_preempted)
        if report.prefill_tokens:
            m.counter("prefill_tokens", replica=rid).inc(
                report.prefill_tokens
            )
        occupancy = engine.pool.utilization if engine.pool is not None else 0.0
        m.gauge("arena_occupancy", replica=rid).set(occupancy)
        # occupancy mean counts routable steps plus draining steps that
        # still carried work; a drained replica's idle tail is excluded
        if rid not in self._draining or report.n_active or report.prefilling:
            self._occupancy_sum[rid] += report.n_active
            self._occupancy_steps[rid] += 1
        if report.preempted:
            m.counter("preemptions", replica=rid).inc(len(report.preempted))
        if report.resumed:
            m.counter("resumes", replica=rid).inc(len(report.resumed))
        if report.admitted:
            m.counter("admissions", replica=rid).inc(len(report.admitted))
        tokens = report.tokens_generated
        if tokens:
            m.counter("tokens_generated", replica=rid).inc(tokens)
            m.histogram("step_seconds", replica=rid).observe(seconds)
            # every active sequence produced exactly one token this step,
            # each at the full step's wall-clock latency
            m.histogram("token_latency_seconds", replica=rid).observe(
                seconds, n=tokens
            )
        for done in report.retired:
            m.counter("requests_completed", replica=rid).inc()
            # TTFT runs submit -> first *decoded* token; with chunked
            # prefill its queue-wait and prefill shares come from the
            # split stamps, so the histograms attribute them correctly
            # even when ingestion spans whole steps
            if done.stats.ttft_seconds >= 0:
                m.histogram("ttft_seconds", replica=rid).observe(
                    done.stats.ttft_seconds
                )
            if done.stats.queue_wait_seconds >= 0:
                m.histogram("queue_wait_seconds", replica=rid).observe(
                    done.stats.queue_wait_seconds
                )
            if done.stats.prefill_seconds >= 0:
                m.histogram("prefill_seconds", replica=rid).observe(
                    done.stats.prefill_seconds
                )
            if done.stats.e2e_seconds >= 0:
                m.histogram("e2e_seconds", replica=rid).observe(
                    done.stats.e2e_seconds
                )

    @property
    def busy(self) -> bool:
        return any(
            e.n_pending or e.n_active or e.n_preempted
            for rid, e in enumerate(self.replicas)
            if rid not in self._dead
        )

    def run_until_drained(
        self, max_steps: int = 100_000
    ) -> List[ClusterStepReport]:
        reports: List[ClusterStepReport] = []
        while self.busy and len(reports) < max_steps:
            reports.append(self.step())
        if self.busy:
            raise RuntimeError(f"cluster not drained after {max_steps} steps")
        return reports

    def run_trace(
        self,
        trace: Sequence[Tuple[int, GenerationRequest]],
        max_steps: int = 100_000,
    ) -> List[ClusterStepReport]:
        """Drive an arrival trace: ``(arrival_step, request)`` pairs.

        Arrivals at step ``t`` are routed before the cluster's ``t``-th
        tick; once the trace is exhausted the cluster runs to drain.
        """
        pending = sorted(trace, key=lambda item: item[0])
        reports: List[ClusterStepReport] = []
        i = 0
        while (i < len(pending) or self.busy) and len(reports) < max_steps:
            while i < len(pending) and pending[i][0] <= self._step_index:
                self.submit(pending[i][1])
                i += 1
            reports.append(self.step())
        if i < len(pending) or self.busy:
            raise RuntimeError(f"cluster not drained after {max_steps} steps")
        return reports

    # ------------------------------------------------------------- reporting
    @property
    def completed(self) -> List[Tuple[int, object]]:
        """Every finished request as ``(replica_id, CompletedRequest)``,
        including requests that finished on since-replaced replicas."""
        out: List[Tuple[int, object]] = list(self._archived_completed)
        for rid, engine in enumerate(self.replicas):
            out.extend((rid, done) for done in engine.completed)
        return out

    @property
    def cancelled(self) -> List[Tuple[int, object]]:
        """Every aborted request as ``(replica_id, CompletedRequest)``
        (terminal state ``CANCELLED`` or ``TIMED_OUT``)."""
        out: List[Tuple[int, object]] = []
        for rid, engine in enumerate(self.replicas):
            out.extend((rid, done) for done in engine.cancelled)
        return out

    def mean_batch_occupancy(self, replica_id: int) -> float:
        """Mean active sequences per *counted* step of the replica.

        Deterministic (counts only): the quantity the optimistic-vs-
        conservative benchmark compares.  Counted steps exclude a
        drained replica's idle tail and everything after a kill — a
        parked replica used to drag the fleet mean toward zero while
        still being stepped.  Zero counted steps reports 0.0 (not a
        division error); an unknown replica id is a
        :class:`ValueError`, never a silent negative-index alias.
        """
        if not 0 <= replica_id < self.n_replicas:
            raise ValueError(f"unknown replica {replica_id}")
        steps = self._occupancy_steps[replica_id]
        if steps == 0:
            return 0.0
        return self._occupancy_sum[replica_id] / steps

    def summary(self, include_timing: bool = False) -> Dict[str, object]:
        """Cluster roll-up; with ``include_timing=False`` every field is a
        deterministic function of the seed (the property the determinism
        test pins — wall-clock histograms live under ``"timing"``)."""
        per_replica = []
        for rid, engine in enumerate(self.replicas):
            tier_fields = {}
            if engine.tiers is not None:
                tier_fields["demotions"] = engine.tiers.demotions_total
                tier_fields["promotions"] = engine.tiers.promotions_total
            if engine.prefix_cache is not None:
                tier_fields["prefix_hit_rate"] = round(
                    engine.prefix_cache.hit_rate, 4
                )
            per_replica.append(
                {
                    "replica": rid,
                    "status": self.replica_status(rid),
                    **tier_fields,
                    "requests_completed": len(engine.completed),
                    "requests_cancelled": engine.cancelled_total,
                    "requests_timed_out": engine.timed_out_total,
                    "steps": engine.step_index,
                    "peak_concurrency": engine.peak_concurrency,
                    "mean_batch_occupancy": round(
                        self.mean_batch_occupancy(rid), 4
                    ),
                    "preemptions": engine.preemptions_total,
                    "resumes": engine.resumes_total,
                    "bypassed": engine.scheduler.bypassed_total,
                    "peak_blocks": (
                        engine.pool.peak_blocks_in_use
                        if engine.pool is not None
                        else 0
                    ),
                    "keep_fraction": round(engine.counter.keep_fraction, 4),
                    # a zero-traffic replica has no reduction evidence:
                    # report the 1.0 identity, not the counter's inf
                    # (which would make the summary non-JSON-serialisable)
                    "kv_bit_reduction": (
                        round(engine.counter.total_reduction, 3)
                        if engine.counter.total_bits
                        else 1.0
                    ),
                    "prefill_chunks": engine.prefill_chunks_total,
                    "generated_tokens": sum(
                        c.stats.generated_tokens for c in engine.completed
                    ),
                }
            )
        live = [r for r in per_replica if r["status"] == "live"]
        summary: Dict[str, object] = {
            "n_replicas": self.n_replicas,
            "policy": self.policy,
            "admission": self.admission,
            # fleet state, reported distinctly so a parked replica never
            # silently skews live-fleet means
            "replicas_live": len(live),
            "replicas_draining": len(self._draining),
            "replicas_dead": len(self._dead),
            "requests_completed": sum(
                r["requests_completed"] for r in per_replica
            )
            + len(self._archived_completed),
            "requests_cancelled": sum(
                r["requests_cancelled"] + r["requests_timed_out"]
                for r in per_replica
            ),
            "generated_tokens": sum(
                r["generated_tokens"] for r in per_replica
            )
            + sum(
                done.stats.generated_tokens
                for _, done in self._archived_completed
            ),
            "preemptions": sum(r["preemptions"] for r in per_replica),
            # live replicas only: the mean a capacity planner acts on
            "mean_batch_occupancy_live": (
                round(
                    sum(r["mean_batch_occupancy"] for r in live) / len(live),
                    4,
                )
                if live
                else 0.0
            ),
            "per_replica": per_replica,
        }
        if include_timing:
            summary["timing"] = self.metrics.snapshot()
        return summary


def busiest_step_reports(
    reports: Sequence[ClusterStepReport],
) -> List[EngineStepReport]:
    """Busy replicas' engine reports at the fullest cluster step.

    The shared recipe for picking the fleet's representative operating
    point: the cluster step with the most active sequences, restricted to
    replicas that actually decoded (what
    :meth:`repro.hw.serving.ServingSimulator.price_fleet` prices).
    """
    if not reports:
        raise ValueError("need at least one cluster step report")
    full = max(reports, key=lambda r: r.n_active)
    return [r for r in full.per_replica.values() if r.per_sequence]


def bursty_trace(
    rng: np.random.Generator,
    n_requests: int,
    *,
    n_heads: int,
    head_dim: int,
    prompt_tokens: int,
    max_new_tokens: int,
    burst_size: int = 8,
    gap_steps: int = 4,
    prompt_jitter: int = 16,
) -> List[Tuple[int, GenerationRequest]]:
    """Bursty arrival trace: ``burst_size`` requests every ``gap_steps``.

    The workload shape the optimistic-vs-conservative comparison uses —
    bursts pile requests onto a pool that conservative admission would
    meter in by full-lifetime reservations, while optimistic admission
    packs them in and preempts under pressure.
    """
    if n_requests < 1 or burst_size < 1 or gap_steps < 0:
        raise ValueError("n_requests/burst_size >= 1, gap_steps >= 0 required")
    trace: List[Tuple[int, GenerationRequest]] = []
    for i in range(n_requests):
        arrival = (i // burst_size) * gap_steps
        prompt = max(
            8, prompt_tokens + int(rng.integers(-prompt_jitter, prompt_jitter + 1))
        )
        trace.append(
            (
                arrival,
                synthetic_request(
                    rng, n_heads, prompt, head_dim, max_new_tokens
                ),
            )
        )
    return trace
