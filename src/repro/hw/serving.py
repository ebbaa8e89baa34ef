"""Whole-decode-step serving simulation: one priced step.

The accelerator benches (Fig. 10) measure the attention engine alone; a
serving step also streams the (batch-shared) weights through the FC
datapath.  :meth:`ServingSimulator.price` turns one engine step report
into a :class:`StepCost` — named cycle terms under one overlap rule:

    step      = weights + attention + allgather + prefill   (serial)
    attention = max over its concurrent DRAM streams

The streams are the single ``kv`` stream of an unsharded step, one
``shard<k>`` per worker when the report carries ``shard_views`` (the
straggler bounds the phase), and ``fast`` / ``slow`` under two-tier
pricing.  The generation phase is memory-bound end to end (Sec. 2.1.2),
so every term is a closed-form streaming time.  The paper's 2.3x is the
*attention term's* ratio; whole-step ratios read 1.1-1.9x because
weights are 70-94 % of the cycles.

Two modelling gaps are kept on purpose (closing either moves the
benchmark's exact metrics, so it needs a re-baseline):

* sharded pricing ignores the tier split: a report with ``shard_views``
  streams every shard's bits at fast-tier speed, and ``two_tier`` in
  turn ignores the shards (no straggler, no all-gather);
* without ``two_tier`` a tiered report's slow bits are priced at
  fast-tier speed (they are part of ``stats.total_bits_fetched``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import TYPE_CHECKING, Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.core.config import TokenPickerConfig
from repro.hw.accelerator import ToPickAccelerator
from repro.hw.dram import DEFAULT_SLOW_TIER, DRAMTierParams
from repro.hw.params import DEFAULT_INTERCONNECT, HardwareParams
from repro.model.config import ModelConfig
from repro.workloads.scores import sample_workload

if TYPE_CHECKING:  # avoid a runtime hw -> serving dependency
    from repro.serving.engine import EngineStepReport

#: the designs :meth:`ServingSimulator.price` knows how to charge
PRICED_VARIANTS = ("topick", "baseline")


class Stream(NamedTuple):
    """One of the attention term's concurrent DRAM streams."""

    name: str
    cycles: int
    n_bytes: int = 0


@dataclass(frozen=True)
class StepCost:
    """Cycle cost of one decode step under the overlap rule above.

    ``prefill_cycles`` prices the prompt-chunk KV rows *ingested* during
    the step (one contiguous write stream, bounded by the engine's
    ``prefill_budget_tokens``); ``allgather_cycles`` the kept-token
    partial-output exchange of a head-sharded step.  ``clock_ghz`` is the
    pricing simulator's ``hw.clock_ghz``: the one seconds conversion.
    """

    variant: str
    batch_size: int
    clock_ghz: float
    weight_cycles: int
    streams: Tuple[Stream, ...]
    allgather_cycles: int = 0
    prefill_cycles: int = 0
    #: exact shape-specific trace args by span (``modelled_step`` | term)
    trace_args: Dict[str, Dict[str, object]] = field(default_factory=dict)

    @property
    def attention_cycles(self) -> int:
        return max((s.cycles for s in self.streams), default=0)

    @property
    def slow_attention_cycles(self) -> int:
        return sum(s.cycles for s in self.streams if s.name == "slow")

    @property
    def terms(self) -> Tuple[Tuple[str, int], ...]:
        """The serial terms in modelled-timeline order."""
        return (
            ("weights", self.weight_cycles),
            ("attention", self.attention_cycles),
            ("allgather", self.allgather_cycles),
            ("prefill", self.prefill_cycles),
        )

    @property
    def total_cycles(self) -> int:
        return sum(cycles for _, cycles in self.terms)

    @property
    def seconds(self) -> float:
        return self.total_cycles / (self.clock_ghz * 1e9)

    def span_payload(self) -> Dict[str, object]:
        """The dual-clock trace payload :meth:`repro.obs.trace.Tracer.
        cycle_span` projects onto the wall timeline: the exact top-level
        quantities plus a ``"phases"`` list — this cost's own terms —
        whose cycle counts become proportionally-sized child spans."""
        extra = self.trace_args
        return {
            "clock_ghz": self.clock_ghz,
            "batch_size": self.batch_size,
            "total_cycles": self.total_cycles,
            "modelled_seconds": self.seconds,
            "variant": self.variant,
            **extra.get("modelled_step", {}),
            "phases": [
                {"name": name, "cycles": cycles, "args": extra.get(name, {})}
                for name, cycles in self.terms
            ],
        }


@dataclass(frozen=True)
class FleetCost:
    """One cluster step across its busy replicas.  Each replica is its
    own accelerator card streaming its own weights and KV; replicas run
    concurrently, so the step latency is the *straggler's* and the
    throughput is the *sum* of the per-replica token rates."""

    per_replica: Tuple[StepCost, ...]

    @property
    def batch_size(self) -> int:
        return sum(r.batch_size for r in self.per_replica)

    @property
    def straggler(self) -> StepCost:
        return max(self.per_replica, key=lambda r: r.total_cycles)

    @property
    def seconds(self) -> float:
        """The cluster's synchronous-tick latency."""
        return self.straggler.seconds

    def aggregate_tokens_per_second(self) -> float:
        return sum(tokens_per_second(r) for r in self.per_replica)

    def span_payload(self) -> Dict[str, object]:
        """The straggler's payload (the latency a router observes) with
        the concurrent fleet total in ``cluster_total_cycles``."""
        return {
            **self.straggler.span_payload(),
            "n_replicas": len(self.per_replica),
            "batch_size": self.batch_size,
            "cluster_total_cycles": sum(r.total_cycles for r in self.per_replica),
        }


class ServingSimulator:
    """Batched decode-step latency on the ToPick system."""

    def __init__(
        self,
        model: ModelConfig,
        context_length: int,
        hw: Optional[HardwareParams] = None,
        config: Optional[TokenPickerConfig] = None,
        n_sample_instances: int = 3,
        seed: int = 0,
    ) -> None:
        if context_length < 1:
            raise ValueError("context_length must be >= 1")
        if n_sample_instances < 1:
            raise ValueError("n_sample_instances must be >= 1")
        self.model = model
        self.context_length = context_length
        self.hw = hw or HardwareParams()
        self.config = config or TokenPickerConfig()
        #: every fast-side stream (weights, KV fetch, prefill ingest) is
        #: priced on the accelerator's HBM as a memory tier
        self.fast_tier = self.hw.hbm_tier
        #: the batch-shared non-attention weights stream once per step
        self.weight_cycles = self.fast_tier.cycles(
            model.weight_bytes + model.embedding_bytes
        )
        self._n_sample_instances = n_sample_instances
        self._seed = seed
        self._workload = None  # sampled lazily, for ``step`` only
        self._per_instance_cycles: Dict[str, float] = {}

    def _attention_cycles_per_instance(self, variant: str) -> float:
        """Mean cycles of one (layer, head) attention instance on a
        synthetic workload (cached per variant)."""
        if variant not in self._per_instance_cycles:
            if self._workload is None:
                self._workload = sample_workload(
                    self.context_length,
                    head_dim=self.model.head_dim,
                    n_instances=self._n_sample_instances,
                    seed=self._seed,
                )
            acc = ToPickAccelerator(hw=self.hw, config=self.config)
            result = acc.run_workload(self._workload, variant=variant)
            mean = result.cycles / len(self._workload)
            self._per_instance_cycles[variant] = mean
        return self._per_instance_cycles[variant]

    def step(self, batch_size: int, variant: str = "topick") -> StepCost:
        """One decode step at a batch size from the accelerator's sampled
        instance mean (no report: the Fig. 2 -> Fig. 10 batch argument)."""
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        per_instance = self._attention_cycles_per_instance(variant)
        n_instances = batch_size * self.model.n_layers * self.model.n_heads
        attention = Stream("kv", int(round(per_instance * n_instances)))
        return StepCost(
            variant, batch_size, self.hw.clock_ghz, self.weight_cycles,
            (attention,),
        )

    @staticmethod
    def _stream(name: str, tier: DRAMTierParams, bits, scale: float) -> Stream:
        """One DRAM stream on ``tier``: every sequence pays its own
        latency tail (private KV traffic does not batch)."""
        n_bytes = np.ceil(np.asarray(bits, dtype=np.float64) * scale / 8)
        n_bytes = n_bytes.astype(np.int64)
        cycles = tier.cycles_batch(n_bytes).sum()
        return Stream(name, int(cycles), int(n_bytes.sum()))

    def price(
        self,
        report: "EngineStepReport",
        variant: str = "topick",
        engine_heads: Optional[int] = None,
        two_tier: bool = False,
    ) -> StepCost:
        """Cycle cost of one engine step from its *measured* traffic:
        each sequence's accounting in ``report.per_sequence`` (so the
        ragged variation the engine produced is what gets priced) plus
        the ingested prompt chunks' ``report.prefill_bits`` (a step may
        be prefill-only).  The engine models one layer's heads: traffic
        is scaled by ``model.n_layers`` and, given ``engine_heads``, by
        ``model.n_heads / engine_heads``.  ``baseline`` charges the same
        sequences' unpruned footprint (ingest is identical).

        A report with ``shard_views`` is priced head-sharded: one stream
        per worker, one all-gather of every shard's kept (head, token)
        partial outputs over :data:`repro.hw.params.DEFAULT_INTERCONNECT`
        (bytes proportional to *kept* pairs; a single worker gathers
        nothing), prompt ingest at the widest slice's share.
        ``two_tier`` instead splits each sequence's fetched bits by
        memory tier (``fast_bits`` / ``slow_bits`` of its view; untiered
        views are all fast) and streams the slow side concurrently on
        :data:`repro.hw.dram.DEFAULT_SLOW_TIER` — the explicit cost of
        keeping demoted tokens in far memory; ``topick`` only.
        """
        if variant not in PRICED_VARIANTS:
            raise ValueError(
                f"variant must be one of {PRICED_VARIANTS}, got {variant!r}"
            )
        if two_tier and variant != "topick":
            raise ValueError("two-tier pricing is defined for 'topick' only")
        if engine_heads is not None and engine_heads < 1:
            raise ValueError("engine_heads must be >= 1")
        views = list(report.per_sequence.values())
        prefill_bits = report.prefill_bits
        if not views and not prefill_bits:
            raise ValueError("idle step: no sequence views, no prefill traffic")
        baseline = variant == "baseline"
        scale = float(self.model.n_layers)
        if engine_heads is not None:
            scale *= self.model.n_heads / engine_heads
        hbm = self.fast_tier
        allgather_cycles = 0
        trace_args: Dict[str, Dict[str, object]] = {}
        if two_tier:
            fast = self._stream("fast", hbm, [
                v.stats.total_bits_fetched if v.fast_bits < 0 else v.fast_bits
                for v in views
            ], scale)
            slow = self._stream("slow", DEFAULT_SLOW_TIER, [
                max(v.slow_bits, 0) for v in views
            ], scale)
            streams = (fast, slow)
            split = {"fast_bytes": fast.n_bytes, "slow_bytes": slow.n_bytes}
            trace_args["modelled_step"] = {"variant": "tiered", **split}
            trace_args["attention"] = {
                "fast_cycles": fast.cycles, "slow_cycles": slow.cycles, **split
            }
        elif report.shard_views:
            shards = report.shard_views
            streams = tuple(
                self._stream(
                    f"shard{v.shard}", hbm,
                    v.seq_baseline_bits if baseline else v.seq_bits, scale,
                )
                for v in shards
            )
            wire_bytes = 0
            if len(shards) > 1:
                wire_bits = sum(
                    v.baseline_allgather_bits if baseline else v.allgather_bits
                    for v in shards
                )
                wire_bytes = int(np.ceil(wire_bits * scale / 8))
            allgather_cycles = DEFAULT_INTERCONNECT.transfer_cycles(wire_bytes)
            # prompt ingest is sliced across the workers
            widest = max(v.n_heads for v in shards)
            total_heads = sum(v.n_heads for v in shards)
            prefill_bits = int(np.ceil(prefill_bits * widest / total_heads))
            k = {"n_shards": len(shards)}
            trace_args["modelled_step"] = {**k, "allgather_bytes": wire_bytes}
            trace_args["attention"] = {
                **k, "shard_cycles": [s.cycles for s in streams]
            }
            trace_args["allgather"] = {**k, "bytes": wire_bytes}
        else:
            streams = (self._stream("kv", hbm, [
                v.stats.baseline_total_bits if baseline
                else v.stats.total_bits_fetched
                for v in views
            ], scale),)
        prefill_cycles = hbm.cycles(int(np.ceil(prefill_bits * scale / 8)))
        return StepCost(
            variant, len(views), self.hw.clock_ghz, self.weight_cycles,
            streams, allgather_cycles, prefill_cycles, trace_args,
        )

    def price_fleet(
        self, reports, variant: str = "topick", engine_heads: Optional[int] = None
    ) -> FleetCost:
        """One cluster step from its per-replica engine reports.  Idle
        replicas (no decode and no prefill ingest) contribute nothing; a
        prefill-only replica still counts toward the straggler."""
        per_replica = tuple(
            self.price(report, variant, engine_heads)
            for report in reports
            if report.per_sequence or report.prefill_bits
        )
        if not per_replica:
            raise ValueError("every replica is idle; nothing to aggregate")
        return FleetCost(per_replica)

    # Frozen spellings of ``price`` that benchmarks/e2e calls and wraps in
    # spans (as plain functions out of ``vars(cls)``); no other caller.
    step_from_engine = step_from_sharded = price
    step_from_cluster = price_fleet

    def step_from_tiered(self, report, engine_heads=None):
        return self.price(report, engine_heads=engine_heads, two_tier=True)

    def step_from_traffic(
        self, per_sequence, variant="topick", engine_heads=None, prefill_bits=0
    ):
        views = {i: SimpleNamespace(stats=s) for i, s in enumerate(per_sequence)}
        report = SimpleNamespace(
            per_sequence=views, prefill_bits=prefill_bits, shard_views=()
        )
        return self.price(report, variant, engine_heads)

    def speedup_curve(
        self, batch_sizes: Sequence[int] = (1, 4, 16, 64), variant: str = "topick"
    ) -> List[Dict[str, float]]:
        """End-to-end step speedup of ``variant`` over baseline per batch."""
        out = []
        for b in batch_sizes:
            base, ours = self.step(b, "baseline"), self.step(b, variant)
            out.append({
                "batch_size": b,
                "baseline_cycles": base.total_cycles,
                "variant_cycles": ours.total_cycles,
                "speedup": base.total_cycles / ours.total_cycles,
                "attention_fraction": base.attention_cycles / base.total_cycles,
            })
        return out


def tokens_per_second(cost: StepCost) -> float:
    """Aggregate decode throughput implied by a step cost."""
    seconds = cost.seconds
    return cost.batch_size / seconds if seconds > 0 else 0.0


def step_seconds(cost, spike_seconds: float = 0.0) -> float:
    """Modelled seconds of a :class:`StepCost` or (at its straggler) a
    :class:`FleetCost`, plus ``spike_seconds`` — the additive penalty the
    fault harness (:mod:`repro.cluster.faults`) injects, so fault and
    overload pressure reach the SLO controller in the same unit."""
    if spike_seconds < 0:
        raise ValueError(f"spike_seconds must be >= 0, got {spike_seconds}")
    return cost.seconds + spike_seconds
