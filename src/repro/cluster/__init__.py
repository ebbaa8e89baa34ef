"""Multi-replica serving: router, memory policy, telemetry.

The production layer above :mod:`repro.serving`: where the serving engine
owns *one* continuous batch over *one* KV arena, this package runs N such
replicas behind a cost-aware router and makes the memory policy a choice
instead of a constant:

* :class:`~repro.cluster.router.ClusterRouter` — dispatches requests by
  estimated token cost (lifetime tokens weighted by each replica's live
  keep-fraction), with least-loaded and round-robin policies plus a
  drain/rebalance path for rolling restarts.
* :mod:`~repro.cluster.memory` — optimistic admission (prompt-footprint
  reservations) with **probability-guided preemption**: under pool
  pressure the victim is the sequence retaining the least estimated
  attention mass (Token-Picker's Eq. 5 bounds as a memory signal), its KV
  segments swapped out byte-exactly and re-prefilled on resume.
* :mod:`~repro.cluster.metrics` — a dependency-free counter / gauge /
  histogram registry with streaming percentiles, recording TTFT,
  per-token latency, queue depth, preemptions and arena occupancy per
  replica (``tokenpicker serve --profile`` prints it).
* :mod:`~repro.cluster.shard` — head-sharded model parallelism inside a
  replica: :class:`~repro.cluster.shard.ShardGroup` splits the heads of
  the replica's one KV arena across K modelled workers.  The ragged
  kernel still runs once per step over the full width (no per-head
  quantity couples heads); each worker is the head-range view of its
  results whose kept-token all-gather ``hw/serving.py``'s interconnect
  model prices.
"""

from repro.cluster.faults import FaultEvent, FaultInjector, fault_schedule
from repro.cluster.memory import (
    OptimisticMemory,
    make_memory_manager,
)
from repro.cluster.metrics import Histogram, MetricsRegistry
from repro.cluster.router import (
    ClusterRouter,
    bursty_trace,
    busiest_step_reports,
)

__all__ = [
    "ClusterRouter",
    "FaultEvent",
    "FaultInjector",
    "fault_schedule",
    "Histogram",
    "MetricsRegistry",
    "OptimisticMemory",
    "bursty_trace",
    "busiest_step_reports",
    "make_memory_manager",
]
