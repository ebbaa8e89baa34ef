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

_LAZY = {
    "ClusterRouter": "repro.cluster.router",
    "FaultEvent": "repro.cluster.faults",
    "FaultInjector": "repro.cluster.faults",
    "fault_schedule": "repro.cluster.faults",
    "Histogram": "repro.cluster.metrics",
    "MetricsRegistry": "repro.cluster.metrics",
    "OptimisticMemory": "repro.cluster.memory",
    "bursty_trace": "repro.cluster.router",
    "busiest_step_reports": "repro.cluster.router",
    "make_memory_manager": "repro.cluster.memory",
}
__all__ = list(_LAZY)


def __getattr__(name):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module), name)
