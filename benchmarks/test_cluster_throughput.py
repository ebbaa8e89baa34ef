"""Bench: multi-replica cluster throughput and optimistic-admission wins.

Two acceptance measurements for the ``repro.cluster`` layer:

1. **Replica scaling** — the same workload served by 1 vs 4
   router-fronted replicas.  Each replica models its own accelerator card
   (its own weight stream + its own sequences' measured KV traffic), so
   the cluster's aggregate decode throughput is the sum of concurrent
   per-replica rates (:meth:`repro.hw.serving.ServingSimulator.
   price_fleet`); 4 busy replicas must clear >= 1.8x the 1-replica
   aggregate.  Wall-clock engine-stepping throughput is recorded
   alongside for the perf trajectory (this host is single-core, so the
   wall-clock numbers serialise the replicas and carry no scaling claim).

2. **Optimistic admission** — a bursty decode-heavy trace on one replica
   with a tight arena, served under conservative (full-lifetime
   reservation) and optimistic (prompt-only + probability-guided
   preemption) memory policy.  Optimistic must sustain strictly higher
   mean batch occupancy, preempt at least once, and show **zero output
   divergence**: every request's pruning-traffic counters must be
   bit-equal across the two runs (identical decisions per decode step).

``python benchmarks/test_cluster_throughput.py`` writes the measurements
to ``BENCH_cluster.json`` (same artifact schema as ``BENCH_engine.json``,
enforced by ``repro.eval.bench_schema``).  ``TOKENPICKER_BENCH_TINY=1``
shrinks every dimension for CI's non-blocking smoke job.
"""

import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

from repro.cluster import ClusterRouter, bursty_trace, busiest_step_reports
from repro.core import TokenPickerConfig
from repro.eval.bench_schema import validate_bench
from repro.hw.serving import ServingSimulator
from repro.model.config import get_model_config

_TINY = os.environ.get("TOKENPICKER_BENCH_TINY") == "1"
N_HEADS, HEAD_DIM = (2, 16) if _TINY else (4, 64)
PROMPT_TOKENS, MAX_NEW = (24, 3) if _TINY else (160, 12)
PER_REPLICA_BATCH = 2 if _TINY else 8
REPLICA_POINTS = (1, 4)
# decode-heavy burst shape for the admission comparison: short prompts,
# long generations — where full-lifetime reservations idle the most arena
# (tiny mode keeps decode long and blocks fine so pressure still occurs)
BURST_PROMPT, BURST_NEW = (16, 24) if _TINY else (48, 48)
BURST_BLOCK = 8 if _TINY else 16
CFG = TokenPickerConfig(threshold=2e-3)
PHASES = ("pack", "score", "prune", "unpack")
SEED = 0


def _scaling_router(n_replicas: int) -> ClusterRouter:
    return ClusterRouter(
        n_replicas,
        CFG,
        policy="least-loaded",
        admission="optimistic",
        max_batch_size=PER_REPLICA_BATCH,
        capacity_tokens=PER_REPLICA_BATCH * (PROMPT_TOKENS + MAX_NEW + 32),
        seed=SEED,
    )


def _scaling_trace():
    n_requests = max(REPLICA_POINTS) * PER_REPLICA_BATCH * 2
    return bursty_trace(
        np.random.default_rng(SEED),
        n_requests,
        n_heads=N_HEADS,
        head_dim=HEAD_DIM,
        prompt_tokens=PROMPT_TOKENS,
        max_new_tokens=MAX_NEW,
        burst_size=max(REPLICA_POINTS) * PER_REPLICA_BATCH,
        gap_steps=0,
    )


def _drain_scaling_cluster(n_replicas: int):
    """Run the shared workload; returns (router, reports, wall_seconds)."""
    router = _scaling_router(n_replicas)
    trace = _scaling_trace()
    start = time.perf_counter()
    reports = router.run_trace(trace)
    wall = time.perf_counter() - start
    return router, reports, wall


def _aggregate_tokens_per_sec(reports) -> float:
    """Modelled fleet throughput at the fullest cluster step."""
    sim = ServingSimulator(
        get_model_config("gpt2-medium"), context_length=PROMPT_TOKENS,
        config=CFG,
    )
    return sim.price_fleet(
        busiest_step_reports(reports), engine_heads=N_HEADS
    ).aggregate_tokens_per_second()


def _phase_ms(router: ClusterRouter, reports) -> dict:
    totals = {phase: 0.0 for phase in PHASES}
    busy = 0
    for creport in reports:
        for ereport in creport.per_replica.values():
            if ereport.batch_size:
                busy += 1
                for phase in PHASES:
                    totals[phase] += ereport.phase_seconds.get(phase, 0.0)
    return {
        phase: round(1e3 * seconds / max(busy, 1), 4)
        for phase, seconds in totals.items()
    }


def _burst_router(admission: str) -> ClusterRouter:
    return ClusterRouter(
        1,
        CFG,
        admission=admission,
        max_batch_size=PER_REPLICA_BATCH,
        capacity_tokens=PER_REPLICA_BATCH * (BURST_PROMPT + BURST_NEW + 16) // 2,
        block_size=BURST_BLOCK,
        seed=SEED,
    )


def _burst_trace():
    return bursty_trace(
        np.random.default_rng(SEED),
        PER_REPLICA_BATCH * 3,
        n_heads=N_HEADS,
        head_dim=HEAD_DIM,
        prompt_tokens=BURST_PROMPT,
        max_new_tokens=BURST_NEW,
        burst_size=PER_REPLICA_BATCH,
        gap_steps=2,
        prompt_jitter=BURST_PROMPT // 4,
    )


def _traffic_by_request(router: ClusterRouter) -> dict:
    return {
        done.request_id: (done.stats.counter.k_bits, done.stats.counter.v_bits)
        for _, done in router.completed
    }


def _run_admission_comparison():
    """(conservative router, optimistic router, divergent request count)."""
    results = {}
    for admission in ("conservative", "optimistic"):
        router = _burst_router(admission)
        router.run_trace(_burst_trace())
        results[admission] = router
    conservative, optimistic = results["conservative"], results["optimistic"]
    a, b = _traffic_by_request(conservative), _traffic_by_request(optimistic)
    assert set(a) == set(b)
    divergent = sum(1 for rid in a if a[rid] != b[rid])
    return conservative, optimistic, divergent


# ---------------------------------------------------------------- acceptance
def test_cluster_aggregate_scaling():
    """Acceptance: >= 1.8x aggregate modelled tokens/s at 4 replicas vs 1
    on the same workload (each replica is its own accelerator)."""
    _, reports_1, _ = _drain_scaling_cluster(1)
    _, reports_4, _ = _drain_scaling_cluster(4)
    single = _aggregate_tokens_per_sec(reports_1)
    quad = _aggregate_tokens_per_sec(reports_4)
    assert quad / single >= 1.8, (
        f"4-replica aggregate {quad:.0f} tok/s is only "
        f"{quad / single:.2f}x the single-replica {single:.0f} tok/s"
    )


def test_optimistic_occupancy_beats_conservative_without_divergence():
    """Acceptance: on a bursty trace, optimistic admission sustains higher
    mean batch occupancy with preemptions and zero output divergence."""
    conservative, optimistic, divergent = _run_admission_comparison()
    assert optimistic.summary()["preemptions"] > 0
    assert conservative.summary()["preemptions"] == 0
    assert (
        optimistic.mean_batch_occupancy(0)
        > conservative.mean_batch_occupancy(0)
    )
    assert divergent == 0


def test_recorded_artifact_matches_schema():
    record = measure(repeats=1)
    validate_bench(record, name="BENCH_cluster.json")


# --------------------------------------------------------------- measurement
def measure(repeats: int = 3) -> dict:
    """Record the scaling curve and the admission comparison."""
    points = []
    baseline_agg = None
    for n_replicas in REPLICA_POINTS:
        best_wall = None
        router = reports = None
        for _ in range(repeats):
            router, reports, wall = _drain_scaling_cluster(n_replicas)
            best_wall = wall if best_wall is None else min(best_wall, wall)
        summary = router.summary()
        aggregate = _aggregate_tokens_per_sec(reports)
        if baseline_agg is None:
            baseline_agg = aggregate
        tokens = summary["generated_tokens"]
        points.append(
            {
                "replicas": n_replicas,
                "per_replica_batch": PER_REPLICA_BATCH,
                "requests": summary["requests_completed"],
                "tokens_generated": tokens,
                "cluster_steps": len(reports),
                "aggregate_tokens_per_sec": round(aggregate, 1),
                "aggregate_speedup_vs_1": round(aggregate / baseline_agg, 3),
                "wall_tokens_per_sec": round(tokens / best_wall, 1),
                "preemptions": summary["preemptions"],
                "phase_ms_per_step": _phase_ms(router, reports),
            }
        )
    conservative, optimistic, divergent = _run_admission_comparison()
    # the robustness sections (overload control + fault recovery) live in
    # this artifact too — same cross-bench-import pattern as the engine
    # bench's long_prompt_burst section
    from test_robustness import (
        measure_fault_recovery,
        measure_overload_goodput,
    )
    from test_shard_scaling import measure_shard_scaling

    record = {
        "config": {
            "threshold": CFG.threshold,
            "n_heads": N_HEADS,
            "head_dim": HEAD_DIM,
            "prompt_tokens": PROMPT_TOKENS,
            "max_new_tokens": MAX_NEW,
            "burst_prompt_tokens": BURST_PROMPT,
            "burst_max_new_tokens": BURST_NEW,
            "policy": "least-loaded",
            "admission": "optimistic",
        },
        "points": points,
        "admission_comparison": {
            "trace": "bursty",
            "conservative_mean_occupancy": round(
                conservative.mean_batch_occupancy(0), 3
            ),
            "optimistic_mean_occupancy": round(
                optimistic.mean_batch_occupancy(0), 3
            ),
            "conservative_steps": conservative.replicas[0].step_index,
            "optimistic_steps": optimistic.replicas[0].step_index,
            "preemptions": optimistic.summary()["preemptions"],
            "divergent_requests": divergent,
        },
        "overload_goodput": measure_overload_goodput(),
        "fault_recovery": measure_fault_recovery(),
        "shard_scaling": measure_shard_scaling(),
    }
    validate_bench(record, name="BENCH_cluster.json")
    return record


def main() -> None:
    out = Path(__file__).resolve().parent.parent / "BENCH_cluster.json"
    record = measure()
    out.write_text(json.dumps(record, indent=2) + "\n")
    print(json.dumps(record, indent=2))


if __name__ == "__main__":
    main()
