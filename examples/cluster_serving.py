"""Cluster serving: N replicas, an SLO-aware router, preemption telemetry.

Demonstrates the `repro.cluster` subsystem end to end:

1. a bursty request trace streams through a :class:`ClusterRouter` that
   dispatches to the least-loaded of N serving-engine replicas (estimated
   token cost weighted by each replica's live keep-fraction);
2. replicas run **optimistic admission**: only the prompt footprint is
   reserved, and under decode-time pool pressure the sequence retaining
   the least estimated attention mass (Token-Picker's Eq. 5 bounds) is
   preempted — its encoded KV swapped out byte-exactly and re-prefilled
   on resume, with zero output divergence;
3. the metrics registry collects TTFT / per-token latency percentiles,
   queue depth, preemptions and arena occupancy per replica;
4. one replica is drained mid-run (rolling-restart path): its queued
   requests rebalance to peers while its active sequences finish;
5. the fullest cluster step feeds the hardware model, pricing the fleet
   as concurrent accelerator cards.

Run:  python examples/cluster_serving.py
"""

import numpy as np

from repro.cluster import ClusterRouter, bursty_trace, busiest_step_reports
from repro.core import TokenPickerConfig
from repro.hw.serving import ServingSimulator
from repro.model.config import get_model_config

N_HEADS, HEAD_DIM = 4, 64
N_REPLICAS = 3


def main() -> None:
    config = TokenPickerConfig(threshold=2e-3)
    router = ClusterRouter(
        N_REPLICAS,
        config,
        policy="least-loaded",
        admission="optimistic",
        max_batch_size=6,
        capacity_tokens=1024,
        seed=0,
    )
    trace = bursty_trace(
        np.random.default_rng(0),
        24,
        n_heads=N_HEADS,
        head_dim=HEAD_DIM,
        prompt_tokens=96,
        max_new_tokens=48,
        burst_size=8,
        gap_steps=6,
    )

    print("=== bursty traffic through the router ===")
    pending = sorted(trace, key=lambda item: item[0])
    reports, i = [], 0
    drained = False
    while i < len(pending) or router.busy:
        while i < len(pending) and pending[i][0] <= router.step_index:
            rid, _ = router.submit(pending[i][1])
            i += 1
        if i >= len(pending) and not drained:
            # rolling restart: route around replica 0, move its queue
            moved = router.drain(0)
            print(f"-- draining replica 0 (rebalanced {moved} queued) --")
            drained = True
        report = router.step()
        marks = []
        for rid, er in report.per_replica.items():
            for tag, items in (
                ("+", er.admitted), ("~", er.preempted), ("^", er.resumed),
            ):
                if items:
                    marks.append(f"r{rid}{tag}{len(items)}")
            if er.retired:
                marks.append(f"r{rid}-{len(er.retired)}")
        if report.step_index % 8 == 0 or marks:
            print(
                f"step {report.step_index:3d}: active={report.n_active:2d} "
                + " ".join(marks)
            )
        reports.append(report)
    router.undrain(0)

    summary = router.summary()
    print(
        f"\n{summary['requests_completed']} requests, "
        f"{summary['generated_tokens']} tokens, "
        f"{summary['preemptions']} preemptions "
        f"over {len(reports)} cluster steps"
    )
    for rep in summary["per_replica"]:
        print(
            f"  replica {rep['replica']}: {rep['requests_completed']} done, "
            f"mean occupancy {rep['mean_batch_occupancy']:.2f}, "
            f"preemptions {rep['preemptions']}, "
            f"KV-bit reduction {rep['kv_bit_reduction']}x"
        )

    print("\n=== telemetry: per-replica latency percentiles ===")
    for rid in range(N_REPLICAS):
        ttft = router.metrics.histogram("ttft_seconds", replica=rid).summary()
        lat = router.metrics.histogram(
            "token_latency_seconds", replica=rid
        ).summary()
        print(
            f"  replica {rid}: TTFT p50/p95 "
            f"{1e3 * ttft['p50']:.2f}/{1e3 * ttft['p95']:.2f} ms, "
            f"token latency p50/p95 "
            f"{1e3 * lat['p50']:.2f}/{1e3 * lat['p95']:.2f} ms"
        )

    print("\n=== fullest cluster step -> modelled accelerator fleet ===")
    model = get_model_config("gpt2-medium")
    sim = ServingSimulator(model, context_length=96, config=config)
    busy = busiest_step_reports(reports)
    ours = sim.price_fleet(busy, engine_heads=N_HEADS)
    base = sim.price_fleet(busy, "baseline", engine_heads=N_HEADS)
    slowest, base_slowest = ours.straggler.total_cycles, base.straggler.total_cycles
    print(
        f"{len(ours.per_replica)} busy replicas, B={ours.batch_size}: "
        f"aggregate {base.aggregate_tokens_per_second():,.0f} -> "
        f"{ours.aggregate_tokens_per_second():,.0f} tokens/s, "
        f"straggler step {base_slowest} -> {slowest} "
        f"cycles ({base_slowest / slowest:.2f}x)"
    )


if __name__ == "__main__":
    main()
