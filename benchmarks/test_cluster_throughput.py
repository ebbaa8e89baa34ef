"""Bench: multi-replica cluster scaling and optimistic-admission wins.

Two checks for the ``repro.cluster`` layer, at small sizes:

1. **Replica scaling** — the same workload served by 1 vs 4
   router-fronted replicas.  Each replica models its own accelerator card
   (its own weight stream + its own sequences' measured KV traffic), so
   the cluster's aggregate decode throughput is the sum of concurrent
   per-replica rates (:meth:`repro.hw.serving.ServingSimulator.
   price_fleet`); 4 busy replicas must clear >= 1.8x the 1-replica
   aggregate on the modelled clock.

2. **Optimistic admission** — a bursty decode-heavy trace on one replica
   with a tight arena, served under conservative (full-lifetime
   reservation) and optimistic (prompt-only + probability-guided
   preemption) memory policy.  Optimistic must sustain strictly higher
   mean batch occupancy, preempt at least once, and show **zero output
   divergence**: every request's pruning-traffic counters must be
   bit-equal across the two runs.
"""

import numpy as np

from repro.cluster import ClusterRouter, bursty_trace, busiest_step_reports
from repro.core import TokenPickerConfig
from repro.hw.serving import ServingSimulator
from repro.model.config import get_model_config

N_HEADS, HEAD_DIM = 2, 16
PROMPT_TOKENS, MAX_NEW = 24, 3
PER_REPLICA_BATCH = 2
# decode-heavy burst shape for the admission comparison: short prompts,
# long generations — where full-lifetime reservations idle the most arena
BURST_PROMPT, BURST_NEW = 16, 24
BURST_BLOCK = 8
CFG = TokenPickerConfig(threshold=2e-3)
SEED = 0


def _aggregate_tokens_per_sec(n_replicas: int) -> float:
    """Modelled fleet throughput at the fullest cluster step."""
    router = ClusterRouter(
        n_replicas,
        CFG,
        policy="least-loaded",
        admission="optimistic",
        max_batch_size=PER_REPLICA_BATCH,
        capacity_tokens=PER_REPLICA_BATCH * (PROMPT_TOKENS + MAX_NEW + 32),
        seed=SEED,
    )
    reports = router.run_trace(
        bursty_trace(
            np.random.default_rng(SEED),
            4 * PER_REPLICA_BATCH * 2,
            n_heads=N_HEADS,
            head_dim=HEAD_DIM,
            prompt_tokens=PROMPT_TOKENS,
            max_new_tokens=MAX_NEW,
            burst_size=4 * PER_REPLICA_BATCH,
            gap_steps=0,
        )
    )
    sim = ServingSimulator(
        get_model_config("gpt2-medium"), context_length=PROMPT_TOKENS,
        config=CFG,
    )
    return sim.price_fleet(
        busiest_step_reports(reports), engine_heads=N_HEADS
    ).aggregate_tokens_per_second()


def _burst_run(admission: str) -> ClusterRouter:
    router = ClusterRouter(
        1,
        CFG,
        admission=admission,
        max_batch_size=PER_REPLICA_BATCH,
        capacity_tokens=PER_REPLICA_BATCH * (BURST_PROMPT + BURST_NEW + 16) // 2,
        block_size=BURST_BLOCK,
        seed=SEED,
    )
    router.run_trace(
        bursty_trace(
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
    )
    return router


def _traffic_by_request(router: ClusterRouter) -> dict:
    return {
        done.request_id: (done.stats.counter.k_bits, done.stats.counter.v_bits)
        for _, done in router.completed
    }


def test_cluster_aggregate_scaling():
    """>= 1.8x aggregate modelled tokens/s at 4 replicas vs 1 on the same
    workload (each replica is its own accelerator)."""
    single = _aggregate_tokens_per_sec(1)
    quad = _aggregate_tokens_per_sec(4)
    assert quad / single >= 1.8, (
        f"4-replica aggregate is only {quad / single:.2f}x the single replica"
    )


def test_optimistic_occupancy_beats_conservative_without_divergence():
    """On a bursty trace, optimistic admission sustains higher mean batch
    occupancy with preemptions and zero output divergence."""
    conservative = _burst_run("conservative")
    optimistic = _burst_run("optimistic")
    assert optimistic.summary()["preemptions"] > 0
    assert conservative.summary()["preemptions"] == 0
    assert (
        optimistic.mean_batch_occupancy(0)
        > conservative.mean_batch_occupancy(0)
    )
    assert _traffic_by_request(conservative) == _traffic_by_request(optimistic)
