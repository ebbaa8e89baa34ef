"""Tracing is an observer: a fully traced run of the whole feature product
(two replicas, head shards, KV tiers, prefix cache, tiered admission,
chunked prefill, preemption) steps exactly like the untraced run, and
every engine total is the fold of its step reports."""

import numpy as np

from repro.cluster import ClusterRouter
from repro.core import TokenPickerConfig
from repro.kvstore import TierConfig
from repro.obs import Tracer
from repro.workloads import shared_prefix_trace


def _run(tracer):
    router = ClusterRouter(
        2,
        TokenPickerConfig(threshold=2e-3),
        admission="tiered",
        max_batch_size=4,
        capacity_tokens=256,
        block_size=16,
        prefill_budget_tokens=24,
        kv_tiering=TierConfig(hot_budget_tokens=96, hot_tail=8),
        prefix_cache=True,
        shards=2,
        seed=5,
        tracer=tracer,
    )
    trace = shared_prefix_trace(
        np.random.default_rng(5), 12, n_heads=2, head_dim=16,
        prefix_tokens=32, suffix_tokens=16, max_new_tokens=24,
        n_groups=2, burst_size=6, gap_steps=3,
    )
    return router, router.run_trace(trace)


def _step_record(report):
    return (
        report.admitted,
        report.preempted,
        report.resumed,
        [(done.request_id, done.state) for done in report.retired],
        {
            sid: (v.request_id, v.context_length, v.stats, v.fast_bits,
                  v.slow_bits)
            for sid, v in report.per_sequence.items()
        },
        (report.tier_demotions, report.tier_promotions, report.tier_reruns),
        (report.prefilling, report.prefill_chunks, report.prefill_tokens,
         report.prefill_bits),
        report.shard_views,
        None if report.round_alive is None else report.round_alive.tolist(),
    )


def _totals(engine):
    return (
        engine.peak_concurrency,
        engine.prefill_chunks_total,
        engine.prefill_tokens_total,
        engine.allgather_bits_total,
        engine.allgather_baseline_bits_total,
        engine.round_alive_totals.tolist(),
        engine.preemptions_total,
        engine.resumes_total,
        engine.counter.k_bits,
        engine.counter.v_bits,
        engine.tiers.snapshot(),
        engine.prefix_cache.snapshot(),
    )


def test_full_tracing_changes_no_report_output_or_total():
    plain_router, plain = _run(None)
    tracer = Tracer()
    traced_router, traced = _run(tracer)
    assert tracer.open_span_count == 0 and not tracer.errors
    assert sum(
        ev.name == "engine_step" for ev in tracer.events
    ) > 0
    assert len(plain) == len(traced)
    for a, b in zip(plain, traced):
        assert sorted(a.per_replica) == sorted(b.per_replica)
        for rid, report in a.per_replica.items():
            other = b.per_replica[rid]
            assert _step_record(report) == _step_record(other)
            for sid, result in report.results.items():
                assert np.array_equal(
                    result.outputs, other.results[sid].outputs
                )
    for x, y in zip(plain_router.replicas, traced_router.replicas):
        assert _totals(x) == _totals(y)
    # the schedule is under pressure: the check covers preemption too
    assert sum(e.preemptions_total for e in plain_router.replicas) > 0
    assert sum(e.resumes_total for e in plain_router.replicas) > 0
    assert sum(e.tiers.demotions_total for e in plain_router.replicas) > 0


def test_each_folded_total_is_the_fold_of_the_reports():
    router, reports = _run(None)
    for rid, engine in enumerate(router.replicas):
        mine = [r.per_replica[rid] for r in reports if rid in r.per_replica]
        assert engine.peak_concurrency == max(r.n_active for r in mine)
        assert engine.prefill_chunks_total == sum(
            r.prefill_chunks for r in mine
        )
        assert engine.prefill_tokens_total == sum(
            r.prefill_tokens for r in mine
        )
        assert engine.allgather_bits_total == sum(
            v.allgather_bits for r in mine for v in r.shard_views
        )
        assert engine.allgather_baseline_bits_total == sum(
            v.baseline_allgather_bits for r in mine for v in r.shard_views
        )
        alive = sum(r.round_alive for r in mine if r.round_alive is not None)
        assert engine.round_alive_totals.tolist() == alive.tolist()
        assert engine.preemptions_total == sum(len(r.preempted) for r in mine)
        assert engine.resumes_total == sum(len(r.resumed) for r in mine)
