"""Bench: tiered KV store traffic and prefix-cache hit rate.

Two checks for the ``repro.kvstore`` layer, at small sizes:

1. **Tiered DRAM traffic** — a long-context trace (low-information filler
   bulk, the workload class where certified bounds settle inside the
   estimator sketch) served untiered and tiered.  The tiered engine must
   move strictly fewer modelled **fast-tier DRAM bytes** for the same
   decoded tokens — the paper's scarce resource — while every request's
   pruning traffic counters stay bit-equal (tiering never changes a
   decision).  Both runs use the same :class:`~repro.hw.dram.TieredDRAMModel`
   ledger semantics (the untiered run is the ``none`` policy), so the
   comparison is charge-for-charge.

2. **Prefix caching** — a shared-prefix workload through the radix cache
   must reach a >= 50% prompt-token hit rate and cut modelled cold-tier
   ingest bytes accordingly, again with bit-identical outputs.
"""

import numpy as np

from repro.core import TokenPickerConfig
from repro.kvstore import RadixKVCache, TierConfig
from repro.serving import ServingEngine
from repro.workloads.traces import long_context_trace, shared_prefix_trace

N_HEADS, HEAD_DIM = 2, 32
PROMPT_TOKENS, MAX_NEW = 128, 16
BATCH = 2
N_REQUESTS = 4
# small shapes need a stark low-information bulk for the demotion
# effect to amortise within so few decode steps
FILLER_FRACTION, FILLER_SCALE = 0.85, 0.15
N_PREFIX_REQUESTS = 6
PREFIX, SUFFIX = 32, 8
CFG = TokenPickerConfig(threshold=2e-3)
SEED = 0
TIERED = TierConfig(policy="mass", mass_threshold=2e-3, hot_tail=8)
UNTIERED = TierConfig(policy="none")


def _engine(tier, cache=None):
    return ServingEngine(
        CFG,
        max_batch_size=BATCH,
        capacity_tokens=BATCH * (PROMPT_TOKENS + MAX_NEW + 32),
        seed=SEED,
        kv_tiering=tier,
        prefix_cache=cache,
    )


def _drain(engine, trace):
    for _, request in trace:
        engine.submit(request)
    engine.run_until_drained()
    return engine


def _traffic_by_request(engine) -> dict:
    return {
        done.request_id: (done.stats.counter.k_bits, done.stats.counter.v_bits)
        for done in engine.completed
    }


def _long_trace():
    return long_context_trace(
        np.random.default_rng(SEED),
        N_REQUESTS,
        n_heads=N_HEADS,
        head_dim=HEAD_DIM,
        prompt_tokens=PROMPT_TOKENS,
        max_new_tokens=MAX_NEW,
        filler_fraction=FILLER_FRACTION,
        filler_scale=FILLER_SCALE,
    )


def _prefix_trace():
    return shared_prefix_trace(
        np.random.default_rng(SEED),
        N_PREFIX_REQUESTS,
        n_heads=N_HEADS,
        head_dim=HEAD_DIM,
        prefix_tokens=PREFIX,
        suffix_tokens=SUFFIX,
        max_new_tokens=MAX_NEW,
        n_groups=2,
    )


def test_tiering_reduces_fast_dram_bytes_per_token():
    """Tiering moves strictly fewer fast-tier bytes per decoded token on
    the long-context trace, with zero divergence."""
    untiered = _drain(_engine(UNTIERED), _long_trace())
    tiered = _drain(_engine(TIERED), _long_trace())
    assert _traffic_by_request(untiered) == _traffic_by_request(tiered)
    assert tiered.tiers.demotions_total > 0

    def fast_bytes_per_token(engine):
        tokens = sum(c.stats.generated_tokens for c in engine.completed)
        return engine.tiers.dram.fast_bytes / tokens

    assert fast_bytes_per_token(tiered) < fast_bytes_per_token(untiered)


def test_prefix_cache_hit_rate_at_least_half():
    """>= 50% prompt-token hit rate on the shared-prefix workload, with
    bit-identical pruning traffic."""
    plain = _drain(_engine(UNTIERED), _prefix_trace())
    cache = RadixKVCache()
    cached = _drain(_engine(UNTIERED, cache), _prefix_trace())
    assert _traffic_by_request(plain) == _traffic_by_request(cached)
    assert cache.hit_rate >= 0.5, f"hit rate {cache.hit_rate:.2%} < 50%"
    # hits skip their cold-tier ingest write
    assert (
        cached.tiers.dram.slow_write_bytes < plain.tiers.dram.slow_write_bytes
    )
