"""Tiered KV store + prefix caching on a shared-prefix workload.

Multi-tenant serving traffic repeats itself: system prompts, few-shot
scaffolds and conversation histories mean many requests' prompts agree on
a long prefix.  This example serves one such workload
(:func:`repro.workloads.traces.shared_prefix_trace`) three ways —

1. plain engine (ledger only, ``none`` policy),
2. prefix cache on (shared prefixes dedupe into refcounted cold-tier
   extents: ingest transfer and cold capacity drop),
3. prefix cache + KV tiering (low-mass tokens demote to the slow tier:
   fast-DRAM bytes per decoded token drop),

and shows that all three produce **bit-identical** generated outputs —
a demoted token's sketch digits decide every pruning round it takes
part in, and one that outlives its sketch is promoted on demand.

Run:  PYTHONPATH=src python examples/prefix_caching.py
"""

import numpy as np

from repro.core import TokenPickerConfig
from repro.kvstore import RadixKVCache, TierConfig
from repro.serving import ServingEngine
from repro.workloads.traces import shared_prefix_trace

N_HEADS, HEAD_DIM = 4, 64
PREFIX, SUFFIX, MAX_NEW = 96, 32, 16
N_REQUESTS, N_GROUPS = 8, 2
CFG = TokenPickerConfig(threshold=2e-3)


def make_trace():
    # regenerate from the same seed per engine: requests are stateful
    return shared_prefix_trace(
        np.random.default_rng(7),
        N_REQUESTS,
        n_heads=N_HEADS,
        head_dim=HEAD_DIM,
        prefix_tokens=PREFIX,
        suffix_tokens=SUFFIX,
        max_new_tokens=MAX_NEW,
        n_groups=N_GROUPS,
        # system prompts carry a low-information bulk: the workload class
        # where probability-guided demotion finds a stable cold set
        filler_fraction=0.85,
        filler_scale=0.15,
    )


def serve(tier, cache):
    engine = ServingEngine(
        CFG,
        max_batch_size=4,
        capacity_tokens=4 * (PREFIX + SUFFIX + MAX_NEW + 32),
        seed=0,
        kv_tiering=tier,
        prefix_cache=cache,
    )
    for _, request in make_trace():
        engine.submit(request)
    outputs = {}
    for report in engine.run_until_drained():
        for sid, result in report.results.items():
            rid = report.per_sequence[sid].request_id
            outputs.setdefault(rid, []).append(result.outputs.copy())
    tokens = sum(c.stats.generated_tokens for c in engine.completed)
    return engine, outputs, tokens


def main():
    plain, base_out, tokens = serve(TierConfig(policy="none"), None)
    cached, cache_out, _ = serve(TierConfig(policy="none"), RadixKVCache())
    tiered, tier_out, _ = serve(
        TierConfig(policy="mass", mass_threshold=2e-3, hot_tail=8),
        RadixKVCache(),
    )

    for label, outputs in (("prefix cache", cache_out), ("tiered", tier_out)):
        identical = all(
            np.array_equal(a, b)
            for rid in base_out
            for a, b in zip(base_out[rid], outputs[rid])
        )
        print(f"{label:>12}: outputs bit-identical to plain run: {identical}")

    snap = cached.prefix_cache.snapshot()
    print(
        f"\nprefix cache: {snap['hit_rate']:.1%} hit rate "
        f"({snap['hit_tokens']}/{snap['lookup_tokens']} prompt tokens), "
        f"{snap['splits']} copy-on-divergence splits, "
        f"{snap['resident_tokens']} tokens resident "
        f"(vs {N_REQUESTS * (PREFIX + SUFFIX)} unshared)"
    )
    saved = (
        plain.tiers.dram.slow_write_bytes - cached.tiers.dram.slow_write_bytes
    )
    print(f"cold-tier ingest saved by sharing: {saved:,} modelled bytes")

    print("\nmodelled DRAM bytes per decoded token:")
    for label, engine in (("plain", plain), ("tiered+cache", tiered)):
        dram = engine.tiers.dram
        print(
            f"  {label:>12}: fast {dram.fast_bytes / tokens:9,.0f} B/token   "
            f"slow {dram.slow_bytes / tokens:9,.0f} B/token"
        )
    tsnap = tiered.tiers.snapshot()
    print(
        f"\ntiering: {tsnap['demotions']} demotions, "
        f"{tsnap['promotions']} on-demand promotions "
        f"({tsnap['sketch_chunks']}-chunk sketch stays reachable)"
    )


if __name__ == "__main__":
    main()
