"""Tests for the tiered KV store, demotion policies and radix prefix cache.

The load-bearing properties:

* **Tiering bit-identity** — with demotion/promotion active, every
  generated step's kept mask, probabilities and attention outputs are
  bit-equal to the untiered engine's (the promotion-on-sketch-survival
  repair loop at work).
* **Prefix-sharing bit-identity + refcounting** — N requests with a
  shared prompt prefix produce bit-identical outputs vs unshared runs,
  and refcounted extents free exactly when the last sharer finishes.
* **Byte-exact movement** — demote scrubs the arena beyond the sketch,
  promote restores the original encoded rows bit-for-bit, and swaps of
  partially-demoted sequences stay byte-exact.
"""

import numpy as np
import pytest

from repro.core import TokenPickerConfig
from repro.hw.dram import DRAMTierParams, TieredDRAMModel
from repro.kvstore import (
    LRUDemotionPolicy,
    MassDemotionPolicy,
    RadixKVCache,
    RecencyDemotionPolicy,
    TierConfig,
    TieredKVStore,
    make_demotion_policy,
    token_digests,
)
from repro.serving import ServingEngine, synthetic_request
from repro.workloads.traces import long_context_trace, shared_prefix_trace

CFG = TokenPickerConfig(threshold=2e-3)
N_HEADS, HEAD_DIM = 4, 32


def _drain_collecting(engine, requests_or_trace):
    """Submit everything, drain, and collect per-request step outputs."""
    for item in requests_or_trace:
        request = item[1] if isinstance(item, tuple) else item
        engine.submit(request)
    outputs = {}
    for report in engine.run_until_drained():
        for sid, result in report.results.items():
            rid = report.per_sequence[sid].request_id
            outputs.setdefault(rid, []).append(
                (
                    result.kept.copy(),
                    result.probs.copy(),
                    result.outputs.copy(),
                )
            )
    return outputs


def _assert_identical(a, b):
    assert set(a) == set(b)
    for rid in a:
        assert len(a[rid]) == len(b[rid])
        for (k1, p1, o1), (k2, p2, o2) in zip(a[rid], b[rid]):
            assert np.array_equal(k1, k2)
            assert np.array_equal(p1, p2)
            assert np.array_equal(o1, o2)


def _engine(tier=None, cache=None, batch=4, capacity=None, prompt=96, new=12):
    return ServingEngine(
        CFG,
        max_batch_size=batch,
        capacity_tokens=capacity or batch * (prompt + new + 32),
        seed=0,
        kv_tiering=tier,
        prefix_cache=cache,
    )


def _requests(n, prompt=96, new=12, seed=0):
    rng = np.random.default_rng(seed)
    return [
        synthetic_request(rng, N_HEADS, prompt, HEAD_DIM, new)
        for _ in range(n)
    ]


class TestTieredDRAMModel:
    def test_ledger_and_cycles(self):
        model = TieredDRAMModel()
        model.fast_read(1000)
        model.fast_write(24)
        model.slow_read(512)
        model.slow_write(100)
        assert model.fast_bytes == 1024
        assert model.slow_bytes == 612
        assert model.total_bytes == 1636
        # slow tier is slower per byte: same bytes, more cycles
        assert model.slow.cycles(4096) > model.fast.cycles(4096)
        # concurrent tiers: the step takes the slower stream
        assert model.step_cycles(4096, 4096) == model.slow.cycles(4096)
        model.reset()
        assert model.total_bytes == 0
        with pytest.raises(ValueError):
            model.fast_read(-1)

    def test_tier_params_validation(self):
        with pytest.raises(ValueError):
            DRAMTierParams(n_channels=0)
        with pytest.raises(ValueError):
            DRAMTierParams(latency_cycles=-1)


class TestPolicies:
    def _view(self, step=10):
        from repro.kvstore.policy import TokenTierView

        return TokenTierView(
            seq_id=0,
            length=6,
            mass=np.array([1e-6, 0.5, 1e-6, 0.2, 1e-6, 1.0]),
            last_kept=np.array([0, 9, 1, 10, 2, 10]),
            last_survived=np.array([0, 9, 1, 10, 2, 10]),
            seen=np.array([5, 5, 1, 5, 5, 5]),
        )

    def test_mass_policy_thresholds_with_evidence(self):
        policy = MassDemotionPolicy(threshold=1e-3, min_seen=2)
        view = self._view()
        eligible = np.arange(6)
        # position 2 has low mass but only one observation
        assert policy.demote_now(view, 10, eligible).tolist() == [0, 4]
        assert policy.rank(view, 10)[0] == pytest.approx(1e-6)

    def test_lru_policy_uses_kept_recency(self):
        policy = LRUDemotionPolicy(idle_steps=8)
        view = self._view()
        assert policy.demote_now(view, 10, np.arange(6)).tolist() == [0, 2, 4]

    def test_recency_policy_windows(self):
        policy = RecencyDemotionPolicy(window=2)
        view = self._view()
        assert policy.demote_now(view, 10, np.arange(6)).tolist() == [0, 1, 2, 3]

    def test_factory(self):
        assert make_demotion_policy("none").name == "none"
        assert make_demotion_policy("mass").name == "mass"
        assert make_demotion_policy("lru").name == "lru"
        assert make_demotion_policy("recency").name == "recency"
        with pytest.raises(ValueError):
            make_demotion_policy("fifo")
        with pytest.raises(ValueError):
            MassDemotionPolicy(threshold=-1.0)
        with pytest.raises(ValueError):
            LRUDemotionPolicy(idle_steps=0)
        with pytest.raises(ValueError):
            RecencyDemotionPolicy(window=0)


class TestTierConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            TierConfig(hot_tail=0)
        with pytest.raises(ValueError):
            TierConfig(hot_budget_tokens=-1)
        with pytest.raises(ValueError):
            TierConfig(mass_decay=1.0)
        with pytest.raises(ValueError):
            TierConfig(sketch_chunks=0)
        with pytest.raises(ValueError):
            TierConfig(survive_idle_steps=0)

    def test_hot_tail_must_cover_prompt_guard(self):
        engine = ServingEngine(
            TokenPickerConfig(prompt_guard=8),
            capacity_tokens=256,
            kv_tiering=TierConfig(hot_tail=4),
        )
        with pytest.raises(ValueError, match="hot_tail"):
            engine.submit(_requests(1, prompt=32, new=2)[0])
            engine.step()

    def test_sketch_cannot_exceed_chunks(self):
        from repro.serving.kv_pool import KVCachePool

        pool = KVCachePool(N_HEADS, HEAD_DIM, capacity_tokens=64)
        with pytest.raises(ValueError, match="sketch_chunks"):
            TieredKVStore(pool, CFG.quant, TierConfig(sketch_chunks=99))


class TestDemotePromoteBytes:
    """Byte-exact movement on a store wired straight to a pool."""

    def _store(self, sketch=None):
        from repro.serving.kv_pool import KVCachePool

        pool = KVCachePool(
            N_HEADS,
            HEAD_DIM,
            capacity_tokens=256,
            k_heads=N_HEADS * CFG.quant.n_chunks,
        )
        cfg = TierConfig(policy="none", hot_tail=4, sketch_chunks=sketch)
        store = TieredKVStore(pool, CFG.quant, cfg)
        rng = np.random.default_rng(0)
        pool.register(7)
        k = rng.normal(size=(N_HEADS * CFG.quant.n_chunks, 32, HEAD_DIM))
        v = rng.normal(size=(N_HEADS, 32, HEAD_DIM))
        pool.append(7, k, v)
        store.register(7)
        store.note_append(7, 32, step=0)
        return store, pool

    def test_demote_scrubs_beyond_sketch_and_promote_restores(self):
        store, pool = self._store()
        offset, _ = pool.segment(7)
        original_k = pool.k_arena[offset:offset + 32].copy()
        original_v = pool.v_arena[offset:offset + 32].copy()
        n = store.demote(7, [0, 1, 2, 5])
        assert n == 4
        assert store.demoted_count(7) == 4
        assert store.hot_tokens(7) == 28
        rows = pool.k_arena[offset + np.array([0, 1, 2, 5])].reshape(
            4, N_HEADS, CFG.quant.n_chunks, HEAD_DIM
        )
        # sketch chunks intact, the rest scrubbed; V gone
        assert np.array_equal(
            rows[:, :, : store.sketch_chunks, :],
            original_k[[0, 1, 2, 5]].reshape(
                4, N_HEADS, CFG.quant.n_chunks, HEAD_DIM
            )[:, :, : store.sketch_chunks, :],
        )
        assert not rows[:, :, store.sketch_chunks:, :].any()
        assert not pool.v_arena[offset + np.array([0, 1, 2, 5])].any()
        # hot rows untouched
        assert np.array_equal(pool.k_arena[offset + 3], original_k[3])
        # promotion restores the exact bytes
        assert store.promote(7, [0, 1, 2, 5]) == 4
        assert np.array_equal(pool.k_arena[offset:offset + 32], original_k)
        assert np.array_equal(pool.v_arena[offset:offset + 32], original_v)
        # re-demotion reuses the immutable cold copy: no new slow write
        before = store.dram.slow_write_bytes
        store.demote(7, [0, 1])
        assert store.dram.slow_write_bytes == before

    def test_demote_guards_hot_tail_and_bounds(self):
        store, _ = self._store()
        with pytest.raises(ValueError, match="hot tail"):
            store.demote(7, [30])
        with pytest.raises(ValueError):
            store.demote(7, [-1])
        assert store.demote(7, []) == 0
        # double demotion is a no-op
        assert store.demote(7, [4]) == 1
        assert store.demote(7, [4]) == 0

    def test_swap_roundtrip_of_partially_demoted_sequence(self):
        store, pool = self._store()
        offset, _ = pool.segment(7)
        original_k = pool.k_arena[offset:offset + 32].copy()
        original_v = pool.v_arena[offset:offset + 32].copy()
        store.demote(7, np.arange(0, 16))
        swapped = store.on_swap_out(7, pool.swap_out(7))
        # the swap image is byte-exact despite the scrubbed arena rows
        assert np.array_equal(swapped.k_rows, original_k)
        assert np.array_equal(swapped.v_rows, original_v)
        assert store.swap_rows_skipped_total == 16
        pool.swap_in(7, swapped)
        store.on_swap_in(7)
        offset, _ = pool.segment(7)
        # hot suffix restored exactly; demoted prefix scrubbed again
        assert np.array_equal(
            pool.k_arena[offset + 16:offset + 32], original_k[16:]
        )
        assert not pool.v_arena[offset:offset + 16].any()
        assert store.demoted_count(7) == 16
        assert store.promote(7, np.arange(0, 16)) == 16
        assert np.array_equal(pool.k_arena[offset:offset + 32], original_k)
        assert np.array_equal(pool.v_arena[offset:offset + 32], original_v)


class TestTieredEngineBitIdentity:
    """Acceptance: tiered outputs are bit-identical to untiered ones."""

    @staticmethod
    def _trace():
        # regenerate from the same seed per engine: requests are stateful
        # once submitted
        return [
            r
            for _, r in long_context_trace(
                np.random.default_rng(3), 4, n_heads=N_HEADS,
                head_dim=HEAD_DIM, prompt_tokens=128, max_new_tokens=12,
            )
        ]

    @pytest.mark.parametrize(
        "tier",
        [
            TierConfig(policy="mass", mass_threshold=2e-3, hot_tail=8),
            TierConfig(policy="lru", lru_idle_steps=3, hot_tail=8),
            TierConfig(
                policy="recency", recency_window=16, hot_tail=8,
                survive_idle_steps=1,
            ),
        ],
        ids=["mass", "lru", "recency"],
    )
    def test_policy_outputs_bit_identical(self, tier):
        baseline = _drain_collecting(_engine(prompt=128), self._trace())
        engine = _engine(tier, prompt=128)
        tiered = _drain_collecting(engine, self._trace())
        _assert_identical(baseline, tiered)
        assert engine.tiers.demotions_total > 0

    def test_promotion_rerun_path_exercised(self):
        """An aggressive recency window forces sketch-survivor promotions
        and kernel re-runs — and outputs still match bit for bit."""
        tier = TierConfig(
            policy="recency", recency_window=4, hot_tail=4,
            survive_idle_steps=1,
        )
        baseline = _drain_collecting(_engine(), _requests(4))
        engine = _engine(tier)
        tiered = _drain_collecting(engine, _requests(4))
        _assert_identical(baseline, tiered)
        assert engine.tiers.promotions_total > 0
        assert engine.tiers.rerun_steps_total > 0

    def test_hot_budget_enforced(self):
        tier = TierConfig(
            policy="mass", mass_threshold=1.1, hot_tail=8,
            hot_budget_tokens=200, survive_idle_steps=1,
        )
        engine = _engine(tier, prompt=96, new=8)
        baseline = _drain_collecting(_engine(prompt=96, new=8), _requests(4, new=8))
        tiered = _drain_collecting(engine, _requests(4, new=8))
        _assert_identical(baseline, tiered)
        assert engine.tiers.demotions_total > 0

    def test_tiered_preemption_stays_bit_identical(self):
        """Optimistic admission + tiering: preempted-and-resumed demoted
        sequences still produce untiered bits."""
        from repro.cluster.memory import make_memory_manager

        def build(tier):
            return ServingEngine(
                CFG,
                max_batch_size=4,
                capacity_tokens=4 * 72,
                block_size=8,
                seed=0,
                memory_manager=make_memory_manager(
                    "tiered" if tier else "optimistic", block_size=8
                ),
                kv_tiering=tier,
            )

        requests = _requests(8, prompt=48, new=24, seed=5)
        untiered_engine = build(None)
        baseline = _drain_collecting(untiered_engine, requests)
        tier = TierConfig(policy="mass", mass_threshold=2e-3, hot_tail=8)
        engine = build(tier)
        tiered = _drain_collecting(
            engine, _requests(8, prompt=48, new=24, seed=5)
        )
        assert untiered_engine.preemptions_total > 0
        _assert_identical(baseline, tiered)

    def test_step_views_carry_tier_split(self):
        tier = TierConfig(policy="mass", mass_threshold=2e-3, hot_tail=8)
        engine = _engine(tier, prompt=128)
        for request in _requests(2, prompt=128):
            engine.submit(request)
        saw_slow = False
        while engine.n_pending or engine.n_active:
            report = engine.step()
            for view in report.per_sequence.values():
                assert view.fast_bits >= 0 and view.slow_bits >= 0
                assert (
                    view.fast_bits + view.slow_bits
                    == view.stats.total_bits_fetched
                )
                saw_slow = saw_slow or view.slow_bits > 0
        assert saw_slow


class TestRadixCache:
    def _prompt(self, rng, t=12):
        return (
            rng.normal(size=(N_HEADS, t, HEAD_DIM)),
            rng.normal(size=(N_HEADS, t, HEAD_DIM)),
        )

    def test_chained_digests_detect_prefixes(self):
        rng = np.random.default_rng(0)
        k, v = self._prompt(rng)
        d1 = token_digests(k, v)
        d2 = token_digests(k.copy(), v.copy())
        assert d1 == d2
        k2 = k.copy()
        k2[:, 6, :] += 1.0
        d3 = token_digests(k2, v)
        assert d3[:6] == d1[:6]
        assert all(a != b for a, b in zip(d3[6:], d1[6:]))

    def test_acquire_hit_miss_and_split(self):
        rng = np.random.default_rng(1)
        cache = RadixKVCache()
        k, v = self._prompt(rng, 16)
        h1 = cache.acquire(k, v)
        assert h1.hit_tokens == 0 and h1.miss_tokens == 16
        # identical prompt: full hit
        h2 = cache.acquire(k, v)
        assert h2.hit_tokens == 16
        assert cache.total_tokens == 16
        # shared 10-token prefix, divergent suffix: split at the fork
        k3, v3 = k.copy(), v.copy()
        k3[:, 10:, :] = rng.normal(size=(N_HEADS, 6, HEAD_DIM))
        h3 = cache.acquire(k3, v3)
        assert h3.hit_tokens == 10
        assert cache.splits_total == 1
        assert cache.total_tokens == 16 + 6
        assert cache.hit_rate == pytest.approx((16 + 10) / 48)
        # the split preserved the stored rows bit-for-bit
        assert cache.match_length(k, v) == 16
        assert cache.match_length(k3, v3) == 16

    def test_release_frees_exactly_at_last_sharer(self):
        rng = np.random.default_rng(2)
        cache = RadixKVCache(retain_unreferenced=False)
        k, v = self._prompt(rng, 8)
        h1 = cache.acquire(k, v)
        h2 = cache.acquire(k, v)
        assert cache.total_tokens == 8
        assert cache.release(h1) == 0  # one sharer still holds the extent
        assert cache.total_tokens == 8
        assert cache.release(h2) == 8  # last sharer: freed exactly now
        assert cache.total_tokens == 0
        with pytest.raises(ValueError):
            cache.release(h2)

    def test_retained_cache_survives_release_and_evicts(self):
        rng = np.random.default_rng(3)
        cache = RadixKVCache()  # retain_unreferenced=True
        k, v = self._prompt(rng, 8)
        handle = cache.acquire(k, v)
        cache.release(handle)
        assert cache.total_tokens == 8  # still resident for future hits
        h2 = cache.acquire(k, v)
        assert h2.hit_tokens == 8
        cache.release(h2)
        assert cache.evict_unreferenced() == 8
        assert cache.total_tokens == 0

    def test_capacity_budget_auto_evicts_lru(self):
        rng = np.random.default_rng(5)
        cache = RadixKVCache(capacity_tokens=16)
        k1, v1 = self._prompt(rng, 8)
        k2, v2 = self._prompt(rng, 8)
        k3, v3 = self._prompt(rng, 8)
        cache.release(cache.acquire(k1, v1))
        cache.release(cache.acquire(k2, v2))
        assert cache.total_tokens == 16
        # a third prompt pushes past the budget: the oldest-use extent
        # (prompt 1) is evicted on acquire, the still-referenced newest
        # never is
        h3 = cache.acquire(k3, v3)
        assert cache.total_tokens == 16
        assert cache.match_length(k1, v1) == 0
        assert cache.match_length(k2, v2) == 8
        cache.release(h3)
        with pytest.raises(ValueError):
            RadixKVCache(capacity_tokens=-1)

    def test_match_length_is_a_pure_probe(self):
        rng = np.random.default_rng(6)
        cache = RadixKVCache(capacity_tokens=16)
        k1, v1 = self._prompt(rng, 8)
        k2, v2 = self._prompt(rng, 8)
        cache.release(cache.acquire(k1, v1))
        cache.release(cache.acquire(k2, v2))
        # probing the older extent must not refresh its LRU stamp
        assert cache.match_length(k1, v1) == 8
        k3, v3 = self._prompt(rng, 8)
        cache.release(cache.acquire(k3, v3))
        assert cache.match_length(k1, v1) == 0  # still the eviction victim
        assert cache.match_length(k2, v2) == 8

    def test_eviction_spares_referenced_extents(self):
        rng = np.random.default_rng(4)
        cache = RadixKVCache()
        k, v = self._prompt(rng, 8)
        handle = cache.acquire(k, v)
        assert cache.evict_unreferenced() == 0
        assert cache.total_tokens == 8
        cache.release(handle)


class TestPrefixSharingProperty:
    """Acceptance: shared-prefix serving is bit-identical to unshared."""

    def _trace(self, seed=0):
        return shared_prefix_trace(
            np.random.default_rng(seed),
            6,
            n_heads=N_HEADS,
            head_dim=HEAD_DIM,
            prefix_tokens=48,
            suffix_tokens=16,
            max_new_tokens=8,
            n_groups=2,
        )

    def test_outputs_bit_identical_and_hit_rate(self):
        baseline = _drain_collecting(
            _engine(prompt=64, new=8), self._trace()
        )
        cache = RadixKVCache()
        engine = _engine(cache=cache, prompt=64, new=8)
        shared = _drain_collecting(engine, self._trace())
        _assert_identical(baseline, shared)
        # 6 requests in 2 groups of 3: 2/3 of all prefix tokens hit
        assert cache.hit_rate >= 0.5
        hits = [c.stats.prefix_hit_tokens for c in engine.completed]
        assert sorted(hits)[:2] == [0, 0] and sorted(hits)[2] == 48

    def test_extents_free_exactly_when_last_sharer_finishes(self):
        cache = RadixKVCache(retain_unreferenced=False)
        engine = _engine(cache=cache, batch=6, prompt=64, new=8)
        for _, request in self._trace():
            engine.submit(request)
        resident_during = 0
        while engine.n_pending or engine.n_active:
            engine.step()
            if engine.n_active:
                resident_during = max(resident_during, cache.total_tokens)
        # while sharers run, the two prefixes are stored once each plus
        # private suffixes; after the last retires, everything is freed
        assert resident_during > 0
        assert cache.total_tokens == 0
        assert cache.freed_tokens_total == cache.inserted_tokens_total

    def test_tiering_and_prefix_cache_compose(self):
        tier = TierConfig(policy="mass", mass_threshold=2e-3, hot_tail=8)
        baseline = _drain_collecting(_engine(prompt=64, new=8), self._trace())
        cache = RadixKVCache()
        engine = _engine(tier, cache, prompt=64, new=8)
        combined = _drain_collecting(engine, self._trace())
        _assert_identical(baseline, combined)
        assert cache.hit_rate >= 0.5
        # cache hits skipped their cold ingest in the ledger: a hit
        # charges a slow read instead of a slow write
        assert engine.tiers.dram.slow_read_bytes > 0
