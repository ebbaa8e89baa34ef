"""Tests for the tiered KV store, demotion policies and radix prefix cache.

The load-bearing properties:

* **Tiering bit-identity** — with demotion/promotion active, every
  generated step's kept mask, probabilities and attention outputs are
  bit-equal to the untiered engine's, from one kernel call per step.
* **Prefix-sharing bit-identity + refcounting** — N requests with a
  shared prompt prefix produce bit-identical outputs vs unshared runs,
  and refcounted extents free exactly when the last sharer finishes.
* **Ledger-exact movement** — demote, promote and swaps flip the tier
  map and charge the modelled bytes; a row is written to the slow tier
  at most once, and the host arena's bytes never change.
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
)
from repro.serving import ServingEngine, synthetic_request
from repro.workloads.traces import long_context_trace, shared_prefix_trace

from pool_helpers import register

CFG = TokenPickerConfig(threshold=2e-3)
N_HEADS, HEAD_DIM = 4, 32


def _drain_collecting(engine, requests_or_trace, reports=None):
    """Submit everything, drain, and collect per-request step outputs
    (and the step reports into ``reports`` when given)."""
    for item in requests_or_trace:
        request = item[1] if isinstance(item, tuple) else item
        engine.submit(request)
    outputs = {}
    drained = engine.run_until_drained()
    if reports is not None:
        reports.extend(drained)
    for report in drained:
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
    """Per-request step records equal: kept sets by value, probabilities
    and outputs byte for byte (a ``-0.0`` output must stay ``-0.0``)."""
    assert set(a) == set(b)
    for rid in a:
        assert len(a[rid]) == len(b[rid])
        for (k1, p1, o1), (k2, p2, o2) in zip(a[rid], b[rid]):
            assert np.array_equal(k1, k2)
            for x, y in ((p1, p2), (o1, o2)):
                x, y = np.asarray(x), np.asarray(y)
                assert x.dtype == y.dtype and x.shape == y.shape
                assert x.tobytes() == y.tobytes()


def _spy_kernel_calls(monkeypatch):
    """Count the engine's calls of the fused kernel; returns the list
    each call appends its batch size to."""
    import repro.serving.engine as engine_module

    calls = []
    kernel = engine_module.token_picker_attention_ragged

    def spy(qs, *args, **kw):
        calls.append(qs.shape[0])
        return kernel(qs, *args, **kw)

    monkeypatch.setattr(engine_module, "token_picker_attention_ragged", spy)
    return calls


def _assert_one_kernel_call_per_busy_step(calls, reports):
    busy = [r.batch_size for r in reports if r.batch_size]
    assert busy and calls == busy
    assert not any(r.tier_reruns for r in reports)


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

        pool = KVCachePool(N_HEADS, HEAD_DIM, CFG.quant, capacity_tokens=64)
        with pytest.raises(ValueError, match="sketch_chunks"):
            TieredKVStore(pool, TierConfig(sketch_chunks=99))


class TestDemotePromoteBytes:
    """Modelled byte charges on a store wired straight to a pool."""

    def _store(self, sketch=None):
        from repro.serving.kv_pool import KVCachePool

        pool = KVCachePool(N_HEADS, HEAD_DIM, CFG.quant, capacity_tokens=256)
        cfg = TierConfig(policy="none", hot_tail=4, sketch_chunks=sketch)
        store = TieredKVStore(pool, cfg)
        rng = np.random.default_rng(0)
        register(pool, 7)
        k = rng.integers(-8, 16, size=(32, N_HEADS * CFG.quant.n_chunks, HEAD_DIM))
        v = rng.integers(-2048, 2048, size=(32, N_HEADS, HEAD_DIM))
        pool.append_encoded(7, k.astype(np.int8), v.astype(np.int16))
        store.note_append(7, 32, step=0)
        return store, pool

    @staticmethod
    def _ledger(store):
        snap = store.dram.snapshot()
        return {k: v for k, v in snap.items() if k.endswith("_bytes")}

    @staticmethod
    def _moved(store, before, **rows):
        """Assert the ledger charged each named counter (``fast_read=4``
        …) that many rows' bytes since ``before``, and nothing else."""
        row = -(-store.row_bits // 8)
        after = TestDemotePromoteBytes._ledger(store)
        assert after == {
            k: v + rows.get(k[: -len("_bytes")], 0) * row
            for k, v in before.items()
        }

    def test_demote_and_promote_flip_flags_and_charge(self):
        store, pool = self._store()
        arena = (pool.k_arena.copy(), pool.v_arena.copy())
        before = self._ledger(store)
        assert store.demote(7, [0, 1, 2, 5]) == 4
        assert store.demoted_mask(7).sum() == 4
        assert store.hot_tokens(7) == 28
        self._moved(store, before, fast_read=4, slow_write=4)
        before = self._ledger(store)
        assert store.promote(7, [0, 1, 2, 5, 6]) == 4  # 6 was never demoted
        assert not store.demoted_mask(7).any()
        self._moved(store, before, slow_read=4, fast_write=4)
        # re-demotion reuses the immutable cold copy: no new slow write
        before = self._ledger(store)
        assert store.demote(7, [0, 1]) == 2
        self._moved(store, before)
        assert store.total_cold_tokens == 4
        assert (store.demotions_total, store.promotions_total) == (6, 4)
        # the tiers are a ledger: the host arena's bytes never moved
        assert np.array_equal(pool.k_arena, arena[0])
        assert np.array_equal(pool.v_arena, arena[1])

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

    def test_promote_rejects_positions_outside_the_sequence(self):
        """A negative position must not wrap around to the sequence's
        end, and one past it must not reach the tier arrays' spare
        capacity: both raise before the ledger or the flags move."""
        store, _ = self._store()
        store.demote(7, [0, 1])
        before, flags = self._ledger(store), store.demoted_mask(7).copy()
        for bad in ([-1], [0, -1], [32], [1, 40]):
            with pytest.raises(ValueError, match="outside the sequence"):
                store.promote(7, bad)
        self._moved(store, before)
        assert np.array_equal(store.demoted_mask(7), flags)
        assert store.promotions_total == 0

    def test_duplicate_and_unsorted_positions_count_once(self):
        """Raw position lists (duplicates, any order, empty) act exactly
        as their ``np.unique`` would: same counts, same tier flags, same
        slow-tier bytes."""
        raw, ref = self._store()[0], self._store()[0]
        ops = [
            ("demote", [5, 3, 5, 3, 1]),
            ("demote", []),
            ("demote", [9, 8, 7, 7, 8, 1]),
            ("promote", [3, 3, 1, 20]),
            ("promote", []),
            ("demote", np.array([[2, 2], [3, 11]])),
            ("promote", [11, 7, 0, 7, 11]),
        ]
        for method, positions in ops:
            got = getattr(raw, method)(7, positions)
            want = getattr(ref, method)(7, np.unique(positions))
            assert got == want, (method, positions)
            a, b = raw._state(7), ref._state(7)
            assert np.array_equal(a.demoted[: a.length], b.demoted[: b.length])
            assert np.array_equal(a.cold_have[: a.length], b.cold_have[: b.length])
            assert self._ledger(raw) == self._ledger(ref)
        assert (raw.demotions_total, raw.promotions_total) == (
            ref.demotions_total, ref.promotions_total,
        )

    def test_swap_roundtrip_of_partially_demoted_sequence(self):
        store, pool = self._store()
        store.demote(7, np.arange(0, 16))
        before = self._ledger(store)
        swapped = pool.swap_out(7)
        store.on_swap_out(7, swapped)
        # only the hot half is new slow-tier movement
        self._moved(store, before, fast_read=16, slow_write=16)
        assert store.swap_rows_skipped_total == 16
        assert store.total_cold_tokens == 32
        with pytest.raises(ValueError, match="swapped out"):
            store.demote(7, [20])
        pool.swap_in(7, swapped)
        before = self._ledger(store)
        store.on_swap_in(7)
        # the hot half moves back; the demoted half stays cold
        self._moved(store, before, slow_read=16, fast_write=16)
        assert store.demoted_mask(7).sum() == 16
        assert store.promote(7, np.arange(0, 16)) == 16
        assert store.hot_tokens(7) == 32

    def test_swap_charges_only_rows_without_a_cold_copy(self):
        """Regression: a row is written to the slow tier at most once.
        A swap after a demote-promote round trip charges only the rows
        that never went cold, and demoting a row the swap already wrote
        charges nothing."""
        store, pool = self._store()
        store.demote(7, [0, 1, 2, 3])
        store.promote(7, [0, 1, 2, 3])
        before = self._ledger(store)
        swapped = pool.swap_out(7)
        store.on_swap_out(7, swapped)
        self._moved(store, before, fast_read=28, slow_write=28)
        assert store.swap_rows_skipped_total == 4
        pool.swap_in(7, swapped)
        store.on_swap_in(7)
        before = self._ledger(store)
        assert store.demote(7, [10, 11]) == 2
        self._moved(store, before)


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

    def test_promotions_from_one_kernel_call_per_step(self, monkeypatch):
        """An aggressive recency window forces sketch-survivor
        promotions; each step still makes exactly one kernel call over
        the whole batch, and outputs match bit for bit."""
        tier = TierConfig(
            policy="recency", recency_window=4, hot_tail=4,
            survive_idle_steps=1,
        )
        baseline = _drain_collecting(_engine(), _requests(4))
        engine = _engine(tier)
        calls, reports = _spy_kernel_calls(monkeypatch), []
        tiered = _drain_collecting(engine, _requests(4), reports)
        _assert_identical(baseline, tiered)
        assert engine.tiers.promotions_total > 0
        _assert_one_kernel_call_per_busy_step(calls, reports)

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
                    "tiered" if tier else "optimistic"
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

    def test_rows_decide_the_match(self):
        rng = np.random.default_rng(0)
        cache = RadixKVCache()
        k, v = self._prompt(rng)
        cache.acquire(k, v)
        assert cache.acquire(k.copy(), v.copy()).hit_tokens == 12
        # a divergence only in V, only in the last head, forks there
        v2 = v.copy()
        v2[-1, 6, -1] += 1.0
        assert cache.acquire(k, v2).hit_tokens == 6
        assert cache.splits_total == 1
        # bytes, not floats: -0.0 is not 0.0
        zeros = np.zeros((N_HEADS, 4, HEAD_DIM))
        cache.acquire(zeros, zeros)
        signed = zeros.copy()
        signed[0, 2, 0] = -0.0
        assert cache.acquire(signed, zeros).hit_tokens == 2
        # a NaN matches its own payload only
        nan_a, nan_b = np.array(
            [0x7FF8000000000001, 0x7FF8000000000002], np.uint64
        ).view(np.float64)
        k3 = k.copy()
        k3[1, 3, 5] = nan_a
        cache.acquire(k3, v)
        assert cache.acquire(k3.copy(), v).hit_tokens == 12
        k3[1, 3, 5] = nan_b
        assert cache.acquire(k3, v).hit_tokens == 3

    def test_hits_splits_and_residency_match_brute_force(self):
        """Every acquire hits the longest common prefix with any earlier
        prompt; a split happens exactly when that prefix ends inside an
        edge; residency is the number of distinct prompt prefixes."""
        rng = np.random.default_rng(11)
        h, d = 2, 4
        cache = RadixKVCache(retain_unreferenced=True, capacity_tokens=0)
        prompts, prefixes, boundaries = [], set(), set()

        def prefix_id(k, v, n):
            return k[:, :n].tobytes() + v[:, :n].tobytes()

        def common(a, b):
            n = 0
            while (
                n < min(a[0].shape[1], b[0].shape[1])
                and np.array_equal(
                    a[0][:, n].view(np.uint64), b[0][:, n].view(np.uint64)
                )
                and np.array_equal(
                    a[1][:, n].view(np.uint64), b[1][:, n].view(np.uint64)
                )
            ):
                n += 1
            return n

        splits = 0
        for _ in range(80):
            bk = bv = np.zeros((h, 0, d))
            if prompts and rng.random() < 0.85:
                bk, bv = prompts[rng.integers(len(prompts))]
            n = int(rng.integers(0, bk.shape[1] + 1))
            k, v = bk[:, :n], bv[:, :n]
            extra = int(rng.integers(0 if n else 1, 10))
            nk = rng.normal(size=(h, extra, d))
            nv = rng.normal(size=(h, extra, d))
            if extra and n < bk.shape[1] and rng.random() < 0.5:
                nk[:, 0] = bk[:, n]  # fork in V only
            k = np.concatenate([k, nk], axis=1)
            v = np.concatenate([v, nv], axis=1)
            want = max((common((k, v), p) for p in prompts), default=0)
            # a matched run that ends at no node end ends inside an edge
            splits += bool(want) and prefix_id(k, v, want) not in boundaries
            got = cache.acquire(k, v)
            assert got.hit_tokens == want
            prompts.append((k, v))
            boundaries.update(
                {prefix_id(k, v, want), prefix_id(k, v, k.shape[1])}
            )
            prefixes.update(
                prefix_id(k, v, j) for j in range(1, k.shape[1] + 1)
            )
            assert cache.splits_total == splits
            assert cache.total_tokens == len(prefixes)
        assert 0 < splits < cache.lookups

    @pytest.mark.parametrize(
        "retain, capacity", [(True, 0), (True, 40), (False, 0)]
    )
    def test_residency_counter_matches_a_walk(self, retain, capacity):
        rng = np.random.default_rng(12)
        cache = RadixKVCache(
            retain_unreferenced=retain, capacity_tokens=capacity
        )
        shared = self._prompt(rng, 10)

        def walk(node):
            return node.n_tokens + sum(walk(c) for c in node.children.values())

        def nodes(node):
            for child in node.children.values():
                yield child
                yield from nodes(child)

        row_bytes = N_HEADS * HEAD_DIM * 8

        handles = []
        for _ in range(120):
            op = rng.random()
            if op < 0.5 or not handles:
                n = int(rng.integers(0, 11))
                k, v = self._prompt(rng, int(rng.integers(1, 8)))
                handles.append(
                    cache.acquire(
                        np.concatenate([shared[0][:, :n], k], axis=1),
                        np.concatenate([shared[1][:, :n], v], axis=1),
                    )
                )
            elif op < 0.9:
                cache.release(handles.pop(int(rng.integers(len(handles)))))
            else:
                cache.evict_unreferenced(int(rng.integers(0, 30)))
            assert cache.total_tokens == walk(cache._root)
            # no buffer keeps rows of a freed extent
            owners = {}
            for node in nodes(cache._root):
                for rows in (node.k, node.v):
                    owner = rows if rows.base is None else rows.base
                    owners[id(owner)] = owner.nbytes
            assert sum(owners.values()) == 2 * cache.total_tokens * row_bytes
            # eviction order needs no tie-break: candidates' stamps differ
            stamps = [n.last_use for n in cache._leaves() if n.refs == 0]
            assert len(stamps) == len(set(stamps))
        assert cache.splits_total > 0 and cache.freed_tokens_total > 0

    def test_tree_keeps_its_own_rows(self):
        rng = np.random.default_rng(13)
        cache = RadixKVCache()
        k, v = self._prompt(rng)
        saved = k.copy(), v.copy()
        cache.acquire(k, v)
        k += 1.0  # the caller reuses its buffers
        v[:] = 0.0
        assert cache.acquire(*saved).hit_tokens == 12

    def test_strided_prompt_matches_its_contiguous_copy(self):
        rng = np.random.default_rng(14)
        k_t = rng.normal(size=(N_HEADS, HEAD_DIM, 12))
        v_t = rng.normal(size=(N_HEADS, HEAD_DIM, 12))
        fork_t = k_t.copy()
        fork_t[:, :, 7:] += 1.0
        # (H, t, d) views whose last axis is not contiguous
        k, v, fork = (a.transpose(0, 2, 1) for a in (k_t, v_t, fork_t))
        assert k.strides[-1] != k.itemsize
        dense = np.ascontiguousarray
        mixed = [(k, v), (dense(fork), dense(v)), (fork, v), (dense(k), v)]
        cache = RadixKVCache()
        assert [cache.acquire(*p).hit_tokens for p in mixed] == [0, 7, 12, 12]
        cache = RadixKVCache()
        assert [
            cache.acquire(dense(pk), dense(pv)).hit_tokens for pk, pv in mixed
        ] == [0, 7, 12, 12]

    def test_split_prefix_owns_only_its_tokens(self):
        rng = np.random.default_rng(15)
        cache = RadixKVCache(retain_unreferenced=False)
        k, v = self._prompt(rng, 16)
        h1 = cache.acquire(k, v)
        k2 = k.copy()
        k2[:, 10:] = rng.normal(size=(N_HEADS, 6, HEAD_DIM))
        h2 = cache.acquire(k2, v)
        assert cache.release(h1) == 6  # reaps the suffix that split off
        (prefix,) = cache._root.children.values()
        assert prefix.n_tokens == 10
        for rows in (prefix.k, prefix.v):
            owner = rows if rows.base is None else rows.base
            assert owner.nbytes == N_HEADS * 10 * HEAD_DIM * 8
        cache.release(h2)
        assert cache.total_tokens == 0

    def test_acquire_hit_miss_and_split(self):
        rng = np.random.default_rng(1)
        cache = RadixKVCache()
        k, v = self._prompt(rng, 16)
        h1 = cache.acquire(k, v)
        assert h1.hit_tokens == 0 and h1.prompt_tokens == 16
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
        assert cache.acquire(k, v).hit_tokens == 16
        assert cache.acquire(k3, v3).hit_tokens == 16

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
        cache.release(h3)
        assert cache.acquire(k2, v2).hit_tokens == 8
        assert cache.acquire(k1, v1).hit_tokens == 0
        with pytest.raises(ValueError):
            RadixKVCache(capacity_tokens=-1)

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
