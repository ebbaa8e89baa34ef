"""Tests for head-sharded model parallelism (repro.cluster.shard).

The load-bearing property is **bit-identity**: a head-sharded engine
must reproduce the unsharded engine's per-step results — outputs, kept
masks, chunk fetch counts, log denominators, round-alive profiles — bit
for bit, across shard counts (including uneven head splits), under
preemption/swap-resume mid-flight, and with kv-tiering enabled.  The
hypothesis sweep drives all four axes at once.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import ClusterRouter, OptimisticMemory
from repro.cluster import shard as shard_module
from repro.cluster.shard import ShardGroup, partition_heads
from repro.core import TokenPickerConfig
from repro.kvstore.tiers import TierConfig
from repro.obs.trace import Tracer
from repro.serving import GenerationRequest, ServingEngine
from repro.serving.kv_pool import KVCachePool

from pool_helpers import register

CFG = TokenPickerConfig(threshold=2e-3)


def _requests(rng, n_requests=3, n_heads=5, head_dim=8, prompt=24, new=6):
    out = []
    for rid in range(n_requests):
        out.append(
            GenerationRequest(
                request_id=rid,
                prompt_keys=rng.normal(size=(n_heads, prompt, head_dim)),
                prompt_values=rng.normal(size=(n_heads, prompt, head_dim)),
                max_new_tokens=new,
                seed=rid + 1,
            )
        )
    return out


def _drain(
    shards, *, n_heads=5, tiering=False, preempt=False, arenas=None, **req_kw
):
    """Run a fresh engine to completion; with ``arenas`` (a list), append
    a copy of the pool's ``(k_arena, v_arena)`` after every step."""
    kw = dict(capacity_tokens=512, seed=0, shards=shards)
    if tiering:
        kw["kv_tiering"] = TierConfig(
            hot_budget_tokens=64, hot_tail=16, survive_idle_steps=1
        )
    if preempt:
        # a tight arena + optimistic admission forces swap-out/swap-in
        # mid-flight, exercising the byte-exact swap path
        kw["capacity_tokens"] = 80
        kw["block_size"] = 8
        kw["memory_manager"] = OptimisticMemory()
    engine = ServingEngine(CFG, **kw)
    for request in _requests(np.random.default_rng(0), n_heads=n_heads, **req_kw):
        engine.submit(request)
    reports = []
    while engine.n_pending or engine.n_active or engine.n_preempted:
        assert len(reports) < 1000, "engine did not drain"
        reports.append(engine.step())
        if arenas is not None:
            arenas.append(
                (engine.pool.k_arena.copy(), engine.pool.v_arena.copy())
            )
    return engine, reports


def _per_token_results(reports):
    """Every decoded token's kernel result, in step order."""
    return [res for r in reports for res in r.results.values()]


def _assert_reports_identical(ref_reports, got_reports):
    assert len(ref_reports) == len(got_reports)
    for ref, got in zip(ref_reports, got_reports):
        assert set(ref.results) == set(got.results)
        for sid in ref.results:
            x, y = ref.results[sid], got.results[sid]
            assert np.array_equal(x.outputs, y.outputs)
            assert np.array_equal(x.kept, y.kept)
            assert np.array_equal(x.chunks_fetched, y.chunks_fetched)
            assert np.array_equal(x.log_denominators, y.log_denominators)
        if ref.round_alive is None:
            assert got.round_alive is None
        else:
            assert np.array_equal(ref.round_alive, got.round_alive)
        assert ref.preempted == got.preempted
        assert ref.resumed == got.resumed


# ----------------------------------------------------------- partition_heads
class TestPartitionHeads:
    def test_even_split(self):
        assert partition_heads(8, 4) == [(0, 2), (2, 4), (4, 6), (6, 8)]

    def test_uneven_split_spreads_remainder_first(self):
        assert partition_heads(5, 3) == [(0, 2), (2, 4), (4, 5)]
        assert partition_heads(7, 4) == [(0, 2), (2, 4), (4, 6), (6, 7)]

    def test_single_shard_covers_everything(self):
        assert partition_heads(6, 1) == [(0, 6)]

    def test_validation(self):
        with pytest.raises(ValueError):
            partition_heads(4, 0)
        with pytest.raises(ValueError):
            partition_heads(2, 3)


# ------------------------------------------------------------- ShardedKVPool
class TestShardedKVPool:
    """A sharded engine's pool is one full-width :class:`KVCachePool`;
    each shard worker's K and V are views of its head range."""

    def _pool(self, n_heads=4, head_dim=8):
        return KVCachePool(
            n_heads, head_dim, CFG.quant, capacity_tokens=128, block_size=8
        )

    def _rows(self, rng, pool, n):
        """Encoded rows in the arena's dtypes: digits across the 4-bit
        chunk range and V codes across ``[qmin - 1, qmax]``."""
        k = rng.integers(
            -8, 16, size=(n, pool.n_heads * pool.n_chunks, pool.head_dim)
        )
        quant = pool.quant
        v = rng.integers(
            quant.qmin - 1, quant.qmax, size=(n, pool.n_heads, pool.head_dim),
            endpoint=True,
        )
        return k.astype(pool.k_arena.dtype), v.astype(pool.v_arena.dtype)

    def test_append_encoded_round_trips_full_width(self):
        rng = np.random.default_rng(0)
        pool = self._pool(n_heads=5)
        register(pool, 7)
        k, v = self._rows(rng, pool, 6)
        pool.append_encoded(7, k, v)
        k_view, v_view = pool.view(7)
        assert np.array_equal(k_view, k.transpose(1, 0, 2))
        assert np.array_equal(v_view, v.transpose(1, 0, 2))
        # each shard worker's planes hold exactly its heads' columns
        off, n = pool.segment(7)
        k4 = k.reshape(n, pool.n_heads, pool.n_chunks, pool.head_dim)
        for h_lo, h_hi in partition_heads(pool.n_heads, 3):
            shard_k = pool.k_arena[h_lo:h_hi, :, off:off + n]
            assert np.array_equal(
                shard_k, k4[:, h_lo:h_hi].transpose(1, 2, 0, 3)
            )
            shard_v = pool.v_arena[off:off + n, h_lo:h_hi]
            assert np.array_equal(shard_v, v[:, h_lo:h_hi])

    def test_read_write_rows_round_trip(self):
        rng = np.random.default_rng(1)
        pool = self._pool()
        register(pool, 0)
        k, v = self._rows(rng, pool, 5)
        pool.append_encoded(0, k, v)
        off, length = pool.segment(0)
        rows = np.arange(off, off + length)
        k_got, v_got = pool.read_rows(rows)
        assert np.array_equal(k_got, k)
        assert np.array_equal(v_got, v)
        k_new, v_new = self._rows(rng, pool, 5)
        pool.write_rows(rows, k_new, v_new)
        k_again, v_again = pool.read_rows(rows)
        assert k_again.dtype == k.dtype and v_again.dtype == v.dtype
        assert np.array_equal(k_again, k_new)
        assert np.array_equal(v_again, v_new)

    def test_swap_round_trip_byte_exact_and_full_width(self):
        rng = np.random.default_rng(2)
        pool = self._pool(n_heads=5)
        register(pool, 3)
        k, v = self._rows(rng, pool, 9)
        pool.append_encoded(3, k, v)
        swapped = pool.swap_out(3)
        assert swapped.k_rows.shape == (
            9, pool.n_heads * pool.n_chunks, pool.head_dim
        )
        assert swapped.v_rows.shape == (9, pool.n_heads, pool.head_dim)
        assert not pool._seqs and pool.blocks_in_use == 0
        pool.swap_in(3, swapped)
        k_view, v_view = pool.view(3)
        assert np.array_equal(k_view, k.transpose(1, 0, 2))
        assert np.array_equal(v_view, v.transpose(1, 0, 2))

    def test_swap_interchangeable_with_unsharded_pool(self):
        """Cross-layout failover: a request preempted and exported on a
        ``shards=2`` engine finishes on a ``shards=1`` engine (and the
        reverse) bit-identically to an undisturbed run."""

        def request():
            (req,) = _requests(np.random.default_rng(5), n_requests=1, n_heads=4)
            return req

        def engine(shards):
            return ServingEngine(CFG, capacity_tokens=256, seed=0, shards=shards)

        undisturbed = engine(1)
        undisturbed.submit(request())
        want = _per_token_results(undisturbed.run_until_drained())
        for donor_shards, adopter_shards in ((2, 1), (1, 2)):
            donor = engine(donor_shards)
            request_id = donor.submit(request())
            before = [donor.step() for _ in range(3)]
            (seq_id,) = donor._active
            donor.preempt(seq_id)
            export = donor.export_preempted(request_id)
            assert export.swapped.k_rows.shape[1:] == (
                donor.pool.n_heads * donor.pool.n_chunks, donor.pool.head_dim
            )
            adopter = engine(adopter_shards)
            adopter.adopt_preempted(export)
            after = adopter.run_until_drained()
            assert adopter.resumes_total == 1
            got = _per_token_results(before + after)
            assert len(got) == len(want)
            for x, y in zip(want, got):
                assert np.array_equal(x.outputs, y.outputs)
                assert np.array_equal(x.kept, y.kept)
                assert np.array_equal(x.chunks_fetched, y.chunks_fetched)
                assert np.array_equal(x.log_denominators, y.log_denominators)


# ------------------------------------------------------- engine bit-identity
class TestShardedEngineBitIdentity:
    def test_shard_views_populated_with_dual_counters(self):
        engine, reports = _drain(2)
        busy = [r for r in reports if r.per_sequence]
        assert busy and all(len(r.shard_views) == 2 for r in busy)
        for r in busy:
            for view in r.shard_views:
                assert view.kept_pairs <= view.total_pairs
                assert view.allgather_bits <= view.baseline_allgather_bits
                assert len(view.seq_bits) == len(r.per_sequence)
        assert engine.allgather_bits_total > 0
        assert (
            engine.allgather_bits_total
            < engine.allgather_baseline_bits_total
        )

    def test_unsharded_engine_has_no_shard_views(self):
        _, reports = _drain(1)
        assert all(not r.shard_views for r in reports)

    @settings(deadline=None, max_examples=8)
    @given(
        shards=st.integers(min_value=2, max_value=4),
        n_heads=st.integers(min_value=4, max_value=6),
        preempt=st.booleans(),
        tiering=st.booleans(),
    )
    def test_sharded_bit_identical_to_unsharded(
        self, shards, n_heads, preempt, tiering
    ):
        """The tentpole sweep: K shards (uneven splits included),
        preemption/swap-resume mid-flight, kv-tiering on — outputs and
        every per-head decision must match the unsharded engine bit for
        bit."""
        ref_engine, ref = _drain(
            1, n_heads=n_heads, preempt=preempt, tiering=tiering
        )
        got_engine, got = _drain(
            shards, n_heads=n_heads, preempt=preempt, tiering=tiering
        )
        _assert_reports_identical(ref, got)
        assert ref_engine.counter.k_bits == got_engine.counter.k_bits
        assert ref_engine.counter.v_bits == got_engine.counter.v_bits
        if preempt:
            # the run must actually have exercised the swap path on at
            # least one axis assignment; on this workload the tight
            # arena always preempts
            assert got_engine.preemptions_total == ref_engine.preemptions_total

    def test_preemption_actually_happens_on_tight_arena(self):
        engine, _ = _drain(2, preempt=True)
        assert engine.preemptions_total > 0
        assert engine.resumes_total > 0

    def test_uneven_split_five_heads_three_shards(self):
        _, ref = _drain(1, n_heads=5)
        _, got = _drain(3, n_heads=5)
        _assert_reports_identical(ref, got)

    def test_rejects_more_shards_than_heads(self):
        """Rejected at submit: nothing queued, no span left open, and the
        engine keeps serving requests it can hold."""
        tracer = Tracer()
        engine = ServingEngine(
            CFG, capacity_tokens=256, shards=4, tracer=tracer
        )
        (narrow,) = _requests(np.random.default_rng(0), n_requests=1, n_heads=2)
        with pytest.raises(ValueError, match="shard"):
            engine.submit(narrow)
        assert narrow.submitted_wall < 0  # never stamped as submitted
        assert engine.n_pending == 0 and tracer.open_span_count == 0
        engine.step()
        (wide,) = _requests(np.random.default_rng(1), n_requests=1, n_heads=4)
        engine.submit(wide)
        engine.run_until_drained()
        assert len(engine.completed) == 1
        assert tracer.open_span_count == 0 and not tracer.errors

    def test_router_rejects_more_shards_than_heads(self):
        """The same request through a router raises at submit and leaves
        every replica able to step."""
        router = ClusterRouter(2, CFG, capacity_tokens=256, shards=4)
        (narrow,) = _requests(np.random.default_rng(0), n_requests=1, n_heads=2)
        with pytest.raises(ValueError, match="shard"):
            router.submit(narrow)
        assert all(e.n_pending == 0 for e in router.replicas)
        router.step()
        for request in _requests(np.random.default_rng(1), n_requests=2, n_heads=4):
            router.submit(request)
        while router.busy:
            router.step()
        assert sum(len(e.completed) for e in router.replicas) == 2

    @pytest.mark.parametrize("shards, n_heads", [(2, 4), (3, 5)])
    def test_arena_equals_unsharded_after_every_step(
        self, monkeypatch, shards, n_heads
    ):
        """One arena: the sharded engine's pool is a plain KVCachePool
        whose bytes equal the unsharded engine's after every step (with
        preemption and tiering on), and every shard kernel reads views
        of it."""
        inputs = []
        kernel = shard_module.token_picker_attention_ragged

        def spy(*args, **kw):
            inputs.append((kw["k_plane_arena"], kw["v_arena"]))
            return kernel(*args, **kw)

        monkeypatch.setattr(shard_module, "token_picker_attention_ragged", spy)
        ref_arenas, got_arenas = [], []
        _drain(
            1, n_heads=n_heads, preempt=True, tiering=True, arenas=ref_arenas
        )
        engine, _ = _drain(
            shards, n_heads=n_heads, preempt=True, tiering=True,
            arenas=got_arenas,
        )
        assert type(engine.pool) is KVCachePool
        assert engine.preemptions_total > 0
        assert len(ref_arenas) == len(got_arenas)
        for (k_ref, v_ref), (k_got, v_got) in zip(ref_arenas, got_arenas):
            assert k_ref.dtype == k_got.dtype
            assert k_ref.tobytes() == k_got.tobytes()
            assert v_ref.tobytes() == v_got.tobytes()
        assert inputs
        for k_in, v_in in inputs:
            assert np.shares_memory(k_in, engine.pool.k_arena)
            assert np.shares_memory(v_in, engine.pool.v_arena)


# -------------------------------------------------------------- ShardGroup
class TestShardGroup:
    def test_run_is_one_direct_kernel_call_on_raw_pool(self):
        """``run`` is the plain full-width kernel call on its pool's
        arena: its result equals a direct call's."""
        rng = np.random.default_rng(4)
        n_heads, head_dim, t = 4, 8, 20
        quant = CFG.quant
        flat = KVCachePool(
            n_heads, head_dim, quant, capacity_tokens=64, block_size=8
        )
        k = rng.integers(
            -8, 16, size=(t, n_heads * quant.n_chunks, head_dim)
        ).astype(np.int8)
        v = rng.integers(
            quant.qmin - 1, quant.qmax, size=(t, n_heads, head_dim),
            endpoint=True,
        ).astype(np.int16)
        register(flat, 0)
        flat.append_encoded(0, k, v)
        qs = rng.normal(size=(1, n_heads, head_dim))
        q_scales = np.abs(qs).max(axis=2) / quant.qmax + 1e-9
        k_scales = (
            np.abs(k).reshape(t, n_heads, quant.n_chunks, head_dim)
            .max(axis=(0, 2, 3))[None, :]
            / quant.qmax
        )
        v_scales = rng.uniform(0.005, 0.05, size=(1, n_heads))
        segments = flat.segments_of([0])
        from repro.core.pruning import token_picker_attention_ragged

        single = token_picker_attention_ragged(
            qs,
            CFG,
            q_scales=q_scales,
            k_scales=k_scales,
            k_plane_arena=flat.k_arena,
            v_arena=flat.v_arena,
            v_scales=v_scales,
            segments=segments,
        )
        group = ShardGroup(flat, 2)
        assert group.head_ranges == [(0, 2), (2, 4)]
        ran = group.run(
            qs, CFG, q_scales=q_scales, k_scales=k_scales, v_scales=v_scales,
            segments=segments,
        )
        for x, y in zip(single.results, ran.results):
            assert x.outputs.tobytes() == y.outputs.tobytes()
            assert np.array_equal(x.kept, y.kept)
            assert np.array_equal(x.chunks_fetched, y.chunks_fetched)
        assert np.array_equal(single.round_alive, ran.round_alive)

    @pytest.mark.parametrize("shards, n_heads", [(2, 4), (3, 5)])
    def test_one_full_width_kernel_call_per_step(
        self, monkeypatch, shards, n_heads
    ):
        """Shards are views of one call: every decoding step of a
        sharded engine calls the kernel exactly once, over all of its
        heads."""
        widths = []
        kernel = shard_module.token_picker_attention_ragged

        def spy(qs, *args, **kw):
            widths.append(qs.shape[1])
            return kernel(qs, *args, **kw)

        monkeypatch.setattr(shard_module, "token_picker_attention_ragged", spy)
        engine, reports = _drain(shards, n_heads=n_heads)
        decoding = [r for r in reports if r.per_sequence]
        assert engine.tiers is None and decoding
        assert widths == [n_heads] * len(decoding)

    def test_step_views_account_kept_pairs(self):
        engine, reports = _drain(2)
        for r in reports:
            if not r.shard_views:
                continue
            kept = sum(v.kept_pairs for v in r.shard_views)
            expected = sum(
                int(res.kept.sum()) for res in r.results.values()
            )
            assert kept == expected

    @pytest.mark.parametrize("shards, n_heads", [(2, 4), (3, 5)])
    def test_step_views_equal_dense_head_slices(self, shards, n_heads):
        """The views summed from per-head aggregates equal the per-head
        slices of the dense ``kept`` / ``chunks_fetched`` arrays."""
        engine, reports = _drain(shards, n_heads=n_heads)
        quant, d = engine.pool.quant, engine.pool.head_dim
        busy = [r for r in reports if r.shard_views]
        assert busy
        for r in busy:
            results = list(r.results.values())
            for s, (h_lo, h_hi) in enumerate(partition_heads(n_heads, shards)):
                kept = [res.kept[h_lo:h_hi] for res in results]
                chunks = [res.chunks_fetched[h_lo:h_hi] for res in results]
                kept_pairs = sum(int(k.sum()) for k in kept)
                total_pairs = sum(k.size for k in kept)
                assert r.shard_views[s] == shard_module.ShardStepView(
                    shard=s,
                    head_range=(h_lo, h_hi),
                    kept_pairs=kept_pairs,
                    total_pairs=total_pairs,
                    allgather_bits=kept_pairs * d * quant.total_bits,
                    baseline_allgather_bits=total_pairs * d * quant.total_bits,
                    seq_bits=tuple(
                        int(c.sum()) * d * quant.chunk_bits
                        + int(k.sum()) * d * quant.total_bits
                        for k, c in zip(kept, chunks)
                    ),
                    seq_baseline_bits=tuple(
                        2 * k.size * d * quant.total_bits for k in kept
                    ),
                )
