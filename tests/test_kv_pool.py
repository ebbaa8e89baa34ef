"""Tests for the block-pooled (paged) KV cache."""

import numpy as np
import pytest

from repro.core.config import QuantConfig
from repro.serving.kv_pool import (
    KVCachePool,
    PoolExhausted,
    count_clips,
    freeze_scales,
)


def _pool(**kw):
    defaults = dict(n_heads=2, head_dim=4, capacity_tokens=64, block_size=8)
    defaults.update(kw)
    return KVCachePool(**defaults)


class TestStorage:
    def test_append_view_roundtrip(self):
        rng = np.random.default_rng(0)
        pool = _pool()
        pool.register(0)
        k1, v1 = rng.normal(size=(2, 11, 4)), rng.normal(size=(2, 11, 4))
        pool.append(0, k1, v1)
        k2, v2 = rng.normal(size=(2, 1, 4)), rng.normal(size=(2, 1, 4))
        pool.append(0, k2, v2)
        keys, values = pool.view(0)
        assert np.array_equal(keys, np.concatenate([k1, k2], axis=1))
        assert np.array_equal(values, np.concatenate([v1, v2], axis=1))
        assert pool.length(0) == 12

    def test_views_are_read_only(self):
        rng = np.random.default_rng(1)
        pool = _pool()
        pool.register(0)
        k = rng.normal(size=(2, 5, 4))
        pool.append(0, k, rng.normal(size=(2, 5, 4)))
        keys, values = pool.view(0)
        with pytest.raises(ValueError):
            keys[:] = 0.0
        with pytest.raises(ValueError):
            values[:] = 0.0
        assert np.array_equal(pool.view(0)[0], k)

    def test_incremental_staging_tracks_appends(self):
        rng = np.random.default_rng(9)
        pool = _pool(capacity_tokens=128)
        pool.register(0)
        ref_k = rng.normal(size=(2, 3, 4))
        ref_v = rng.normal(size=(2, 3, 4))
        pool.append(0, ref_k, ref_v)
        assert np.array_equal(pool.view(0)[0], ref_k)
        for _ in range(40):  # crosses block and capacity-regrowth boundaries
            k = rng.normal(size=(2, 1, 4))
            v = rng.normal(size=(2, 1, 4))
            pool.append(0, k, v)
            ref_k = np.concatenate([ref_k, k], axis=1)
            ref_v = np.concatenate([ref_v, v], axis=1)
            got_k, got_v = pool.view(0)
            assert np.array_equal(got_k, ref_k)
            assert np.array_equal(got_v, ref_v)

    def test_interleaved_sequences_stay_separate(self):
        rng = np.random.default_rng(2)
        pool = _pool(capacity_tokens=128)
        tensors = {}
        for sid in (0, 1, 2):
            pool.register(sid)
            k = rng.normal(size=(2, 3 + sid, 4))
            v = rng.normal(size=(2, 3 + sid, 4))
            pool.append(sid, k, v)
            tensors[sid] = (k, v)
        for step in range(5):
            for sid in (2, 0, 1):
                k = rng.normal(size=(2, 1, 4))
                v = rng.normal(size=(2, 1, 4))
                pool.append(sid, k, v)
                tensors[sid] = (
                    np.concatenate([tensors[sid][0], k], axis=1),
                    np.concatenate([tensors[sid][1], v], axis=1),
                )
        for sid, (k, v) in tensors.items():
            got_k, got_v = pool.view(sid)
            assert np.array_equal(got_k, k)
            assert np.array_equal(got_v, v)

    def test_blocks_reused_after_free(self):
        rng = np.random.default_rng(3)
        pool = _pool(capacity_tokens=16, block_size=8)  # 2 blocks total
        pool.register(0)
        pool.append(0, rng.normal(size=(2, 16, 4)), rng.normal(size=(2, 16, 4)))
        assert pool.blocks_free == 0
        assert pool.free(0) == 2
        pool.register(1)
        k = rng.normal(size=(2, 16, 4))
        pool.append(1, k, np.zeros_like(k))
        assert np.array_equal(pool.view(1)[0], k)


class TestArena:
    def test_views_are_zero_copy_arena_slices(self):
        """view() must alias the token-major arena, not copy it."""
        rng = np.random.default_rng(0)
        pool = _pool()
        pool.register(0)
        pool.append(0, rng.normal(size=(2, 6, 4)), rng.normal(size=(2, 6, 4)))
        k, v = pool.view(0)
        assert np.shares_memory(k, pool.k_arena)
        assert np.shares_memory(v, pool.v_arena)

    def test_segment_table_locates_contiguous_runs(self):
        rng = np.random.default_rng(1)
        pool = _pool(capacity_tokens=128)
        for sid, n in ((0, 10), (1, 7)):
            pool.register(sid, reserve_tokens=16)
            pool.append(sid, rng.normal(size=(2, n, 4)), rng.normal(size=(2, n, 4)))
        segs = pool.segments_of([0, 1])
        assert segs.shape == (2, 2)
        assert segs[0].tolist() == [0, 10]
        assert segs[1].tolist() == [16, 7]  # reservation sized the run
        off, length = pool.segment(1)
        k, _ = pool.view(1)
        assert np.array_equal(
            pool.k_arena[off:off + length].transpose(1, 0, 2), k
        )

    def test_append_rows_scatters_one_token_per_sequence(self):
        rng = np.random.default_rng(2)
        pool = _pool(capacity_tokens=128)
        refs = {}
        for sid in (0, 1, 2):
            pool.register(sid, reserve_tokens=8)
            k = rng.normal(size=(2, 3, 4))
            v = rng.normal(size=(2, 3, 4))
            pool.append(sid, k, v)
            refs[sid] = (k, v)
        for _ in range(4):
            k_rows = rng.normal(size=(3, 2, 4))
            v_rows = rng.normal(size=(3, 2, 4))
            pool.append_rows([0, 1, 2], k_rows, v_rows)
            for i, sid in enumerate((0, 1, 2)):
                refs[sid] = (
                    np.concatenate([refs[sid][0], k_rows[i][:, None, :]], axis=1),
                    np.concatenate([refs[sid][1], v_rows[i][:, None, :]], axis=1),
                )
        for sid, (k, v) in refs.items():
            got_k, got_v = pool.view(sid)
            assert np.array_equal(got_k, k)
            assert np.array_equal(got_v, v)

    def test_append_slots_write_through(self):
        rng = np.random.default_rng(3)
        pool = _pool()
        pool.register(0)
        k_slots, v_slots = pool.append_slots(0, 5)
        k = rng.normal(size=(5, 2, 4))
        v = rng.normal(size=(5, 2, 4))
        k_slots[:] = k
        v_slots[:] = v
        got_k, got_v = pool.view(0)
        assert np.array_equal(got_k, k.transpose(1, 0, 2))
        assert np.array_equal(got_v, v.transpose(1, 0, 2))
        assert pool.length(0) == 5

    def test_growth_relocates_preserving_data(self):
        """A sequence boxed in by a neighbour must relocate on growth and
        keep its contents bit-identical."""
        rng = np.random.default_rng(4)
        pool = _pool(capacity_tokens=64, block_size=8)  # 8 blocks
        pool.register(0)
        k0 = rng.normal(size=(2, 8, 4))
        pool.append(0, k0, np.zeros_like(k0))
        pool.register(1)
        k1 = rng.normal(size=(2, 8, 4))
        pool.append(1, k1, np.zeros_like(k1))  # sits right after seq 0
        grow = rng.normal(size=(2, 12, 4))  # forces seq 0 past its block
        pool.append(0, grow, np.zeros_like(grow))
        assert np.array_equal(
            pool.view(0)[0], np.concatenate([k0, grow], axis=1)
        )
        assert np.array_equal(pool.view(1)[0], k1)

    def test_fragmented_pool_needs_contiguous_hole(self):
        """can_fit is a *contiguous* check: free blocks split by live
        runs cannot host a new segment."""
        pool = _pool(capacity_tokens=32, block_size=8)  # 4 blocks
        for sid in range(4):
            pool.register(sid)
            pool.append(sid, np.zeros((2, 8, 4)), np.zeros((2, 8, 4)))
        pool.free(0)
        pool.free(2)
        assert pool.blocks_free == 2
        assert pool.largest_hole_blocks == 1
        assert not pool.can_fit(16)  # 2 blocks, but not adjacent
        assert pool.can_fit(8)
        pool.free(1)  # coalesces blocks 0-2 into one hole
        assert pool.largest_hole_blocks == 3
        assert pool.can_fit(24)

    def test_float32_k_channel(self):
        pool = _pool(k_dtype=np.float32)
        pool.register(0)
        digits = np.arange(2 * 6 * 4, dtype=np.float64).reshape(2, 6, 4) % 13
        pool.append(0, digits, np.zeros((2, 6, 4)))
        assert pool.k_arena.dtype == np.float32
        assert np.array_equal(pool.view(0)[0], digits)  # small ints exact


class TestAccounting:
    def test_eviction_accounting(self):
        rng = np.random.default_rng(4)
        pool = _pool(capacity_tokens=64, block_size=8)
        for sid in range(3):
            pool.register(sid)
            pool.append(
                sid, rng.normal(size=(2, 9, 4)), rng.normal(size=(2, 9, 4))
            )  # 2 blocks each
        assert pool.blocks_in_use == 6
        assert pool.peak_blocks_in_use == 6
        assert pool.utilization == pytest.approx(6 / 8)
        pool.free(1)
        assert pool.blocks_in_use == 4
        assert pool.peak_blocks_in_use == 6  # high-water mark sticks
        assert pool.blocks_allocated_total == 6
        assert pool.blocks_freed_total == 2
        assert pool.tokens_cached == 18
        assert pool.n_sequences == 2

    def test_exhaustion_raises_and_leaves_state(self):
        rng = np.random.default_rng(5)
        pool = _pool(capacity_tokens=16, block_size=8)
        pool.register(0)
        pool.append(0, rng.normal(size=(2, 12, 4)), rng.normal(size=(2, 12, 4)))
        before = pool.view(0)
        with pytest.raises(PoolExhausted):
            pool.append(
                0, rng.normal(size=(2, 8, 4)), rng.normal(size=(2, 8, 4))
            )
        assert pool.length(0) == 12
        assert np.array_equal(pool.view(0)[0], before[0])
        # both blocks are held by sequence 0: a new sequence cannot start
        assert not pool.can_fit(1)
        pool.free(0)
        assert pool.can_fit(16)


class TestSwap:
    def test_swap_out_in_roundtrip_bit_identical(self):
        rng = np.random.default_rng(4)
        pool = _pool()
        scales = freeze_scales(
            rng.normal(size=(2, 10, 4)),
            rng.normal(size=(2, 10, 4)),
            QuantConfig(),
            1.25,
        )
        pool.register(0, scales=scales)
        keys, values = rng.normal(size=(2, 10, 4)), rng.normal(size=(2, 10, 4))
        pool.append(0, keys, values)
        k_before, v_before = (a.copy() for a in pool.view(0))
        swapped = pool.swap_out(0)
        assert swapped.length == 10
        assert pool.n_sequences == 0 and pool.blocks_in_use == 0
        assert pool.swaps_out_total == 1
        # occupy different blocks so the run comes back at a new offset
        pool.register(9)
        pool.append(9, rng.normal(size=(2, 5, 4)), rng.normal(size=(2, 5, 4)))
        pool.swap_in(0, swapped)
        assert pool.swaps_in_total == 1
        assert pool.length(0) == 10
        assert pool.scales_of(0) is scales
        k_after, v_after = pool.view(0)
        assert np.array_equal(k_before, k_after)
        assert np.array_equal(v_before, v_after)

    def test_swap_in_respects_reservation(self):
        rng = np.random.default_rng(5)
        pool = _pool()
        pool.register(0)
        pool.append(0, rng.normal(size=(2, 4, 4)), rng.normal(size=(2, 4, 4)))
        swapped = pool.swap_out(0)
        pool.swap_in(0, swapped, reserve_tokens=32)
        entry_blocks = pool.blocks_in_use
        assert entry_blocks == pool.blocks_needed(32)

    def test_swap_in_raises_when_no_room(self):
        rng = np.random.default_rng(6)
        pool = _pool()
        pool.register(0)
        pool.append(0, rng.normal(size=(2, 16, 4)), rng.normal(size=(2, 16, 4)))
        swapped = pool.swap_out(0)
        pool.register(1)
        pool.append(
            1, rng.normal(size=(2, 56, 4)), rng.normal(size=(2, 56, 4))
        )
        with pytest.raises(PoolExhausted):
            pool.swap_in(0, swapped)
        assert pool.n_sequences == 1  # pool state unchanged

    def test_ensure_capacity_grows_without_writing(self):
        rng = np.random.default_rng(7)
        pool = _pool()
        pool.register(0)
        pool.append(0, rng.normal(size=(2, 8, 4)), rng.normal(size=(2, 8, 4)))
        assert pool.length(0) == 8
        before = pool.blocks_in_use
        pool.ensure_capacity(0, 9)
        assert pool.blocks_in_use == before + 1
        assert pool.length(0) == 8  # no tokens written
        with pytest.raises(PoolExhausted):
            pool.ensure_capacity(0, 1000)


class TestValidation:
    def test_constructor(self):
        with pytest.raises(ValueError):
            _pool(block_size=0)
        with pytest.raises(ValueError):
            _pool(capacity_tokens=4, block_size=8)
        with pytest.raises(ValueError):
            _pool(n_heads=0)

    def test_register_and_lookup_errors(self):
        pool = _pool()
        pool.register(0)
        with pytest.raises(ValueError):
            pool.register(0)
        with pytest.raises(KeyError):
            pool.view(99)
        with pytest.raises(KeyError):
            pool.free(99)

    def test_append_shape_errors(self):
        pool = _pool()
        pool.register(0)
        with pytest.raises(ValueError):
            pool.append(0, np.zeros((3, 4, 4)), np.zeros((3, 4, 4)))
        with pytest.raises(ValueError):
            pool.append(0, np.zeros((2, 4, 4)), np.zeros((2, 5, 4)))

    def test_zero_capacity_pool_is_safe(self):
        """Regression: a 0-block pool must not divide by zero anywhere a
        dashboard polls (utilization, hole sizes, fit checks)."""
        pool = _pool(capacity_tokens=0)
        assert pool.n_blocks == 0
        assert pool.utilization == 0.0
        assert pool.blocks_free == 0
        assert pool.blocks_in_use == 0
        assert pool.largest_hole_blocks == 0
        assert not pool.can_fit(1)
        pool.register(0)  # registering with no reservation is legal...
        assert pool.utilization == 0.0
        with pytest.raises(PoolExhausted):  # ...but any growth is not
            pool.append_slots(0, 1)
        # sub-block capacities other than zero stay rejected
        with pytest.raises(ValueError):
            _pool(capacity_tokens=4, block_size=8)


class TestCalibration:
    def test_freeze_scales_matches_manual(self):
        rng = np.random.default_rng(6)
        quant = QuantConfig()
        keys = rng.normal(size=(2, 32, 4))
        values = rng.normal(size=(2, 32, 4))
        scales = freeze_scales(keys, values, quant, safety_factor=1.25)
        expected_k = np.abs(keys).max(axis=(1, 2)) * 1.25 / quant.qmax
        assert np.allclose(scales.k_scale, expected_k)
        assert np.allclose(scales.q_scale, expected_k)  # K stands in for Q
        queries = rng.normal(size=(2, 32, 4)) * 3
        with_q = freeze_scales(keys, values, quant, 1.25, queries=queries)
        assert np.all(with_q.q_scale >= scales.q_scale)

    @pytest.mark.parametrize("which", ["keys", "values", "queries"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_freeze_scales_rejects_non_finite_prompt(self, which, bad):
        """A NaN prompt maximum used to fall through to scale 1.0."""
        rng = np.random.default_rng(7)
        tensors = {
            name: rng.normal(size=(2, 8, 4))
            for name in ("keys", "values", "queries")
        }
        tensors[which][1, 3, 2] = bad
        with pytest.raises(ValueError, match="non-finite"):
            freeze_scales(
                tensors["keys"], tensors["values"], QuantConfig(), 1.25,
                queries=tensors["queries"],
            )

    def test_count_clips(self):
        quant = QuantConfig()
        scale = np.array([1.0 / quant.qmax, 2.0 / quant.qmax])
        x = np.array([[0.5, 1.5], [1.5, 1.5]])  # limits: 1.0 and 2.0 per row
        assert count_clips(x, scale, quant) == 1
