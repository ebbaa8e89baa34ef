"""Tests for the block-pooled (paged) KV cache."""

import warnings

import numpy as np
import pytest

from repro.core.config import QuantConfig
from repro.serving.kv_pool import (
    KVCachePool,
    PoolExhausted,
    count_clips,
    freeze_scales,
)
from pool_helpers import register
from test_encode_kv import FORMATS

QUANT = QuantConfig()  # (12, 4): three chunk-digit planes per head


def _pool(**kw):
    defaults = dict(
        n_heads=2, head_dim=4, quant=QUANT, capacity_tokens=64, block_size=8
    )
    defaults.update(kw)
    return KVCachePool(**defaults)


def _rows(rng, n, n_heads=2, head_dim=4):
    """``n`` encoded token rows in the arena's dtypes: int8 K digits
    across the 4-bit chunk range and int16 V codes across ``[qmin - 1,
    qmax]`` (``qmin - 1`` is the ``-0.0`` code)."""
    k = rng.integers(-8, 16, size=(n, n_heads * QUANT.n_chunks, head_dim))
    v = rng.integers(
        QUANT.qmin - 1, QUANT.qmax, size=(n, n_heads, head_dim), endpoint=True
    )
    return k.astype(np.int8), v.astype(np.int16)


def _fill(pool, seq_id, n, rng):
    """Append ``n`` random encoded rows; returns them head-major, as
    :meth:`KVCachePool.view` serves them."""
    k, v = _rows(rng, n, pool.n_heads, pool.head_dim)
    pool.append_encoded(seq_id, k, v)
    return k.transpose(1, 0, 2), v.transpose(1, 0, 2)


class TestStorage:
    def test_append_view_roundtrip(self):
        rng = np.random.default_rng(0)
        pool = _pool()
        register(pool, 0)
        k1, v1 = _fill(pool, 0, 11, rng)
        k2, v2 = _fill(pool, 0, 1, rng)
        keys, values = pool.view(0)
        assert np.array_equal(keys, np.concatenate([k1, k2], axis=1))
        assert np.array_equal(values, np.concatenate([v1, v2], axis=1))
        assert pool.length(0) == 12

    def test_views_are_read_only(self):
        rng = np.random.default_rng(1)
        pool = _pool()
        register(pool, 0)
        k, _ = _fill(pool, 0, 5, rng)
        keys, values = pool.view(0)
        with pytest.raises(ValueError):
            keys[:] = 0
        with pytest.raises(ValueError):
            values[:] = 0
        assert np.array_equal(pool.view(0)[0], k)

    def test_incremental_staging_tracks_appends(self):
        rng = np.random.default_rng(9)
        pool = _pool(capacity_tokens=128)
        register(pool, 0)
        ref_k, ref_v = _fill(pool, 0, 3, rng)
        assert np.array_equal(pool.view(0)[0], ref_k)
        for _ in range(40):  # crosses block and capacity-regrowth boundaries
            k, v = _fill(pool, 0, 1, rng)
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
            register(pool, sid)
            tensors[sid] = _fill(pool, sid, 3 + sid, rng)
        for step in range(5):
            for sid in (2, 0, 1):
                k, v = _fill(pool, sid, 1, rng)
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
        register(pool, 0)
        _fill(pool, 0, 16, rng)
        assert pool.blocks_free == 0
        assert pool.free(0) == 2
        register(pool, 1)
        k, _ = _fill(pool, 1, 16, rng)
        assert np.array_equal(pool.view(1)[0], k)


class TestArena:
    def test_views_are_zero_copy_arena_slices(self):
        """view() must alias the arena planes, not copy them."""
        rng = np.random.default_rng(0)
        pool = _pool()
        register(pool, 0)
        _fill(pool, 0, 6, rng)
        k, v = pool.view(0)
        assert np.shares_memory(k, pool.k_arena)
        assert np.shares_memory(v, pool.v_arena)

    def test_segment_table_locates_contiguous_runs(self):
        rng = np.random.default_rng(1)
        pool = _pool(capacity_tokens=128)
        for sid, n in ((0, 10), (1, 7)):
            register(pool, sid, reserve_tokens=16)
            _fill(pool, sid, n, rng)
        segs = pool.segments_of([0, 1])
        assert segs.shape == (2, 2)
        assert segs[0].tolist() == [0, 10]
        assert segs[1].tolist() == [16, 7]  # reservation sized the run
        off, length = pool.segment(1)
        k, _ = pool.view(1)
        # view row h * C + c is plane (h, c): every head's chunk-0 plane
        assert np.array_equal(
            pool.k_arena[:, 0, off:off + length], k[::QUANT.n_chunks]
        )

    def test_append_rows_scatters_one_token_per_sequence(self):
        """One raw decode token per sequence lands at each sequence's next
        position, encoded exactly as :meth:`append` encodes a prompt row
        (``single`` holds the decode tokens as the prompt's tail)."""
        rng = np.random.default_rng(2)
        batched, single = _pool(capacity_tokens=128), _pool(capacity_tokens=128)
        prompts = {
            sid: (rng.normal(size=(2, 3, 4)), rng.normal(size=(2, 3, 4)))
            for sid in (0, 1, 2)
        }
        steps = [
            (rng.normal(size=(3, 2, 4)), rng.normal(size=(3, 2, 4)))
            for _ in range(4)
        ]
        for i, sid in enumerate((0, 1, 2)):
            scales = freeze_scales(
                rng.normal(size=(2, 3, 4)), rng.normal(size=(2, 3, 4)),
                QUANT, 1.25,
            )
            tail = [np.stack([step[j][i] for step in steps], axis=1) for j in (0, 1)]
            full = tuple(
                np.concatenate([p, t], axis=1) for p, t in zip(prompts[sid], tail)
            )
            register(batched, sid, prompts[sid], scales=scales, reserve_tokens=8)
            register(single, sid, full, scales=scales, reserve_tokens=8)
            for pool in (batched, single):
                pool.append(sid, 3)
        for keys, values in steps:
            batched.append_rows([0, 1, 2], keys, values)
            for sid in (0, 1, 2):
                single.append(sid, 1)
        for sid in (0, 1, 2):
            assert batched.length(sid) == 7
            for got, want in zip(batched.view(sid), single.view(sid)):
                assert np.array_equal(got, want)

    def test_append_slots_write_through(self):
        rng = np.random.default_rng(3)
        pool = _pool()
        register(pool, 0)
        k_slots, v_slots = pool.append_slots(0, 5)
        k, v = _rows(rng, 5)
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
        register(pool, 0)
        k0, _ = _fill(pool, 0, 8, rng)
        register(pool, 1)
        k1, _ = _fill(pool, 1, 8, rng)  # sits right after seq 0
        grow, _ = _fill(pool, 0, 12, rng)  # forces seq 0 past its block
        assert np.array_equal(
            pool.view(0)[0], np.concatenate([k0, grow], axis=1)
        )
        assert np.array_equal(pool.view(1)[0], k1)

    def test_fragmented_pool_needs_contiguous_hole(self):
        """can_fit is a *contiguous* check: free blocks split by live
        runs cannot host a new segment."""
        rng = np.random.default_rng(5)
        pool = _pool(capacity_tokens=32, block_size=8)  # 4 blocks
        for sid in range(4):
            register(pool, sid)
            _fill(pool, sid, 8, rng)
        pool.free(0)
        pool.free(2)
        assert pool.blocks_free == 2
        assert pool.largest_hole_blocks == 1
        assert not pool.can_fit(16)  # 2 blocks, but not adjacent
        assert pool.can_fit(8)
        pool.free(1)  # coalesces blocks 0-2 into one hole
        assert pool.largest_hole_blocks == 3
        assert pool.can_fit(24)

    def test_int8_k_channel(self):
        rng = np.random.default_rng(6)
        pool = _pool()  # (12, 4): 4-bit digits in [-8, 15] fit int8
        register(pool, 0)
        digits, codes = _fill(pool, 0, 6, rng)
        assert pool.k_arena.dtype == np.int8
        assert pool.v_arena.dtype == np.int16
        assert np.array_equal(pool.view(0)[0], digits)
        assert np.array_equal(pool.view(0)[1], codes)


class TestPlaneLayout:
    """K is stored chunk-major: one C-contiguous (T_cap, d) plane per
    (head, chunk), a head range (one shard worker's K) is a leading-axis
    slice of the planes, and rows still cross the pool's boundary
    token-major."""

    N_HEADS, N_CHUNKS, HEAD_DIM = 4, QUANT.n_chunks, 8

    def _pool(self):
        return KVCachePool(
            self.N_HEADS, self.HEAD_DIM, QUANT, capacity_tokens=64, block_size=8
        )

    def _fill(self, pool, rng_seed=0):
        """Three appends; returns the appended full-width rows."""
        rng = np.random.default_rng(rng_seed)
        register(pool, 0, reserve_tokens=16)
        parts = [_rows(rng, n, self.N_HEADS, self.HEAD_DIM) for n in (5, 3, 1)]
        for k, v in parts:
            pool.append_encoded(0, k, v)
        return tuple(np.concatenate(p) for p in zip(*parts))

    def test_every_head_chunk_plane_is_contiguous(self):
        pool = self._pool()
        assert pool.k_arena.shape == (
            self.N_HEADS, self.N_CHUNKS, pool.capacity_tokens, self.HEAD_DIM
        )
        for h in range(self.N_HEADS):
            for c in range(self.N_CHUNKS):
                plane = pool.k_arena[h, c]
                assert plane.shape == (pool.capacity_tokens, self.HEAD_DIM)
                assert plane.flags.c_contiguous
        # a head range is itself one contiguous block of planes
        assert pool.k_arena[1:3].flags.c_contiguous

    def test_head_slice_is_a_plane_slice_and_rows_stay_token_major(self):
        full = self._pool()
        k_rows, v_rows = self._fill(full)
        n = len(k_rows)
        k4 = k_rows.reshape(n, self.N_HEADS, self.N_CHUNKS, self.HEAD_DIM)
        off, length = full.segment(0)
        assert length == n
        # plane (h, c) row t holds token t's digits k4[t, h, c]
        assert np.array_equal(
            full.k_arena[:, :, off:off + n], k4.transpose(1, 2, 0, 3)
        )
        # heads [1, 3) — one shard worker's K and V — are views holding
        # exactly those heads' columns of the appended rows
        head_k = full.k_arena[1:3, :, off:off + n]
        head_v = full.v_arena[off:off + n, 1:3]
        assert np.shares_memory(head_k, full.k_arena)
        assert np.array_equal(head_k, k4[:, 1:3].transpose(1, 2, 0, 3))
        assert np.array_equal(head_v, v_rows[:, 1:3])
        rows = np.arange(off, off + n)
        got_k, got_v = full.read_rows(rows)
        assert np.array_equal(got_k, k_rows)
        assert np.array_equal(got_v, v_rows)
        swapped = full.swap_out(0)
        assert np.array_equal(swapped.k_rows, k_rows)
        assert np.array_equal(swapped.v_rows, v_rows)

    def test_format_derived_from_quant(self):
        """The pool alone sizes the arena from ``quant``, at the paper's
        bits: C planes per head of digits in the narrowest signed integer
        holding ``[-2**(cb-1), 2**cb - 1]`` and V codes in the narrowest
        one holding ``qmin - 1``, so the arena costs exactly ``H * d *
        (C * k_itemsize + v_itemsize)`` bytes per token — 5 B per (token,
        head, dim) at (12, 4) — and ``row_bits`` is the tier byte model's
        K-digits-plus-V row.  A format whose full-depth scores pass
        2**52 at d = 64 (40-bit codes) is refused, naming the format."""
        n_heads, head_dim, t_cap = 4, 64, 32
        k_dtype = {4: np.int8, 6: np.int8, 8: np.int16, 12: np.int16}
        v_dtype = {8: np.int16, 12: np.int16, 16: np.int32}
        n_refused = 0
        for fmt in FORMATS:
            quant = QuantConfig(*fmt)
            if 2 * quant.total_bits - 2 + (head_dim - 1).bit_length() > 52:
                n_refused += 1
                named = rf"\({fmt[0]}, {fmt[1]}\) at head_dim {head_dim}"
                with pytest.raises(ValueError, match=named):
                    KVCachePool(n_heads, head_dim, quant, capacity_tokens=t_cap)
                continue
            pool = KVCachePool(
                n_heads, head_dim, quant, capacity_tokens=t_cap, block_size=8
            )
            assert pool.k_arena.dtype == k_dtype[quant.chunk_bits], fmt
            assert pool.v_arena.dtype == v_dtype[quant.total_bits], fmt
            assert pool.k_arena.shape == (
                n_heads, quant.n_chunks, t_cap, head_dim
            )
            per_token = (pool.k_arena.nbytes + pool.v_arena.nbytes) / t_cap
            assert per_token == n_heads * head_dim * (
                quant.n_chunks * pool.k_arena.itemsize + pool.v_arena.itemsize
            ), fmt
            if fmt == (12, 4):
                assert per_token == 5 * n_heads * head_dim
            k_row_bits = v_row_bits = n_heads * head_dim * quant.total_bits
            assert pool.row_bits == k_row_bits + v_row_bits
        assert n_refused == 1  # (40, 8)


class TestAccounting:
    def test_eviction_accounting(self):
        rng = np.random.default_rng(4)
        pool = _pool(capacity_tokens=64, block_size=8)
        for sid in range(3):
            register(pool, sid)
            _fill(pool, sid, 9, rng)  # 2 blocks each
        assert pool.blocks_in_use == 6
        assert pool.peak_blocks_in_use == 6
        assert pool.utilization == pytest.approx(6 / 8)
        pool.free(1)
        assert pool.blocks_in_use == 4
        assert pool.peak_blocks_in_use == 6  # high-water mark sticks
        assert pool.blocks_allocated_total == 6
        assert pool.blocks_freed_total == 2
        assert pool.tokens_cached == 18
        assert len(pool._seqs) == 2

    def test_exhaustion_raises_and_leaves_state(self):
        rng = np.random.default_rng(5)
        pool = _pool(capacity_tokens=16, block_size=8)
        register(pool, 0)
        _fill(pool, 0, 12, rng)
        before = pool.view(0)[0].copy()
        with pytest.raises(PoolExhausted):
            _fill(pool, 0, 8, rng)
        assert pool.length(0) == 12
        assert np.array_equal(pool.view(0)[0], before)
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
        keys, values = rng.normal(size=(2, 10, 4)), rng.normal(size=(2, 10, 4))
        register(pool, 0, (keys, values), scales=scales)
        pool.append(0, 10)
        k_before, v_before = (a.copy() for a in pool.view(0))
        swapped = pool.swap_out(0)
        assert swapped.length == 10
        assert not pool._seqs and pool.blocks_in_use == 0
        assert pool.swaps_out_total == 1
        # occupy different blocks so the run comes back at a new offset
        register(pool, 9)
        _fill(pool, 9, 5, rng)
        pool.swap_in(0, swapped)
        assert pool.swaps_in_total == 1
        assert pool.length(0) == 10
        assert pool._entry(0).scales is scales
        k_after, v_after = pool.view(0)
        assert np.array_equal(k_before, k_after)
        assert np.array_equal(v_before, v_after)

    def test_swap_mid_prompt_carries_the_rest(self):
        """A sequence swapped out mid-prompt carries references to the
        prompt rows it has not ingested; after ``swap_in``, ``append``
        continues where it stopped, stores an uninterrupted ingest's
        bytes, and drops the references after the last row."""
        rng = np.random.default_rng(11)
        prompt = rng.normal(size=(2, 10, 4)), rng.normal(size=(2, 10, 4))
        whole, split = _pool(), _pool()
        for pool in (whole, split):
            register(pool, 0, prompt)
        whole.append(0, 10)
        split.append(0, 6)
        swapped = split.swap_out(0)
        assert swapped.length == 6
        for rest, full in zip(swapped.prompt, prompt):
            assert rest.shape == (2, 4, 4) and np.shares_memory(rest, full)
        register(split, 9)
        _fill(split, 9, 5, rng)  # the run comes back at a new offset
        split.swap_in(0, swapped)
        split.append(0, 4)
        assert split._entry(0).prompt is None
        for got, want in zip(split.view(0), whole.view(0)):
            assert np.array_equal(got, want)

    def test_swap_in_respects_reservation(self):
        rng = np.random.default_rng(5)
        pool = _pool()
        register(pool, 0)
        _fill(pool, 0, 4, rng)
        swapped = pool.swap_out(0)
        pool.swap_in(0, swapped, reserve_tokens=32)
        entry_blocks = pool.blocks_in_use
        assert entry_blocks == pool.blocks_needed(32)

    def test_swap_in_raises_when_no_room(self):
        rng = np.random.default_rng(6)
        pool = _pool()
        register(pool, 0)
        _fill(pool, 0, 16, rng)
        swapped = pool.swap_out(0)
        register(pool, 1)
        _fill(pool, 1, 56, rng)
        with pytest.raises(PoolExhausted):
            pool.swap_in(0, swapped)
        assert len(pool._seqs) == 1  # pool state unchanged

    def test_ensure_capacity_grows_without_writing(self):
        rng = np.random.default_rng(7)
        pool = _pool()
        register(pool, 0)
        _fill(pool, 0, 8, rng)
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
        register(pool, 0)
        with pytest.raises(ValueError):
            register(pool, 0)
        with pytest.raises(KeyError):
            pool.view(99)
        with pytest.raises(KeyError):
            pool.free(99)

    def test_append_shape_errors(self):
        """A prompt's shape is checked once, at ``register``; ``append``
        takes only rows the registered prompt still holds."""
        rng = np.random.default_rng(8)
        pool = _pool()
        register(pool, 0)  # encoded rows only: no prompt to append
        with pytest.raises(ValueError, match="0 prompt rows left"):
            pool.append(0, 1)
        scales = freeze_scales(
            rng.normal(size=(2, 4, 4)), rng.normal(size=(2, 4, 4)), QUANT, 1.25
        )
        with pytest.raises(ValueError, match="must both be"):
            pool.register(1, scales, (np.zeros((3, 4, 4)), np.zeros((3, 4, 4))))
        with pytest.raises(ValueError, match="must both be"):
            pool.register(1, scales, (np.zeros((2, 4, 4)), np.zeros((2, 5, 4))))
        register(pool, 1, (np.zeros((2, 4, 4)), np.zeros((2, 4, 4))), scales=scales)
        with pytest.raises(ValueError, match="4 prompt rows left"):
            pool.append(1, 5)
        with pytest.raises(ValueError, match="must be"):
            pool.append_rows([1], np.zeros((1, 2, 4)), np.zeros((1, 4)))
        assert pool.length(1) == 0

    @pytest.mark.parametrize("which", ["keys", "values"])
    def test_nan_append_rejected_before_any_row_is_claimed(self, which):
        """Regression: a NaN key used to be cast to digit 0 with only a
        cast warning, and an integer V arena would store a garbage code
        instead of a visible NaN.  A decode row now raises before
        claiming a row: length, blocks and stored rows are unchanged.  A
        NaN prompt is refused earlier, when its scales are frozen at
        submit (``test_serving_engine.py::TestSubmitRefusesUnfreezable``)."""
        rng = np.random.default_rng(9)
        pool = _pool()
        scales = freeze_scales(
            rng.normal(size=(2, 4, 4)), rng.normal(size=(2, 4, 4)), QUANT, 1.25
        )
        prompt = rng.normal(size=(2, 3, 4)), rng.normal(size=(2, 3, 4))
        register(pool, 0, prompt, scales=scales)
        pool.append(0, 3)
        before = [a.copy() for a in pool.view(0)], pool.blocks_in_use
        step = {n: rng.normal(size=(1, 2, 4)) for n in ("keys", "values")}
        step[which][0, 0, 0] = np.nan
        with pytest.raises(ValueError, match="NaN"):
            pool.append_rows([0], step["keys"], step["values"])
        assert pool.length(0) == 3
        assert pool.blocks_in_use == before[1]
        for got, want in zip(pool.view(0), before[0]):
            assert np.array_equal(got, want)

    def test_append_rows_rejects_repeated_sequences(self):
        """Regression: a repeated sequence id used to write both tokens
        into one row and advance the length by 2.  It raises
        ``ValueError`` before any row is claimed."""
        rng = np.random.default_rng(10)
        pool = _pool()
        scales = freeze_scales(
            rng.normal(size=(2, 4, 4)), rng.normal(size=(2, 4, 4)), QUANT, 1.25
        )
        prompt = rng.normal(size=(2, 3, 4)), rng.normal(size=(2, 3, 4))
        register(pool, 0, prompt, scales=scales)
        pool.append(0, 3)
        before = [a.copy() for a in pool.view(0)], pool.blocks_in_use
        step = rng.normal(size=(2, 2, 4)), rng.normal(size=(2, 2, 4))
        with pytest.raises(ValueError, match="distinct"):
            pool.append_rows([0, 0], *step)
        assert pool.length(0) == 3
        assert pool.blocks_in_use == before[1]
        for got, want in zip(pool.view(0), before[0]):
            assert np.array_equal(got, want)

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
        register(pool, 0)  # registering with no reservation is legal...
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
        # K's own scale, byte for byte, in an array of its own
        assert scales.q_scale.tobytes() == scales.k_scale.tobytes()
        assert not np.shares_memory(scales.q_scale, scales.k_scale)
        queries = rng.normal(size=(2, 32, 4)) * 3
        with_q = freeze_scales(keys, values, quant, 1.25, queries=queries)
        assert np.all(with_q.q_scale >= scales.q_scale)

    def test_freeze_scales_edge_heads_bit_exact(self):
        """max |x| from the head's minimum, an all-zero head and a head
        of -0.0 give exactly the |x|-copy reference scales (1.0 for the
        zero heads)."""
        rng = np.random.default_rng(8)
        quant = QuantConfig()
        keys = rng.normal(size=(4, 16, 4))
        keys[0] = np.clip(keys[0], -2.0, 0.5)
        keys[0, 3, 1] = -7.25  # max |x| sits at the minimum
        keys[1] = 0.0
        keys[2] = -0.0
        values = -keys[::-1].copy()
        scales = freeze_scales(keys, values, quant, safety_factor=1.25)
        for x, got in ((keys, scales.k_scale), (values, scales.v_scale)):
            max_abs = np.abs(x).max(axis=(1, 2))
            expected = np.where(max_abs > 0, max_abs * 1.25 / quant.qmax, 1.0)
            assert np.array_equal(got, expected)
        assert scales.k_scale[0] == 7.25 * 1.25 / quant.qmax
        assert scales.k_scale[1] == scales.k_scale[2] == 1.0

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

    @pytest.mark.parametrize("which", ["keys", "values", "queries"])
    @pytest.mark.parametrize(
        "peak", [1.5e308, 5e-324], ids=["overflow", "subnormal"]
    )
    def test_freeze_scales_refuses_scale_not_finite_and_positive(
        self, which, peak
    ):
        """A finite maximum past ``float max / safety_factor`` used to
        freeze an infinite scale (with only an overflow warning), and a
        subnormal one a scale of 0.0.  Both raise, without a warning."""
        rng = np.random.default_rng(13)
        tensors = {
            name: rng.normal(size=(2, 8, 4))
            for name in ("keys", "values", "queries")
        }
        tensors[which][1] = 0.0
        tensors[which][1, 3, 2] = peak
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="not finite and positive"):
                freeze_scales(
                    tensors["keys"], tensors["values"], QuantConfig(), 1.25,
                    queries=tensors["queries"],
                )

    def test_count_clips(self):
        quant = QuantConfig()
        scale = np.array([1.0 / quant.qmax, 2.0 / quant.qmax])
        x = np.array([[0.5, 1.5], [1.5, 1.5]])  # limits: 1.0 and 2.0 per row
        assert count_clips(x, scale, quant) == 1
