"""Packed token-major KV arena shared by every active sequence.

The engine stores all sequences' keys/values in one preallocated
**token-major arena** — contiguous ``(T_cap, H*C, d)`` chunk-plane and
``(T_cap, H, d)`` dequantized-V planes — with a per-sequence ``(offset,
length)`` segment table.  A sequence occupies one contiguous run of arena
rows, appended *in place*: a decode step writes exactly one new row per
sequence and the fused ragged kernel then computes directly on views of
the arena (``segments`` locate each slab), so the hot path performs zero
packing copies.  Space is managed in fixed-size token blocks by a
first-fit hole allocator with coalescing — the accounting granularity of
the old paged pool — and a sequence that outgrows its run is relocated
(realloc-style); reserving the lifetime footprint up front (what the
engine's admission control does) makes relocation impossible mid-flight.

Alongside the storage, the pool carries

* the **frozen per-sequence quantization scales** (:class:`SequenceScales`,
  fixed once at prompt/prefill time — Sec. 4's deployment constraint: the
  hardware cannot rescan the cache to recompute scales), and
* **eviction accounting**: blocks allocated/freed, peak occupancy and the
  high-water utilisation that capacity planning reads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.config import QuantConfig


@dataclass
class SequenceScales:
    """Frozen per-head quantization scales (set at prompt/prefill time)."""

    q_scale: np.ndarray  # (H,)
    k_scale: np.ndarray  # (H,)
    v_scale: np.ndarray  # (H,)


def freeze_scales(
    keys: np.ndarray,
    values: np.ndarray,
    quant: QuantConfig,
    safety_factor: float,
    queries: Optional[np.ndarray] = None,
) -> SequenceScales:
    """Calibrate per-head Q/K/V scales from prompt-phase tensors.

    ``keys``/``values``: (H, t, d); ``queries``: optional (H, t, d) — when
    absent, K statistics stand in for Q (they share the residual stream's
    magnitude at calibration quality).  The ``safety_factor`` widens the
    window for decode-time headroom; out-of-range values later saturate.
    """
    keys = np.asarray(keys, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    if keys.ndim != 3 or values.shape != keys.shape:
        raise ValueError("keys and values must both be (H, t, d)")
    qmax = quant.qmax

    def scale_of(x: np.ndarray) -> np.ndarray:
        max_abs = np.abs(x).max(axis=(1, 2))
        if not np.isfinite(max_abs).all():
            # a NaN maximum would otherwise fall through to scale 1.0
            raise ValueError("cannot freeze scales from non-finite prompt data")
        return np.where(max_abs > 0, max_abs * safety_factor / qmax, 1.0)

    q_src = np.asarray(queries, dtype=np.float64) if queries is not None else keys
    return SequenceScales(
        q_scale=scale_of(q_src), k_scale=scale_of(keys), v_scale=scale_of(values)
    )


def count_clips(x: np.ndarray, scale: np.ndarray, quant: QuantConfig) -> int:
    """Elements of ``x`` that saturate under frozen per-head ``scale``."""
    limit = np.asarray(scale) * quant.qmax
    while limit.ndim < np.ndim(x):
        limit = limit[..., None]
    return int((np.abs(x) > limit).sum())


class PoolExhausted(RuntimeError):
    """Raised when an allocation cannot be satisfied from the hole list."""


@dataclass(frozen=True)
class SwappedSequence:
    """A preempted sequence's KV segments, swapped out of the arena.

    The rows are byte-exact copies of the arena's *encoded* storage
    (frozen-scale chunk digits + quantize-dequantized V), so swapping back
    in reproduces the sequence's cache bit-for-bit — the property the
    preemption path's zero-divergence guarantee rests on.
    """

    k_rows: np.ndarray  # (t, k_heads, d) token-major encoded K digits
    v_rows: np.ndarray  # (t, n_heads, d) token-major deq-V rows
    scales: Optional[SequenceScales]
    # on a head-sliced pool the rows carry that slice's head columns
    # only; swapping back in through the same (or an identically sliced)
    # pool reproduces the slice byte-for-byte.

    @property
    def length(self) -> int:
        return self.k_rows.shape[0]


@dataclass
class _SequenceEntry:
    """Arena segment + logical length of one pooled sequence."""

    offset_blocks: int = -1  # -1: no arena run allocated yet
    capacity_blocks: int = 0
    length: int = 0  # tokens written
    scales: Optional[SequenceScales] = None
    reserved_blocks: int = 0  # lifetime budget admission promised this seq


class KVCachePool:
    """Fixed-capacity packed KV arena with per-sequence contiguous runs.

    One token-major K-plane array ``(T_cap, k_heads, d)`` and one V array
    ``(T_cap, n_heads, d)`` back every sequence; the segment table maps a
    sequence to its contiguous ``(offset, length)`` row run.  Appends
    write rows in place; :meth:`view` serves zero-copy read-only
    ``(H, t, d)`` transposed views, and :meth:`segments_of` hands the
    fused kernel the raw segment table so it can compute on arena views
    directly.  Freed runs return to a coalescing first-fit hole list.

    **Head slicing** (model parallelism): ``head_range=(h0, h1)`` makes
    the pool own only that contiguous slice of the model's heads — the
    arenas are allocated at slice width, and the K plane carries the
    matching ``[h0*C, h1*C)`` pseudo-head columns (``C = k_heads //
    n_heads`` chunk planes per head).  The *input* surface stays
    full-width: :meth:`append`/:meth:`append_rows`/:meth:`append_encoded`
    accept full ``(k_heads, ...)``/``(n_heads, ...)`` tensors and slice
    internally, so a shard group can feed every slice pool the same
    encoded rows.  :meth:`view`, :attr:`k_arena`/:attr:`v_arena` and
    :meth:`swap_out` return **slice-local** planes — a slice's swap
    segments are byte-exact for that slice and swap back in through the
    same pool unchanged.  ``head_range=None`` (the default) is the
    classic full-width pool, bit-for-bit.
    """

    #: in-place prefill contract: ``append_slots`` hands out writable
    #: arena views the caller encodes into directly.  Composite pools
    #: (e.g. the sharded fan-out pool) publish ``False`` so the engine
    #: stages encoded rows and calls :meth:`append_encoded` instead.
    supports_inplace_slots = True

    def __init__(
        self,
        n_heads: int,
        head_dim: int,
        capacity_tokens: int = 8192,
        block_size: int = 16,
        k_heads: Optional[int] = None,
        k_dtype=np.float64,
        head_range: Optional[Tuple[int, int]] = None,
    ) -> None:
        """``k_heads`` lets the K channel carry a different leading axis
        than V — e.g. the engine stores chunk-plane-decomposed keys as
        ``n_heads * n_chunks`` pseudo-heads while V keeps ``n_heads``.
        ``k_dtype`` sets the K-channel storage width: the engine stores
        *unshifted* chunk digits, which fit float32 exactly for practical
        formats — halving the fused kernel's arena traffic.
        ``head_range=(h0, h1)`` restricts storage to a head slice (see
        class docstring); it requires ``k_heads`` divisible by
        ``n_heads`` so the K pseudo-head columns split on head borders.
        """
        if n_heads < 1 or head_dim < 1:
            raise ValueError("n_heads and head_dim must be >= 1")
        if block_size < 1:
            raise ValueError(f"block_size must be >= 1, got {block_size}")
        if capacity_tokens != 0 and capacity_tokens < block_size:
            raise ValueError(
                f"capacity_tokens ({capacity_tokens}) must be 0 or hold at "
                f"least one block ({block_size})"
            )
        self.n_heads = n_heads
        self.head_dim = head_dim
        self.k_heads = k_heads if k_heads is not None else n_heads
        if self.k_heads < 1:
            raise ValueError("k_heads must be >= 1")
        if head_range is None:
            self.head_range: Tuple[int, int] = (0, n_heads)
            self._h_lo, self._h_hi = 0, n_heads
            self._k_lo, self._k_hi = 0, self.k_heads
        else:
            h_lo, h_hi = int(head_range[0]), int(head_range[1])
            if not 0 <= h_lo < h_hi <= n_heads:
                raise ValueError(
                    f"head_range must satisfy 0 <= lo < hi <= {n_heads}, "
                    f"got {head_range}"
                )
            if self.k_heads % n_heads:
                raise ValueError(
                    f"head_range needs k_heads ({self.k_heads}) divisible "
                    f"by n_heads ({n_heads})"
                )
            k_mult = self.k_heads // n_heads
            self.head_range = (h_lo, h_hi)
            self._h_lo, self._h_hi = h_lo, h_hi
            self._k_lo, self._k_hi = h_lo * k_mult, h_hi * k_mult
        self.local_n_heads = self._h_hi - self._h_lo
        self.local_k_heads = self._k_hi - self._k_lo
        self.block_size = block_size
        self.n_blocks = capacity_tokens // block_size
        # token-major arena planes: row t is one token's (heads, d) slab,
        # at slice width (== full width for an unsliced pool)
        self._k = np.zeros(
            (self.n_blocks * block_size, self.local_k_heads, head_dim),
            dtype=k_dtype,
        )
        self._v = np.zeros(
            (self.n_blocks * block_size, self.local_n_heads, head_dim)
        )
        # hole list in block units, sorted by offset, coalesced.  A
        # zero-capacity pool (capacity_tokens == 0) is legal — an
        # always-full placeholder some capacity dashboards construct —
        # and starts with no holes at all.
        self._holes: List[Tuple[int, int]] = (
            [(0, self.n_blocks)] if self.n_blocks else []
        )
        self._seqs: Dict[int, _SequenceEntry] = {}
        # eviction accounting
        self.blocks_allocated_total = 0
        self.blocks_freed_total = 0
        self.peak_blocks_in_use = 0
        self.swaps_out_total = 0
        self.swaps_in_total = 0

    # --------------------------------------------------------------- capacity
    @property
    def capacity_tokens(self) -> int:
        return self.n_blocks * self.block_size

    @property
    def blocks_free(self) -> int:
        return sum(size for _, size in self._holes)

    @property
    def blocks_in_use(self) -> int:
        return self.n_blocks - self.blocks_free

    @property
    def largest_hole_blocks(self) -> int:
        """Largest contiguous free run (what a new segment can claim)."""
        return max((size for _, size in self._holes), default=0)

    @property
    def tokens_cached(self) -> int:
        return sum(e.length for e in self._seqs.values())

    @property
    def utilization(self) -> float:
        """Occupied fraction of the pool, in blocks.

        A zero-capacity pool reports 0.0 occupancy rather than dividing
        by zero (regression-tested: dashboards poll this on pools they
        did not construct).
        """
        return self.blocks_in_use / self.n_blocks if self.n_blocks else 0.0

    @property
    def n_sequences(self) -> int:
        return len(self._seqs)

    def blocks_needed(self, n_tokens: int) -> int:
        return -(-n_tokens // self.block_size)

    @property
    def outstanding_reserved_blocks(self) -> int:
        """Blocks promised to live sequences but not yet backed by a run.

        Reservations are materialised as arena runs at :meth:`register`
        time, so this is normally zero — kept for capacity dashboards
        that watched the paged pool's lazy reservations.
        """
        return sum(
            max(0, e.reserved_blocks - e.capacity_blocks)
            for e in self._seqs.values()
        )

    def can_fit(self, n_tokens: int) -> bool:
        """Whether a *new* sequence of ``n_tokens`` lifetime fits right now.

        The arena needs one contiguous run, so this checks the largest
        hole; reservations are already carved out of the hole list, so
        admitting on this check can never starve an admitted sequence's
        growth.
        """
        return self.blocks_needed(n_tokens) <= self.largest_hole_blocks

    # ------------------------------------------------------------- allocation
    def _alloc(self, blocks: int) -> int:
        """First-fit: claim ``blocks`` contiguous blocks, return the offset."""
        for i, (start, size) in enumerate(self._holes):
            if size >= blocks:
                if size == blocks:
                    del self._holes[i]
                else:
                    self._holes[i] = (start + blocks, size - blocks)
                self.blocks_allocated_total += blocks
                self.peak_blocks_in_use = max(
                    self.peak_blocks_in_use, self.blocks_in_use
                )
                return start
        raise PoolExhausted(
            f"no contiguous run of {blocks} blocks "
            f"(largest hole: {self.largest_hole_blocks})"
        )

    def _release(self, start: int, size: int) -> None:
        """Return a run to the hole list, coalescing with neighbours."""
        if size <= 0:
            return
        holes = self._holes
        lo, hi = 0, len(holes)
        while lo < hi:  # insertion point by offset
            mid = (lo + hi) // 2
            if holes[mid][0] < start:
                lo = mid + 1
            else:
                hi = mid
        holes.insert(lo, (start, size))
        if lo + 1 < len(holes) and start + size == holes[lo + 1][0]:
            holes[lo] = (start, size + holes[lo + 1][1])
            del holes[lo + 1]
            start, size = holes[lo]
        if lo > 0 and holes[lo - 1][0] + holes[lo - 1][1] == start:
            holes[lo - 1] = (holes[lo - 1][0], holes[lo - 1][1] + size)
            del holes[lo]

    def _extend_in_place(self, entry: _SequenceEntry, grow: int) -> bool:
        """Consume a hole that starts exactly at the run's end, if any."""
        run_end = entry.offset_blocks + entry.capacity_blocks
        for i, (start, size) in enumerate(self._holes):
            if start == run_end and size >= grow:
                if size == grow:
                    del self._holes[i]
                else:
                    self._holes[i] = (start + grow, size - grow)
                entry.capacity_blocks += grow
                self.blocks_allocated_total += grow
                self.peak_blocks_in_use = max(
                    self.peak_blocks_in_use, self.blocks_in_use
                )
                return True
            if start > run_end:
                break
        return False

    def _grow(self, entry: _SequenceEntry, needed_blocks: int) -> None:
        """Ensure the entry's run holds ``needed_blocks``, relocating if
        necessary; raises :class:`PoolExhausted` leaving state unchanged."""
        if entry.offset_blocks < 0:
            blocks = max(needed_blocks, entry.reserved_blocks)
            entry.offset_blocks = self._alloc(blocks)
            entry.capacity_blocks = blocks
            return
        grow = needed_blocks - entry.capacity_blocks
        if grow <= 0 or self._extend_in_place(entry, grow):
            return
        # Relocate (realloc): a hole must fit the grown run once the old
        # run is released, so search the hypothetical hole list first and
        # only then commit the copy.  Reserved-lifetime sequences never
        # reach this point — their run was sized up front.
        old_off, old_cap = entry.offset_blocks, entry.capacity_blocks
        fits_direct = any(size >= needed_blocks for _, size in self._holes)
        if not fits_direct:
            merged = sorted(self._holes + [(old_off, old_cap)])
            best = 0
            run_start, run_size = merged[0]
            for start, size in merged[1:]:
                if start == run_start + run_size:
                    run_size += size
                else:
                    best = max(best, run_size)
                    run_start, run_size = start, size
            best = max(best, run_size)
            if best < needed_blocks:
                raise PoolExhausted(
                    f"no contiguous run of {needed_blocks} blocks even after "
                    f"compacting this sequence (largest: {best})"
                )
        bs = self.block_size
        lo = old_off * bs
        k_rows = self._k[lo:lo + entry.length].copy()
        v_rows = self._v[lo:lo + entry.length].copy()
        self._release(old_off, old_cap)
        self.blocks_freed_total += old_cap
        new_off = self._alloc(needed_blocks)
        entry.offset_blocks = new_off
        entry.capacity_blocks = needed_blocks
        dst = new_off * bs
        self._k[dst:dst + entry.length] = k_rows
        self._v[dst:dst + entry.length] = v_rows

    # ------------------------------------------------------------- lifecycle
    def register(
        self,
        seq_id: int,
        scales: Optional[SequenceScales] = None,
        reserve_tokens: int = 0,
    ) -> None:
        """Create a sequence entry (its frozen scales travel here).

        ``reserve_tokens`` sizes the sequence's lifetime arena run, which
        is claimed immediately so later growth can never fail or relocate
        — the admission contract the serving engine relies on.
        """
        if seq_id in self._seqs:
            raise ValueError(f"sequence {seq_id} already registered")
        reserved = self.blocks_needed(reserve_tokens)
        entry = _SequenceEntry(scales=scales, reserved_blocks=reserved)
        if reserved:
            try:
                entry.offset_blocks = self._alloc(reserved)
            except PoolExhausted as exc:
                raise PoolExhausted(
                    f"cannot reserve {reserved} blocks for sequence "
                    f"{seq_id}: {exc}"
                ) from None
            entry.capacity_blocks = reserved
        self._seqs[seq_id] = entry

    def scales_of(self, seq_id: int) -> Optional[SequenceScales]:
        return self._entry(seq_id).scales

    def length(self, seq_id: int) -> int:
        return self._entry(seq_id).length

    def segment(self, seq_id: int) -> Tuple[int, int]:
        """The sequence's ``(offset, length)`` row run in the arena."""
        entry = self._entry(seq_id)
        offset = max(entry.offset_blocks, 0) * self.block_size
        return offset, entry.length

    def segments_of(self, seq_ids: Sequence[int]) -> np.ndarray:
        """Segment table rows ``(offset, length)`` for the fused kernel."""
        table = np.empty((len(seq_ids), 2), dtype=np.int64)
        for i, sid in enumerate(seq_ids):
            table[i] = self.segment(sid)
        return table

    @property
    def k_arena(self) -> np.ndarray:
        """Token-major ``(T_cap, local_k_heads, d)`` K-plane storage
        (slice-local; full ``k_heads`` width on an unsliced pool)."""
        return self._k

    @property
    def v_arena(self) -> np.ndarray:
        """Token-major ``(T_cap, local_n_heads, d)`` V storage
        (slice-local; full ``n_heads`` width on an unsliced pool)."""
        return self._v

    @property
    def k_dtype(self) -> np.dtype:
        """Storage dtype of the K-channel plane."""
        return self._k.dtype

    @property
    def is_sliced(self) -> bool:
        """Whether this pool owns only a head slice of the model."""
        return (self._h_lo, self._h_hi) != (0, self.n_heads)

    def read_rows(self, rows: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Copy arbitrary arena rows out: ``(k_rows, v_rows)`` at the
        pool's stored (slice-local) width.  The tier store uses this
        instead of poking the raw arenas so composite pools can gather
        across slices transparently."""
        return self._k[rows].copy(), self._v[rows].copy()

    def write_rows(
        self, rows: np.ndarray, k_rows: np.ndarray, v_rows: np.ndarray
    ) -> None:
        """Scatter rows back into the arena (inverse of :meth:`read_rows`)."""
        self._k[rows] = k_rows
        self._v[rows] = v_rows

    def append(self, seq_id: int, keys: np.ndarray, values: np.ndarray) -> None:
        """Append ``n`` tokens — (H, n, d) — growing the run as needed.

        Prefill passes the whole prompt at once; decode appends one token
        per step.  Raises :class:`PoolExhausted` (leaving the sequence
        unchanged) when no contiguous run can cover the growth.
        """
        entry = self._entry(seq_id)
        keys = np.asarray(keys, dtype=np.float64)
        values = np.asarray(values, dtype=np.float64)
        if keys.ndim != 3 or keys.shape[0] != self.k_heads or keys.shape[2] != self.head_dim:
            raise ValueError(
                f"keys must be ({self.k_heads}, n, {self.head_dim}), got {keys.shape}"
            )
        if values.shape != (self.n_heads, keys.shape[1], self.head_dim):
            raise ValueError(
                f"values must be ({self.n_heads}, {keys.shape[1]}, "
                f"{self.head_dim}), got {values.shape}"
            )
        n = keys.shape[1]
        new_len = entry.length + n
        self._grow(entry, self.blocks_needed(new_len))
        pos = entry.offset_blocks * self.block_size + entry.length
        self._k[pos:pos + n] = keys[self._k_lo:self._k_hi].transpose(1, 0, 2)
        self._v[pos:pos + n] = values[self._h_lo:self._h_hi].transpose(1, 0, 2)
        entry.length = new_len

    def append_slots(
        self, seq_id: int, n: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Claim ``n`` new token rows, returning writable arena views.

        The caller fills the returned ``(n, k_heads, d)`` and
        ``(n, n_heads, d)`` views in place — how prefill encodes prompt
        tokens straight into the arena without staging copies.  Appends
        are incremental: chunked prefill calls this once per budgeted
        chunk of a partially-ingested sequence, and each call continues
        exactly where the previous chunk's rows ended (the sequence's run
        stays one contiguous slab, so a mid-prefill sequence swaps out
        and resumes like any other).  Within the admission reservation
        growth never relocates; beyond it (only possible after a
        mid-prefill preemption cycle under optimistic admission) the
        engine preflights the chunk with :meth:`ensure_capacity` first.
        """
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
        entry = self._entry(seq_id)
        new_len = entry.length + n
        self._grow(entry, self.blocks_needed(new_len))
        pos = entry.offset_blocks * self.block_size + entry.length
        entry.length = new_len
        return self._k[pos:pos + n], self._v[pos:pos + n]

    def append_encoded(
        self, seq_id: int, k_rows: np.ndarray, v_rows: np.ndarray
    ) -> None:
        """Append already-encoded token-major rows (full-width input).

        ``k_rows``: (n, k_heads, d); ``v_rows``: (n, n_heads, d) — the
        staged-prefill counterpart of :meth:`append_slots` for pools that
        cannot hand out in-place views (head-sliced and composite pools
        slice/fan out the staged rows internally).
        """
        if k_rows.ndim != 3 or k_rows.shape[1:] != (self.k_heads, self.head_dim):
            raise ValueError(
                f"k_rows must be (n, {self.k_heads}, {self.head_dim}), "
                f"got {k_rows.shape}"
            )
        if v_rows.shape != (k_rows.shape[0], self.n_heads, self.head_dim):
            raise ValueError(
                f"v_rows must be ({k_rows.shape[0]}, {self.n_heads}, "
                f"{self.head_dim}), got {v_rows.shape}"
            )
        k_slots, v_slots = self.append_slots(seq_id, k_rows.shape[0])
        k_slots[:] = k_rows[:, self._k_lo:self._k_hi]
        v_slots[:] = v_rows[:, self._h_lo:self._h_hi]

    def append_rows(
        self,
        seq_ids: Sequence[int],
        k_rows: np.ndarray,
        v_rows: np.ndarray,
    ) -> None:
        """Vectorized decode-step append: one new token row per sequence.

        ``k_rows``: (S, k_heads, d); ``v_rows``: (S, n_heads, d).  All
        growth is performed first (so a :class:`PoolExhausted` mid-way
        cannot leave a partial batch), then both arenas are written with
        one scatter each — the fused step's only KV write.
        """
        if k_rows.shape != (len(seq_ids), self.k_heads, self.head_dim):
            raise ValueError(
                f"k_rows must be ({len(seq_ids)}, {self.k_heads}, "
                f"{self.head_dim}), got {k_rows.shape}"
            )
        if v_rows.shape != (len(seq_ids), self.n_heads, self.head_dim):
            raise ValueError(
                f"v_rows must be ({len(seq_ids)}, {self.n_heads}, "
                f"{self.head_dim}), got {v_rows.shape}"
            )
        entries = [self._entry(sid) for sid in seq_ids]
        for entry in entries:
            self._grow(entry, self.blocks_needed(entry.length + 1))
        rows = np.array(
            [e.offset_blocks * self.block_size + e.length for e in entries],
            dtype=np.int64,
        )
        self._k[rows] = k_rows[:, self._k_lo:self._k_hi]
        self._v[rows] = v_rows[:, self._h_lo:self._h_hi]
        for entry in entries:
            entry.length += 1

    def ensure_capacity(self, seq_id: int, n_tokens: int) -> None:
        """Grow the sequence's run to hold ``n_tokens``, without writing.

        The decode-time headroom check of optimistic admission: the engine
        pre-flights every active sequence's next-token growth *before*
        drawing its step tensors, so a :class:`PoolExhausted` here (state
        unchanged) can trigger preemption instead of losing a drawn token.
        """
        self._grow(self._entry(seq_id), self.blocks_needed(n_tokens))

    def swap_out(self, seq_id: int) -> SwappedSequence:
        """Preempt: copy the sequence's encoded rows out, free its run.

        The sequence is removed from the pool entirely (its blocks return
        to the hole list); :meth:`swap_in` re-admits the returned segments
        byte-identically.  Frozen scales travel with the swap.
        """
        entry = self._entry(seq_id)
        lo = max(entry.offset_blocks, 0) * self.block_size
        swapped = SwappedSequence(
            k_rows=self._k[lo:lo + entry.length].copy(),
            v_rows=self._v[lo:lo + entry.length].copy(),
            scales=entry.scales,
        )
        self.free(seq_id)
        self.swaps_out_total += 1
        return swapped

    def swap_in(
        self,
        seq_id: int,
        swapped: SwappedSequence,
        reserve_tokens: int = 0,
    ) -> None:
        """Resume a preempted sequence: re-admit its swapped segments.

        Allocates a fresh contiguous run (``reserve_tokens`` sizes it when
        larger than the swapped length — the conservative resume path) and
        copies the encoded rows back.  Raises :class:`PoolExhausted` with
        the pool unchanged when no run fits.
        """
        n = swapped.length
        self.register(
            seq_id,
            scales=swapped.scales,
            reserve_tokens=max(n, reserve_tokens),
        )
        try:
            if n:
                k_slots, v_slots = self.append_slots(seq_id, n)
                k_slots[:] = swapped.k_rows
                v_slots[:] = swapped.v_rows
        except PoolExhausted:  # pragma: no cover - register sized the run
            self.free(seq_id)
            raise
        self.swaps_in_total += 1

    def view(self, seq_id: int) -> Tuple[np.ndarray, np.ndarray]:
        """The sequence's logical (H, t, d) K and V tensors (read-only;
        slice-local head planes on a head-sliced pool).

        Zero-copy: both are transposed views of the sequence's arena run,
        valid until the sequence is freed or relocated by growth beyond
        its reservation.  The fused kernel prefers the raw token-major
        arena (:attr:`k_arena` + :meth:`segments_of`); this view is the
        per-sequence compatibility surface.
        """
        entry = self._entry(seq_id)
        if entry.length == 0:
            return (
                np.zeros(
                    (self.local_k_heads, 0, self.head_dim),
                    dtype=self._k.dtype,
                ),
                np.zeros((self.local_n_heads, 0, self.head_dim)),
            )
        lo = entry.offset_blocks * self.block_size
        k = self._k[lo:lo + entry.length].transpose(1, 0, 2)
        v = self._v[lo:lo + entry.length].transpose(1, 0, 2)
        k.flags.writeable = False
        v.flags.writeable = False
        return k, v

    def free(self, seq_id: int) -> int:
        """Retire a sequence, returning its blocks to the hole list."""
        entry = self._seqs.pop(seq_id, None)
        if entry is None:
            raise KeyError(f"unknown sequence {seq_id}")
        if entry.offset_blocks >= 0:
            self._release(entry.offset_blocks, entry.capacity_blocks)
            self.blocks_freed_total += entry.capacity_blocks
        return entry.capacity_blocks

    def _entry(self, seq_id: int) -> _SequenceEntry:
        try:
            return self._seqs[seq_id]
        except KeyError:
            raise KeyError(f"unknown sequence {seq_id}") from None
