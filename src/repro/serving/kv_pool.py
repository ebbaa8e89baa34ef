"""Packed KV arena shared by every active sequence — and the one owner of
its storage format.

The engine stores all sequences' keys/values in one preallocated arena
with a per-sequence ``(offset, length)`` segment table.  The pool alone
decides what the arena holds: it keeps each sequence's frozen scales and
raw prompt K/V (references), encodes that prompt chunk by chunk
(:meth:`KVCachePool.append`) and raw decode tokens (:meth:`KVCachePool.
append_rows`) with them, and stores the paper's bits.  K is held
as its ``C = quant.n_chunks`` MSB-first chunk digits, **chunk-major**,
in ``(H, C, T_cap, d)`` integer planes: every (head, chunk) pair owns
one contiguous ``(T_cap, d)`` plane, so the kernel's chunk-0 estimate
pass streams one dense plane per head and later chunks sit apart until
fetched — the paper's DRAM layout.  Digits are stored unshifted in the
narrowest signed integer holding ``[-2**(cb-1), 2**cb - 1]`` (int8 for
chunks of up to 7 bits).  V, of which only kept rows are ever gathered,
is stored token-major ``(T_cap, H, d)`` as its signed codes in
``np.min_scalar_type(qmin - 1)`` (int16 at 12 bits), the spare code
``qmin - 1`` marking a code of ``-0.0``; the kernel dequantises kept
rows with the sequence's frozen scale.  At the paper's (12, 4) format
that is 5 bytes per (token, head, dim) element: three int8 digits and
one int16 code.  A sequence occupies the same
contiguous run of token positions in every plane, appended *in place*:
a decode step writes exactly one new position per sequence and the
fused ragged kernel then computes directly on views of the arena
(``segments`` locate each slab), so the hot path performs zero packing
copies.  Encoded rows (swaps) cross the boundary token-major
``(n, H*C, d)`` and convert there; :attr:`KVCachePool.row_bits` is the
modelled size of one.  Space is managed in fixed-size token blocks by a
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

import math
import mmap
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.config import QuantConfig
from repro.core.pruning import _TILE_BYTES, exact_digit_dtype


def _encode_kv_into(
    keys, values, k_scale, v_scale, quant, k_out, v_out
) -> None:
    """Frozen-scale encoding applied once, when a token enters the pool —
    the one encoder for prefill chunks and decode-step tokens alike.

    ``keys``/``values`` are token-major ``(n, H, d)`` (any strides),
    ``k_scale``/``v_scale`` the rows' ``(n, H)`` frozen scales (any
    strides: a prompt chunk passes one sequence's scales broadcast over
    its rows).  K is quantized
    and decomposed into its MSB-first chunk *digits* — the representation
    the paper's DRAM layout streams — written into ``k_out``, token-major
    ``(n, H * n_chunks, d)`` rows: the pool's strided view into its
    chunk-major integer digit planes, or a staging array.  Digits are
    stored unshifted (the fused kernel applies each chunk's power-of-two
    positional shift after its contraction).  V is stored as its signed
    codes ``clip(rint(v / s))`` into ``v_out`` ``(n, H, d)``, a code of
    ``-0.0`` (``v / s`` in ``[-0.5, -0.0]``) as the spare code ``qmin -
    1``, so the kernel's ``code * s`` is bit for bit ``clip(rint(v /
    s)) * s``, sign of zero included.  Both are what the
    kernel would re-derive from the raw floats at every later step, so
    storing them loses nothing and saves the per-step requantization of
    the whole cache.

    The digits come straight from the signed codes, held in the
    narrowest signed integer dtype that fits ``[qmin, qmax]`` (int16 for
    the paper's 12-bit format): an arithmetic right shift of a
    two's-complement code by ``N - cb`` *is* its sign-extended top chunk
    (Eq. 4), and every lower chunk is the shifted code's low ``cb`` bits,
    which a two's-complement code shares with its unsigned pattern — the
    same digits :func:`~repro.core.quantization.signed_chunk_digit`
    derives from :func:`~repro.core.quantization.to_unsigned`.

    The token axis is walked in tiles of ``_TILE_BYTES`` of float64 (256
    tokens at H = 4, d = 64), and each tile runs the whole chain, so no
    temporary grows with the prompt.  A full-prompt float64 temporary
    would outgrow the L2 and cross NumPy's 4 MiB huge-page advice
    threshold, faulting in fresh 2 MiB pages on every prefill chunk; a
    tile stays cached from its divide to its last digit write.  A
    decode step (one row per sequence) is usually one tile.
    """
    n, n_heads, head_dim = keys.shape
    rows = max(_TILE_BYTES // (n_heads * head_dim * 8), 1)  # float64 codes
    k4 = k_out.reshape(n, n_heads, quant.n_chunks, head_dim)
    code_dtype = np.min_scalar_type(quant.qmin)
    chunk_mask = (1 << quant.chunk_bits) - 1
    for lo in range(0, n, rows):
        tile = slice(lo, lo + rows)
        # in-place ufuncs keep the input's memory order (head-major for
        # a prompt slice, matching the digit planes)
        code = np.divide(keys[tile], k_scale[tile, :, None])
        np.rint(code, out=code)
        np.clip(code, quant.qmin, quant.qmax, out=code)
        code = code.astype(code_dtype)
        k_tile = k4[tile]
        digit = np.empty_like(code)
        for c in range(quant.n_chunks):
            shift = quant.total_bits - (c + 1) * quant.chunk_bits
            np.right_shift(code, shift, out=digit)
            if c:
                np.bitwise_and(digit, chunk_mask, out=digit)
            k_tile[:, :, c, :] = digit
        code = np.divide(values[tile], v_scale[tile, :, None])
        np.rint(code, out=code)
        np.clip(code, quant.qmin, quant.qmax, out=code)
        v_tile = v_out[tile]
        v_tile[...] = code
        # -0.0 is the one float64 whose bit pattern is int64's minimum:
        # one compare finds the codes that take the spare code qmin - 1
        neg_zero = code.view(np.int64) == np.iinfo(np.int64).min
        np.copyto(v_tile, quant.qmin - 1, where=neg_zero)


def _reject_nan(keys: np.ndarray, values: np.ndarray) -> None:
    """``ValueError`` if raw decode K/V hold a NaN, which has no code (a
    prompt's NaN was refused by its scale freeze).  ``min`` propagates a
    NaN without an elementwise mask copy."""
    if keys.size and (np.isnan(keys.min()) or np.isnan(values.min())):
        raise ValueError("keys and values must not contain NaN")


def _lazy_zeros(shape: Tuple[int, ...], dtype) -> np.ndarray:
    """A zero-filled array on its own anonymous mapping.

    NumPy advises huge pages for arrays of 4 MiB or more, and each of the
    H*C digit planes is touched only up to the highest arena offset in
    use, so every plane would pin a partly-touched 2 MiB page; an
    anonymous mmap is zero-filled and faulted in page by page on first
    touch instead.
    """
    nbytes = math.prod(shape) * np.dtype(dtype).itemsize
    if not nbytes:
        return np.zeros(shape, dtype=dtype)
    return np.frombuffer(mmap.mmap(-1, nbytes), dtype=dtype).reshape(shape)


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
    ``ValueError`` refuses non-finite data and a scale that is not finite
    and positive (a maximum past ``float max / safety_factor``, or tiny).
    """
    keys = np.asarray(keys, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    if keys.ndim != 3 or values.shape != keys.shape:
        raise ValueError("keys and values must both be (H, t, d)")
    qmax = quant.qmax

    def scale_of(x: np.ndarray) -> np.ndarray:
        # max |x| from two reductions, without an |x| copy of the prompt;
        # exact (negation is), and NaN / inf still propagate to the check
        max_abs = np.maximum(x.max(axis=(1, 2)), -x.min(axis=(1, 2)))
        if not np.isfinite(max_abs).all():
            # a NaN maximum would otherwise fall through to scale 1.0
            raise ValueError("cannot freeze scales from non-finite prompt data")
        with np.errstate(over="ignore"):  # an infinite scale is refused
            scale = np.where(max_abs > 0, max_abs * safety_factor / qmax, 1.0)
        if not (np.isfinite(scale) & (scale > 0)).all():
            raise ValueError(f"frozen scales {scale} not finite and positive")
        return scale

    k_scale = scale_of(keys)
    q_scale = (
        scale_of(np.asarray(queries, dtype=np.float64))
        if queries is not None
        else k_scale.copy()
    )
    return SequenceScales(
        q_scale=q_scale, k_scale=k_scale, v_scale=scale_of(values)
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
    (frozen-scale integer chunk digits + signed V codes), so swapping back
    in reproduces the sequence's cache bit-for-bit — the property the
    preemption path's zero-divergence guarantee rests on.
    """

    k_rows: np.ndarray  # (t, n_heads * n_chunks, d) token-major K digits
    v_rows: np.ndarray  # (t, n_heads, d) token-major V codes
    scales: SequenceScales
    prompt: Optional[Tuple[np.ndarray, np.ndarray]]  # not ingested yet

    @property
    def length(self) -> int:
        return self.k_rows.shape[0]


@dataclass
class _SequenceEntry:
    """Arena segment + logical length of one pooled sequence."""

    scales: SequenceScales
    prompt: Optional[Tuple[np.ndarray, np.ndarray]]  # rows to ingest
    offset_blocks: int = -1  # -1: no arena run allocated yet
    capacity_blocks: int = 0
    length: int = 0  # tokens written
    reserved_blocks: int = 0  # lifetime budget admission promised this seq


class KVCachePool:
    """Fixed-capacity packed KV arena with per-sequence contiguous runs.

    One chunk-major K array of ``(n_heads, C, T_cap, d)`` digit planes
    (``C = quant.n_chunks``) and one token-major V array ``(T_cap,
    n_heads, d)`` back every sequence; the segment table maps a sequence
    to its contiguous ``(offset, length)`` run of token positions.
    Appends encode raw K/V with the sequence's frozen scales and write
    in place; :meth:`view` serves zero-copy read-only ``(n_heads * C,
    t, d)`` / ``(n_heads, t, d)`` slices, and :meth:`segments_of` hands
    the fused kernel the raw segment table so it can compute on arena
    views directly.  Encoded rows cross the pool's boundary token-major
    — ``(n, n_heads * C, d)`` K rows, head ``h`` chunk ``c`` at column
    ``h * C + c`` — and are converted on the way in and out.  Freed runs
    return to a coalescing first-fit hole list.

    Head sharding needs no pool of its own: K is head-major, so a shard
    worker's heads ``[h0, h1)`` are the views ``k_arena[h0:h1]`` and
    ``v_arena[:, h0:h1]`` of this one full-width arena
    (:class:`repro.cluster.shard.ShardGroup`).
    """

    def __init__(
        self,
        n_heads: int,
        head_dim: int,
        quant: QuantConfig,
        capacity_tokens: int = 8192,
        block_size: int = 16,
    ) -> None:
        """``quant`` is the storage format: C integer chunk-digit planes
        per head, stored *unshifted*, and one signed V code per element
        (see the module docstring).  A format no float accumulator
        scores exactly (full-depth scores past ``2**52``) raises
        ``ValueError`` here, as it would at the ragged kernel's entry.
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
        self.quant = quant
        self.n_chunks = quant.n_chunks
        self.block_size = block_size
        self.n_blocks = capacity_tokens // block_size
        t_cap = self.n_blocks * block_size
        exact_digit_dtype(quant, head_dim)  # rejects a too-wide format
        k_dtype = np.min_scalar_type(-(1 << quant.chunk_bits))
        # chunk-major K digit planes, plus a token-major view of the same
        # memory for the row interface: ``_k_rows[t]`` is token t's
        # (n_heads * C, d) row.  It must stay a view (the head and chunk
        # axes merge without a copy) so row writes land in the planes.
        self._k = _lazy_zeros((n_heads, self.n_chunks, t_cap, head_dim), k_dtype)
        self._k_rows = self._k.transpose(2, 0, 1, 3).reshape(
            t_cap, n_heads * self.n_chunks, head_dim
        )
        self._v = np.zeros(
            (t_cap, n_heads, head_dim), np.min_scalar_type(quant.qmin - 1)
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

    def blocks_needed(self, n_tokens: int) -> int:
        return -(-n_tokens // self.block_size)

    @property
    def row_bits(self) -> int:
        """Modelled bits of one stored token in the paper's layout: its K
        chunk digits plus its V row, ``total_bits`` per element each —
        what prefill pricing and the tier byte model charge per row."""
        return 2 * self.n_heads * self.head_dim * self.quant.total_bits

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
        k_run = self._k[:, :, lo:lo + entry.length].copy()
        v_run = self._v[lo:lo + entry.length].copy()
        self._release(old_off, old_cap)
        self.blocks_freed_total += old_cap
        new_off = self._alloc(needed_blocks)
        entry.offset_blocks = new_off
        entry.capacity_blocks = needed_blocks
        dst = new_off * bs
        self._k[:, :, dst:dst + entry.length] = k_run
        self._v[dst:dst + entry.length] = v_run

    # ------------------------------------------------------------- lifecycle
    def register(
        self,
        seq_id: int,
        scales: SequenceScales,
        prompt: Optional[Tuple[np.ndarray, np.ndarray]],
        reserve_tokens: int = 0,
    ) -> None:
        """Create a sequence entry under its frozen ``scales``.

        ``prompt``: the raw ``(keys, values)``, both ``(H, T, d)``, the
        scales were frozen from (so finite), or None for encoded rows
        only; the pool keeps references for :meth:`append`.
        ``reserve_tokens`` sizes the sequence's lifetime arena run, which
        is claimed immediately so later growth can never fail or relocate
        — the admission contract the serving engine relies on.
        """
        if seq_id in self._seqs:
            raise ValueError(f"sequence {seq_id} already registered")
        if prompt is not None and not (
            prompt[0].ndim == 3
            and prompt[0].shape[::2] == (self.n_heads, self.head_dim)
            and prompt[1].shape == prompt[0].shape
        ):
            raise ValueError(
                f"prompt keys and values must both be ({self.n_heads}, T, "
                f"{self.head_dim}), got {[a.shape for a in prompt]}"
            )
        reserved = self.blocks_needed(reserve_tokens)
        entry = _SequenceEntry(scales, prompt, reserved_blocks=reserved)
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
        """Chunk-major ``(n_heads, n_chunks, T_cap, d)`` integer K digit
        planes;
        each ``k_arena[h, c]`` is one C-contiguous ``(T_cap, d)`` plane,
        and a head range ``k_arena[h0:h1]`` is one shard worker's K."""
        return self._k

    @property
    def v_arena(self) -> np.ndarray:
        """Token-major ``(T_cap, n_heads, d)`` signed V codes (``qmin -
        1`` for ``-0.0``); a shard worker's V is the view
        ``v_arena[:, h0:h1]``."""
        return self._v

    # read_rows / write_rows have no caller in the program: they are
    # kept because the frozen benchmark recorder
    # (benchmarks/e2e/e2e_spans.py) names them in its TARGETS.
    def read_rows(self, rows: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Copy arbitrary token rows out: token-major encoded ``(k_rows,
        v_rows)``, ``(n, n_heads * C, d)`` integer digits and ``(n,
        n_heads, d)`` V codes, whatever the plane layout."""
        return self._k_rows[rows].copy(), self._v[rows].copy()

    def write_rows(
        self, rows: np.ndarray, k_rows: np.ndarray, v_rows: np.ndarray
    ) -> None:
        """Scatter rows back into the arena (inverse of :meth:`read_rows`)."""
        self._k_rows[rows] = k_rows
        self._v[rows] = v_rows

    def append(self, seq_id: int, n: int) -> None:
        """Encode the next ``n`` rows of the sequence's registered prompt
        with its frozen scales, straight into its run — no staging copy —
        continuing where the last chunk ended; the pool drops its prompt
        references after the last row.

        The run stays one contiguous slab, so a mid-prefill sequence
        swaps out and resumes like any other.  Within the admission
        reservation growth never relocates; beyond it (only possible
        after a mid-prefill preemption cycle under optimistic admission)
        the engine preflights the chunk with :meth:`ensure_capacity`
        first.  Raises :class:`PoolExhausted` (sequence unchanged) when
        no contiguous run can cover the growth, and ``ValueError`` unless
        ``1 <= n <=`` the prompt rows left.
        """
        entry = self._entry(seq_id)
        left = 0 if entry.prompt is None else entry.prompt[0].shape[1]
        if not 0 < n <= left:
            raise ValueError(
                f"sequence {seq_id}: {left} prompt rows left, not {n}"
            )
        keys, values = entry.prompt
        _encode_kv_into(
            keys[:, :n].transpose(1, 0, 2),
            values[:, :n].transpose(1, 0, 2),
            np.broadcast_to(entry.scales.k_scale, (n, self.n_heads)),
            np.broadcast_to(entry.scales.v_scale, (n, self.n_heads)),
            self.quant,
            *self.append_slots(seq_id, n),  # claimed only after the check
        )
        entry.prompt = (keys[:, n:], values[:, n:]) if n < left else None

    def append_slots(
        self, seq_id: int, n: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Claim ``n`` new token rows, returning writable token-major
        ``(n, n_heads * C, d)`` / ``(n, n_heads, d)`` arena views (the
        first a strided view into the digit planes) for :meth:`append`
        and :meth:`append_encoded` to fill in place."""
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
        entry = self._entry(seq_id)
        new_len = entry.length + n
        self._grow(entry, self.blocks_needed(new_len))
        pos = entry.offset_blocks * self.block_size + entry.length
        entry.length = new_len
        return self._k_rows[pos:pos + n], self._v[pos:pos + n]

    def append_encoded(
        self, seq_id: int, k_rows: np.ndarray, v_rows: np.ndarray
    ) -> None:
        """Append already-encoded token-major rows in the
        :meth:`read_rows` format — how :meth:`swap_in` writes a swapped
        sequence back."""
        k_slots, v_slots = self.append_slots(seq_id, k_rows.shape[0])
        k_slots[:] = k_rows
        v_slots[:] = v_rows

    def append_rows(
        self,
        seq_ids: Sequence[int],
        keys: np.ndarray,
        values: np.ndarray,
    ) -> None:
        """Vectorized decode-step append: one new raw token per sequence.

        ``keys`` / ``values``: (S, n_heads, d), encoded in one batch with
        each row's sequence's frozen scales.  All growth is performed
        first (so a :class:`PoolExhausted` mid-way cannot leave a partial
        batch), then both arenas are written with one scatter each — the
        fused step's only KV write.  A NaN in ``keys`` or ``values`` or a
        repeated sequence id raises ``ValueError`` before any row is
        claimed.
        """
        keys, values = np.asarray(keys), np.asarray(values)
        shape = (len(seq_ids), self.n_heads, self.head_dim)
        if keys.shape != shape or values.shape != shape:
            raise ValueError(
                f"keys and values must be {shape}, got {keys.shape} "
                f"and {values.shape}"
            )
        _reject_nan(keys, values)
        entries = [self._entry(sid) for sid in seq_ids]
        if len(set(seq_ids)) != len(seq_ids):
            raise ValueError(f"seq_ids must be distinct, got {list(seq_ids)}")
        k_rows, v_rows = (
            np.empty((len(entries),) + self._k_rows.shape[1:], self._k.dtype),
            np.empty(shape, self._v.dtype),
        )
        _encode_kv_into(
            keys,
            values,
            np.array([e.scales.k_scale for e in entries]),
            np.array([e.scales.v_scale for e in entries]),
            self.quant,
            k_rows,
            v_rows,
        )
        for entry in entries:
            self._grow(entry, self.blocks_needed(entry.length + 1))
        rows = np.array(
            [e.offset_blocks * self.block_size + e.length for e in entries],
            dtype=np.int64,
        )
        self._k_rows[rows] = k_rows
        self._v[rows] = v_rows
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
        byte-identically.  Frozen scales and the prompt rows not yet
        ingested travel with the swap.
        """
        entry = self._entry(seq_id)
        lo = max(entry.offset_blocks, 0) * self.block_size
        swapped = SwappedSequence(
            k_rows=self._k_rows[lo:lo + entry.length].copy(),
            v_rows=self._v[lo:lo + entry.length].copy(),
            scales=entry.scales,
            prompt=entry.prompt,
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
            seq_id, swapped.scales, swapped.prompt, max(n, reserve_tokens)
        )
        if n:  # register sized the run, so this cannot exhaust the pool
            self.append_encoded(seq_id, swapped.k_rows, swapped.v_rows)
        self.swaps_in_total += 1

    def view(self, seq_id: int) -> Tuple[np.ndarray, np.ndarray]:
        """The sequence's encoded ``(n_heads * C, t, d)`` K digits and
        ``(n_heads, t, d)`` V codes (read-only).

        Zero-copy: K is the plain slice of the sequence's run in every
        digit plane, V a transposed view, both valid until the sequence
        is freed or relocated by growth beyond its reservation.  The
        fused kernel reads the planes directly (:attr:`k_arena` +
        :meth:`segments_of`); this view is the per-sequence
        compatibility surface.
        """
        entry = self._entry(seq_id)
        lo = max(entry.offset_blocks, 0) * self.block_size
        hi = lo + entry.length
        k = self._k[:, :, lo:hi].reshape(-1, entry.length, self.head_dim)
        v = self._v[lo:hi].transpose(1, 0, 2)
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
