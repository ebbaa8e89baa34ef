"""Head-sharded model parallelism: slice the KV arena across workers.

The cluster layer's replicas are pure data parallelism — N independent
engines.  This module adds the orthogonal axis, Megatron-style **tensor
parallelism over attention heads**: one engine's ``(H, C, d)``
chunk-digit planes and deq-V rows are partitioned head-wise across K
modelled shard workers.  Each worker owns a contiguous head range, holds
*only* its slice of the arena (a head-sliced
:class:`~repro.serving.kv_pool.KVCachePool`), and runs the fused ragged
kernel on that slice; the per-head kept-token partial outputs are
then combined by a modelled **all-gather** whose byte count is
proportional to *kept* (head, token) pairs — so Token-Picker's Eq. 5
certified pruning directly shrinks the interconnect traffic, the
cluster-scale analogue of the paper's DRAM-transfer reduction (a result
the DAC'24 paper never measured).

Bit-identity is structural, not approximate: the ragged kernel computes
every per-head quantity (log denominators, alive masks, prune
predicates, grouped softmax, outputs) with no cross-head coupling, so K
kernel calls on disjoint head slices, concatenated back in shard-index
order (a fixed, deterministic reduction order), reproduce the unsharded
call's arrays bit for bit.  ``tests/test_shard.py`` sweeps this property
across K, uneven head splits, preemption and tiering.

Pieces:

* :func:`partition_heads` — contiguous head ranges, remainder spread
  over the leading shards (``H % K != 0`` is fine).
* :class:`ShardedKVPool` — a composite pool fanning every mutation out
  to K head-sliced slice pools whose block bookkeeping stays identical
  by construction; queries delegate to slice 0.  Swap segments are
  assembled **full-width**, so the preemption/failover wire format is
  shard-layout-agnostic (an unsharded engine can adopt a sharded
  engine's export and vice versa).
* :class:`ShardGroup` — runs the K kernel calls and the deterministic
  combine; :meth:`ShardGroup.step_views` derives each shard's
  interconnect telemetry (:class:`ShardStepView`) from the step's final
  per-sequence results.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.config import QuantConfig, TokenPickerConfig
from repro.core.pruning import (
    BatchedPickerResult,
    KernelScratch,
    RaggedPickerResult,
    token_picker_attention_ragged,
)
from repro.serving.kv_pool import (
    KVCachePool,
    SequenceScales,
    SwappedSequence,
)


def partition_heads(n_heads: int, n_shards: int) -> List[Tuple[int, int]]:
    """Contiguous ``[lo, hi)`` head ranges for ``n_shards`` workers.

    The first ``n_heads % n_shards`` shards take one extra head, so any
    ``1 <= n_shards <= n_heads`` split is legal — uneven splits included.
    """
    if n_shards < 1:
        raise ValueError(f"n_shards must be >= 1, got {n_shards}")
    if n_shards > n_heads:
        raise ValueError(
            f"cannot split {n_heads} heads across {n_shards} shards"
        )
    base, extra = divmod(n_heads, n_shards)
    ranges: List[Tuple[int, int]] = []
    lo = 0
    for s in range(n_shards):
        hi = lo + base + (1 if s < extra else 0)
        ranges.append((lo, hi))
        lo = hi
    return ranges


@dataclass(frozen=True)
class ShardStepView:
    """One shard worker's interconnect + traffic telemetry for one step.

    Bits are *engine-layer* quantities (one layer's heads, unscaled);
    the hardware model scales them by ``n_layers`` and the engine-heads
    ratio exactly like every other traffic term.  ``allgather_bits`` is
    the shard's contribution to the modelled all-gather: one
    ``total_bits``-wide word per element of each kept (head, token)
    pair's d-vector partial output — so the wire bytes shrink with the
    kept-token fraction.  ``baseline_allgather_bits`` is the no-pruning
    footprint of the same step (every pair ships).
    """

    shard: int
    head_range: Tuple[int, int]
    kept_pairs: int
    total_pairs: int
    allgather_bits: int
    baseline_allgather_bits: int
    #: per-sequence fetched K/V bits for this shard's heads (pruned)
    seq_bits: Tuple[int, ...]
    #: per-sequence full-table bits for this shard's heads (baseline)
    seq_baseline_bits: Tuple[int, ...]

    @property
    def n_heads(self) -> int:
        return self.head_range[1] - self.head_range[0]


class ShardedKVPool:
    """K head-sliced :class:`KVCachePool` slices behind one pool surface.

    Every slice pool runs the *same* deterministic block allocator over
    the *same* mutation sequence (register/append/swap/free fan out to
    all slices with identically-shaped growth), so their bookkeeping —
    hole lists, segment tables, accounting counters — is identical by
    induction.  Queries therefore delegate to slice 0.  Geometry
    attributes (``n_heads``, ``k_heads``, ``head_dim``) stay **global**
    full-model widths: inputs arrive full-width and are sliced
    internally, and byte models (tiers) keep pricing whole rows.
    """

    #: the composite cannot hand out one writable in-place view across
    #: K disjoint arenas — callers stage encoded rows (append_encoded)
    supports_inplace_slots = False

    def __init__(
        self,
        n_heads: int,
        head_dim: int,
        capacity_tokens: int = 8192,
        block_size: int = 16,
        k_heads: Optional[int] = None,
        k_dtype=np.float64,
        n_shards: int = 2,
    ) -> None:
        self.head_ranges = partition_heads(n_heads, n_shards)
        self.n_shards = n_shards
        self.n_heads = n_heads
        self.head_dim = head_dim
        self.k_heads = k_heads if k_heads is not None else n_heads
        if self.k_heads % n_heads:
            raise ValueError(
                f"k_heads ({self.k_heads}) must be divisible by n_heads "
                f"({n_heads}) to shard on head borders"
            )
        self._k_mult = self.k_heads // n_heads
        self.block_size = block_size
        self.slices = [
            KVCachePool(
                n_heads,
                head_dim,
                capacity_tokens=capacity_tokens,
                block_size=block_size,
                k_heads=self.k_heads,
                k_dtype=k_dtype,
                head_range=hr,
            )
            for hr in self.head_ranges
        ]

    # ------------------------------------------------------------- geometry
    def _k_range(self, shard: int) -> Tuple[int, int]:
        h_lo, h_hi = self.head_ranges[shard]
        return h_lo * self._k_mult, h_hi * self._k_mult

    @property
    def _lead(self) -> KVCachePool:
        return self.slices[0]

    @property
    def k_dtype(self) -> np.dtype:
        return self._lead.k_dtype

    # --------------------------------------------- queries (slice-0 proxy)
    @property
    def n_blocks(self) -> int:
        return self._lead.n_blocks

    @property
    def capacity_tokens(self) -> int:
        return self._lead.capacity_tokens

    @property
    def blocks_free(self) -> int:
        return self._lead.blocks_free

    @property
    def blocks_in_use(self) -> int:
        return self._lead.blocks_in_use

    @property
    def largest_hole_blocks(self) -> int:
        return self._lead.largest_hole_blocks

    @property
    def tokens_cached(self) -> int:
        return self._lead.tokens_cached

    @property
    def utilization(self) -> float:
        return self._lead.utilization

    @property
    def n_sequences(self) -> int:
        return self._lead.n_sequences

    @property
    def outstanding_reserved_blocks(self) -> int:
        return self._lead.outstanding_reserved_blocks

    @property
    def blocks_allocated_total(self) -> int:
        return self._lead.blocks_allocated_total

    @property
    def blocks_freed_total(self) -> int:
        return self._lead.blocks_freed_total

    @property
    def peak_blocks_in_use(self) -> int:
        return self._lead.peak_blocks_in_use

    @property
    def swaps_out_total(self) -> int:
        return self._lead.swaps_out_total

    @property
    def swaps_in_total(self) -> int:
        return self._lead.swaps_in_total

    def blocks_needed(self, n_tokens: int) -> int:
        return self._lead.blocks_needed(n_tokens)

    def can_fit(self, n_tokens: int) -> bool:
        return self._lead.can_fit(n_tokens)

    def scales_of(self, seq_id: int) -> Optional[SequenceScales]:
        return self._lead.scales_of(seq_id)

    def length(self, seq_id: int) -> int:
        return self._lead.length(seq_id)

    def segment(self, seq_id: int) -> Tuple[int, int]:
        return self._lead.segment(seq_id)

    def segments_of(self, seq_ids: Sequence[int]) -> np.ndarray:
        return self._lead.segments_of(seq_ids)

    # -------------------------------------------------- mutations (fan out)
    def register(
        self,
        seq_id: int,
        scales: Optional[SequenceScales] = None,
        reserve_tokens: int = 0,
    ) -> None:
        done = []
        try:
            for pool in self.slices:
                pool.register(
                    seq_id, scales=scales, reserve_tokens=reserve_tokens
                )
                done.append(pool)
        except Exception:
            for pool in done:  # identical bookkeeping: defensive unwind
                pool.free(seq_id)
            raise

    def free(self, seq_id: int) -> int:
        blocks = 0
        for pool in self.slices:
            blocks = pool.free(seq_id)
        return blocks

    def ensure_capacity(self, seq_id: int, n_tokens: int) -> None:
        for pool in self.slices:
            pool.ensure_capacity(seq_id, n_tokens)

    def append(
        self, seq_id: int, keys: np.ndarray, values: np.ndarray
    ) -> None:
        for pool in self.slices:
            pool.append(seq_id, keys, values)

    def append_rows(
        self,
        seq_ids: Sequence[int],
        k_rows: np.ndarray,
        v_rows: np.ndarray,
    ) -> None:
        for pool in self.slices:
            pool.append_rows(seq_ids, k_rows, v_rows)

    def append_encoded(
        self, seq_id: int, k_rows: np.ndarray, v_rows: np.ndarray
    ) -> None:
        for pool in self.slices:
            pool.append_encoded(seq_id, k_rows, v_rows)

    def append_slots(self, seq_id: int, n: int):
        raise NotImplementedError(
            "a sharded pool spans disjoint arenas and cannot hand out "
            "in-place slots; stage encoded rows and call append_encoded"
        )

    # ----------------------------------------------------- row access (I/O)
    def read_rows(self, rows: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Gather full-width rows across the slices."""
        rows = np.asarray(rows, dtype=np.int64)
        k_full = np.empty(
            (rows.size, self.k_heads, self.head_dim), dtype=self.k_dtype
        )
        v_full = np.empty((rows.size, self.n_heads, self.head_dim))
        for s, pool in enumerate(self.slices):
            h_lo, h_hi = self.head_ranges[s]
            k_lo, k_hi = self._k_range(s)
            k_part, v_part = pool.read_rows(rows)
            k_full[:, k_lo:k_hi] = k_part
            v_full[:, h_lo:h_hi] = v_part
        return k_full, v_full

    def write_rows(
        self, rows: np.ndarray, k_rows: np.ndarray, v_rows: np.ndarray
    ) -> None:
        """Scatter full-width rows back to each slice's columns."""
        for s, pool in enumerate(self.slices):
            h_lo, h_hi = self.head_ranges[s]
            k_lo, k_hi = self._k_range(s)
            pool.write_rows(rows, k_rows[:, k_lo:k_hi], v_rows[:, h_lo:h_hi])

    # ------------------------------------------------------------ swap path
    def swap_out(self, seq_id: int) -> SwappedSequence:
        """Preempt: each slice swaps byte-exactly; segments are assembled
        **full-width** so the wire format matches an unsharded pool's."""
        parts = [pool.swap_out(seq_id) for pool in self.slices]
        t = parts[0].length
        k_full = np.empty((t, self.k_heads, self.head_dim), dtype=self.k_dtype)
        v_full = np.empty((t, self.n_heads, self.head_dim))
        for s, part in enumerate(parts):
            h_lo, h_hi = self.head_ranges[s]
            k_lo, k_hi = self._k_range(s)
            k_full[:, k_lo:k_hi] = part.k_rows
            v_full[:, h_lo:h_hi] = part.v_rows
        return SwappedSequence(
            k_rows=k_full, v_rows=v_full, scales=parts[0].scales
        )

    def swap_in(
        self,
        seq_id: int,
        swapped: SwappedSequence,
        reserve_tokens: int = 0,
    ) -> None:
        """Resume: split the full-width segments back across the slices
        (each slice re-admits its own columns byte-identically)."""
        done = []
        try:
            for s, pool in enumerate(self.slices):
                h_lo, h_hi = self.head_ranges[s]
                k_lo, k_hi = self._k_range(s)
                pool.swap_in(
                    seq_id,
                    SwappedSequence(
                        k_rows=swapped.k_rows[:, k_lo:k_hi],
                        v_rows=swapped.v_rows[:, h_lo:h_hi],
                        scales=swapped.scales,
                    ),
                    reserve_tokens=reserve_tokens,
                )
                done.append(pool)
        except Exception:
            for pool in done:
                pool.free(seq_id)
            raise

    def view(self, seq_id: int) -> Tuple[np.ndarray, np.ndarray]:
        """Full-width (k_heads, t, d) / (n_heads, t, d) logical tensors,
        gathered (copied) across the slices."""
        parts = [pool.view(seq_id) for pool in self.slices]
        t = parts[0][0].shape[1]
        k_full = np.empty((self.k_heads, t, self.head_dim), dtype=self.k_dtype)
        v_full = np.empty((self.n_heads, t, self.head_dim))
        for s, (k_part, v_part) in enumerate(parts):
            h_lo, h_hi = self.head_ranges[s]
            k_lo, k_hi = self._k_range(s)
            k_full[k_lo:k_hi] = k_part
            v_full[h_lo:h_hi] = v_part
        k_full.flags.writeable = False
        v_full.flags.writeable = False
        return k_full, v_full


class ShardGroup:
    """Run the fused ragged kernel shard-by-shard and combine exactly.

    Each shard worker gets its head slice of the queries and frozen
    scales plus its own slice arena, and its own
    :class:`~repro.core.pruning.KernelScratch` (modelled workers do not
    share SRAM).  The combine concatenates every per-head array back in
    shard-index order — a fixed reduction order, so the assembled
    :class:`~repro.core.pruning.RaggedPickerResult` is bit-identical to
    one unsharded kernel call on the full arena.
    """

    def __init__(self, pool: ShardedKVPool, quant: QuantConfig) -> None:
        self.pool = pool
        self.quant = quant
        self._scratches = [KernelScratch() for _ in pool.slices]

    @property
    def n_shards(self) -> int:
        return self.pool.n_shards

    @property
    def head_ranges(self) -> List[Tuple[int, int]]:
        return self.pool.head_ranges

    def run(
        self,
        qs: np.ndarray,
        q_scales: np.ndarray,
        k_scales: np.ndarray,
        segments: np.ndarray,
        config: TokenPickerConfig,
        phase_times: Optional[Dict[str, float]] = None,
    ) -> RaggedPickerResult:
        """K slice-kernel calls + deterministic combine (see class doc)."""
        shard_results = []
        for s, (pool, scratch) in enumerate(
            zip(self.pool.slices, self._scratches)
        ):
            h_lo, h_hi = self.pool.head_ranges[s]
            shard_results.append(
                token_picker_attention_ragged(
                    qs[:, h_lo:h_hi],
                    config,
                    q_scales=q_scales[:, h_lo:h_hi],
                    k_scales=k_scales[:, h_lo:h_hi],
                    k_plane_arena=pool.k_arena,
                    v_arena=pool.v_arena,
                    segments=segments,
                    scratch=scratch,
                    phase_times=phase_times,
                )
            )
        return self._combine(shard_results)

    @staticmethod
    def _combine(
        shard_results: List[RaggedPickerResult],
    ) -> RaggedPickerResult:
        first = shard_results[0]
        if len(shard_results) == 1:
            return first
        results: List[BatchedPickerResult] = []
        for i in range(len(first.results)):
            parts = [sr.results[i] for sr in shard_results]
            lead = parts[0]
            results.append(
                BatchedPickerResult(
                    kept=np.concatenate([p.kept for p in parts], axis=0),
                    chunks_fetched=np.concatenate(
                        [p.chunks_fetched for p in parts], axis=0
                    ),
                    scores=np.concatenate(
                        [p.scores for p in parts], axis=0
                    ),
                    probs=np.concatenate([p.probs for p in parts], axis=0),
                    outputs=(
                        np.concatenate(
                            [p.outputs for p in parts], axis=0
                        )
                        if lead.outputs is not None
                        else None
                    ),
                    log_denominators=np.concatenate(
                        [p.log_denominators for p in parts]
                    ),
                    quant=lead.quant,
                    head_dim=lead.head_dim,
                )
            )
        round_alive = None
        if first.round_alive is not None:
            # alive pairs are disjoint across head slices: sum elementwise
            round_alive = np.sum(
                [sr.round_alive for sr in shard_results], axis=0
            )
        return RaggedPickerResult(
            results=results,
            lengths=first.lengths,
            round_alive=round_alive,
        )

    def step_views(
        self, results: Sequence[BatchedPickerResult]
    ) -> List[ShardStepView]:
        """Per-shard interconnect/traffic telemetry from a step's *final*
        per-sequence results (post tier-repair), sliced by head range —
        computed once per step so tier reruns are not double-counted."""
        quant = self.quant
        d = self.pool.head_dim
        views: List[ShardStepView] = []
        for s, (h_lo, h_hi) in enumerate(self.pool.head_ranges):
            kept_pairs = 0
            total_pairs = 0
            seq_bits: List[int] = []
            seq_baseline_bits: List[int] = []
            for result in results:
                kept = result.kept[h_lo:h_hi]
                chunks = result.chunks_fetched[h_lo:h_hi]
                pairs = kept.size
                n_kept = int(kept.sum())
                kept_pairs += n_kept
                total_pairs += pairs
                seq_bits.append(
                    int(chunks.sum()) * d * quant.chunk_bits
                    + n_kept * d * quant.total_bits
                )
                seq_baseline_bits.append(2 * pairs * d * quant.total_bits)
            views.append(
                ShardStepView(
                    shard=s,
                    head_range=(h_lo, h_hi),
                    kept_pairs=kept_pairs,
                    total_pairs=total_pairs,
                    allgather_bits=kept_pairs * d * quant.total_bits,
                    baseline_allgather_bits=(
                        total_pairs * d * quant.total_bits
                    ),
                    seq_bits=tuple(seq_bits),
                    seq_baseline_bits=tuple(seq_baseline_bits),
                )
            )
        return views
