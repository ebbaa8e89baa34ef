"""Head-sharded model parallelism: split the KV arena's heads across workers.

The cluster layer's replicas are pure data parallelism — N independent
engines.  This module adds the orthogonal axis, Megatron-style **tensor
parallelism over attention heads**: one engine's ``(H, C, T_cap, d)``
chunk-digit planes and deq-V rows are partitioned head-wise across K
modelled shard workers.  Each worker owns a contiguous head range of
the engine's one full-width :class:`~repro.serving.kv_pool.KVCachePool`
— because K is stored head-major, that range is the leading-axis
slice ``k_arena[h0:h1]`` — and runs the fused ragged kernel on views of
it; the per-head kept-token partial outputs are then combined by a
modelled **all-gather** whose byte count is proportional to *kept*
(head, token) pairs — so Token-Picker's Eq. 5 certified pruning directly
shrinks the interconnect traffic, the cluster-scale analogue of the
paper's DRAM-transfer reduction (a result the DAC'24 paper never
measured).

Bit-identity is structural, not approximate: the ragged kernel computes
every per-head quantity (log denominators, alive masks, prune
predicates, grouped softmax, outputs) with no cross-head coupling, so K
kernel calls on disjoint head slices, concatenated back in shard-index
order (a fixed, deterministic reduction order), reproduce the unsharded
call's arrays bit for bit.  Storage is shared, so the arena, its block
bookkeeping and the swap / tier / failover row format are the unsharded
engine's by construction.  ``tests/test_shard.py`` sweeps this property
across K, uneven head splits, preemption and tiering.

Pieces:

* :func:`partition_heads` — contiguous head ranges, remainder spread
  over the leading shards (``H % K != 0`` is fine).
* :class:`ShardGroup` — runs the K kernel calls on head slices of one
  pool and the deterministic combine; :meth:`ShardGroup.step_views`
  derives each shard's interconnect telemetry (:class:`ShardStepView`)
  from the step's final per-sequence results.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.config import TokenPickerConfig
from repro.core.pruning import (
    BatchedPickerResult,
    KernelScratch,
    RaggedPickerResult,
    token_picker_attention_ragged,
)
from repro.serving.kv_pool import KVCachePool


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


class ShardedKVPool(KVCachePool):
    """A sharded engine's pool is a plain :class:`KVCachePool`.

    No body: shard workers own head slices of the one arena, not pools.
    The name stays because the benchmark's span recorder
    (``benchmarks/e2e/e2e_spans.py``) lists it among its targets; it
    skips inherited methods, so nothing is wrapped twice.
    """


class ShardGroup:
    """Run the fused ragged kernel shard-by-shard and combine exactly.

    Shard ``s`` owns heads ``head_ranges[s] = [h0, h1)`` of the engine's
    one full-width pool.  Its kernel call reads the views
    ``pool.k_arena[h0:h1]`` (a leading-axis slice of the chunk-major
    planes, still one contiguous ``(T_cap, d)`` plane per head and
    chunk) and ``pool.v_arena[:, h0:h1]`` — no copies — with its head
    slice of the queries and frozen scales and its own
    :class:`~repro.core.pruning.KernelScratch` (modelled workers do not
    share SRAM).  The combine concatenates every per-head array back in
    shard-index order — a fixed reduction order, so the assembled
    :class:`~repro.core.pruning.RaggedPickerResult` is bit-identical to
    one unsharded kernel call on the full arena.
    """

    def __init__(self, pool: KVCachePool, n_shards: int) -> None:
        self.pool = pool
        self.head_ranges = partition_heads(pool.n_heads, n_shards)
        self._scratches = [KernelScratch() for _ in self.head_ranges]

    def run(
        self,
        qs: np.ndarray,
        q_scales: np.ndarray,
        k_scales: np.ndarray,
        segments: np.ndarray,
        config: TokenPickerConfig,
        phase_times: Optional[Dict[str, float]] = None,
    ) -> RaggedPickerResult:
        """K head-slice kernel calls + deterministic combine (see class
        doc)."""
        k_arena, v_arena = self.pool.k_arena, self.pool.v_arena
        shard_results = [
            token_picker_attention_ragged(
                qs[:, h_lo:h_hi],
                config,
                q_scales=q_scales[:, h_lo:h_hi],
                k_scales=k_scales[:, h_lo:h_hi],
                k_plane_arena=k_arena[h_lo:h_hi],
                v_arena=v_arena[:, h_lo:h_hi],
                segments=segments,
                scratch=scratch,
                phase_times=phase_times,
            )
            for (h_lo, h_hi), scratch in zip(
                self.head_ranges, self._scratches
            )
        ]
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
        quant = self.pool.quant
        d = self.pool.head_dim
        views: List[ShardStepView] = []
        for s, (h_lo, h_hi) in enumerate(self.head_ranges):
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
