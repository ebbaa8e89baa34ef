"""Head-sharded model parallelism: split the KV arena's heads across workers.

The cluster layer's replicas are pure data parallelism — N independent
engines.  This module adds the orthogonal axis, Megatron-style **tensor
parallelism over attention heads**: one engine's ``(H, C, T_cap, d)``
chunk-digit planes and V-code rows are partitioned head-wise across K
modelled shard workers.  Each worker owns a contiguous head range of
the engine's one full-width :class:`~repro.serving.kv_pool.KVCachePool`
— because K is stored head-major, that range is the leading-axis
slice ``k_arena[h0:h1]`` — and the per-head kept-token partial outputs
are combined by a modelled **all-gather** whose byte count is
proportional to *kept* (head, token) pairs — so Token-Picker's Eq. 5
certified pruning directly shrinks the interconnect traffic, the
cluster-scale analogue of the paper's DRAM-transfer reduction (a result
the DAC'24 paper never measured).

A worker is a pricing view, not a second kernel call: the ragged kernel
computes every per-head quantity (log denominators, alive masks, prune
predicates, grouped softmax, outputs) with no cross-head coupling, so K
calls on disjoint head slices would reproduce one full-width call's
arrays bit for bit.  The engine therefore makes that one call, and each
worker exists only as its head range in :meth:`ShardGroup.step_views`.
Storage is shared, so the arena, its block bookkeeping and the swap /
tier / failover row format are the unsharded engine's by construction.
``tests/test_shard.py`` sweeps sharded ≡ unsharded across K, uneven
head splits, preemption and tiering.

Pieces:

* :func:`partition_heads` — contiguous head ranges, remainder spread
  over the leading shards (``H % K != 0`` is fine).
* :class:`ShardGroup` — the step's one kernel call on the pool's arena
  (:meth:`ShardGroup.run`) and each worker's interconnect telemetry
  (:class:`ShardStepView`) sliced by head range from the step's final
  per-sequence results (:meth:`ShardGroup.step_views`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from repro.core.config import TokenPickerConfig
from repro.core.pruning import (
    RaggedPickerResult,
    RaggedSequenceResult,
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
    """K modelled head-shard workers over one pool.

    Shard ``s`` owns heads ``head_ranges[s] = [h0, h1)`` of the engine's
    one full-width pool.  :meth:`run` is the step's single kernel call on
    the whole arena — bit-identical to K calls on the views
    ``pool.k_arena[h0:h1]`` / ``pool.v_arena[:, h0:h1]`` concatenated in
    shard order, because no per-head quantity couples heads — and
    :meth:`step_views` slices its results back into per-worker telemetry.
    """

    def __init__(self, pool: KVCachePool, n_shards: int) -> None:
        self.pool = pool
        self.head_ranges = partition_heads(pool.n_heads, n_shards)

    def run(
        self, qs: np.ndarray, config: TokenPickerConfig, **kernel_kw
    ) -> RaggedPickerResult:
        """One full-width :func:`token_picker_attention_ragged` call on
        the pool's arena; ``kernel_kw`` carries the rest of its keyword
        arguments (q/k/v scales, segments, scratch, phase times)."""
        return token_picker_attention_ragged(
            qs,
            config,
            k_plane_arena=self.pool.k_arena,
            v_arena=self.pool.v_arena,
            **kernel_kw,
        )

    def step_views(
        self, results: Sequence[RaggedSequenceResult]
    ) -> List[ShardStepView]:
        """Per-shard interconnect/traffic telemetry from a step's
        per-sequence results, summed by head range from their per-head
        kept and chunk counts — computed once per step."""
        quant = self.pool.quant
        d = self.pool.head_dim
        starts = [lo for lo, _ in self.head_ranges]
        widths = np.array([hi - lo for lo, hi in self.head_ranges])
        # (S, K) kept pairs, fetched chunks and pairs per sequence and shard
        per_head = np.array(
            [(r.kept_per_head, r.chunks_per_head) for r in results]
        ).reshape(-1, 2, self.pool.n_heads)
        per_shard = np.add.reduceat(per_head, starts, axis=2)
        kept, chunks = per_shard[:, 0], per_shard[:, 1]
        pairs = np.outer([r.n_tokens for r in results], widths)
        seq_bits = (chunks * quant.chunk_bits + kept * quant.total_bits) * d
        seq_baseline_bits = 2 * pairs * d * quant.total_bits
        views: List[ShardStepView] = []
        for s, head_range in enumerate(self.head_ranges):
            kept_pairs = int(kept[:, s].sum())
            total_pairs = int(pairs[:, s].sum())
            views.append(
                ShardStepView(
                    shard=s,
                    head_range=head_range,
                    kept_pairs=kept_pairs,
                    total_pairs=total_pairs,
                    allgather_bits=kept_pairs * d * quant.total_bits,
                    baseline_allgather_bits=(
                        total_pairs * d * quant.total_bits
                    ),
                    seq_bits=tuple(seq_bits[:, s].tolist()),
                    seq_baseline_bits=tuple(
                        seq_baseline_bits[:, s].tolist()
                    ),
                )
            )
        return views
