"""Batched-serving model: ties Fig. 2's motivation to Fig. 10's result.

The paper's argument chain: batching amortises the weights (Fig. 2), which
makes the *per-sequence* KV traffic the bottleneck, which is what ToPick
attacks (Figs. 8/10).  This module closes the loop quantitatively: a decode
step at batch B moves

    weights + embeddings            (shared, once)
    + B x KV traffic                (private per sequence)

and the end-to-end step speedup from ToPick is therefore

    speedup(B) = (shared + B*kv) / (shared + B*kv/r)

where ``r`` is the attention-level access reduction.  As B grows the
speedup approaches ``r``; at B=1 it is marginal — exactly why the paper
evaluates the attention engine in a batched-serving context.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.core.pruning import PruneStats
from repro.eval.memory_model import step_memory_breakdown
from repro.model.config import ModelConfig


@dataclass(frozen=True)
class BatchScalingPoint:
    """End-to-end decode-step traffic at one batch size."""

    batch_size: int
    shared_bytes: int
    kv_bytes: int
    kv_bytes_pruned: float

    @property
    def total_bytes(self) -> float:
        return self.shared_bytes + self.kv_bytes

    @property
    def total_bytes_pruned(self) -> float:
        return self.shared_bytes + self.kv_bytes_pruned

    @property
    def step_speedup(self) -> float:
        """Traffic-limited end-to-end speedup of the decode step."""
        return self.total_bytes / self.total_bytes_pruned

    @property
    def kv_fraction(self) -> float:
        return self.kv_bytes / self.total_bytes


def measured_batch_point(
    config: ModelConfig,
    per_sequence_stats: Sequence[PruneStats],
    context_length: Optional[int] = None,
    engine_heads: Optional[int] = None,
) -> BatchScalingPoint:
    """A scaling point from *measured* per-sequence serving-engine traffic.

    Takes the real per-sequence accounting of a fused engine step (one
    :class:`PruneStats` per active sequence) and sums each sequence's
    actual baseline and fetched KV bits — the ragged, instance-dependent
    traffic the paper's Fig. 3 argues one uniform reduction ratio cannot
    capture.  Engine stats cover one layer's heads; they are scaled by
    ``config.n_layers`` and, when ``engine_heads`` is given, by
    ``config.n_heads / engine_heads``.
    """
    if not per_sequence_stats:
        raise ValueError("need at least one sequence's stats")
    if engine_heads is not None and engine_heads < 1:
        raise ValueError("engine_heads must be >= 1")
    batch = len(per_sequence_stats)
    bd = step_memory_breakdown(config, batch, context_length)
    scale = config.n_layers * (
        config.n_heads / engine_heads if engine_heads is not None else 1.0
    )
    baseline_bits = sum(s.baseline_total_bits for s in per_sequence_stats)
    fetched_bits = sum(s.total_bits_fetched for s in per_sequence_stats)
    return BatchScalingPoint(
        batch_size=batch,
        shared_bytes=bd.weight_bytes + bd.embedding_bytes,
        kv_bytes=int(round(baseline_bits * scale / 8)),
        kv_bytes_pruned=fetched_bits * scale / 8,
    )
