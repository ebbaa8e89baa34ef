"""SpAtten comparator (Wang et al., HPCA 2021) — functional model.

The paper compares against SpAtten's **cascade token pruning** with
**local value pruning** (Fig. 9).  The mechanism, as described in both
papers:

* Each token accumulates an *importance score* — the attention probability
  mass it has received so far (across heads, layers and generation steps).
* At each layer a pre-defined **keep ratio** retains only the
  highest-importance tokens; pruning *cascades*: a token removed at layer
  ``l`` is gone for all deeper layers **and all later generation steps**
  (its KV entries are never fetched again).
* Local value pruning: of the kept tokens, only the pre-defined fraction
  with the largest probabilities have their V vectors fetched.

Because the ratios are fixed per layer rather than per instance, SpAtten
must be tuned to the *worst-case* number of important tokens — the exact
mismatch Fig. 3 illustrates — and reaches high ratios only with
fine-tuning (SpAtten* in Fig. 9).

The entry point is :func:`spatten_generation_accesses`: closed-form
K/V byte counts for a prompt-``a`` / end-``b`` generation run (the
Fig. 9 sweep).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.core.config import QuantConfig


@dataclass(frozen=True)
class SpAttenConfig:
    """Keep-ratio schedule and number format.

    ``final_keep_ratio`` is the token fraction retained at the deepest
    layer; the schedule decays linearly from 1.0 at layer 0 (SpAtten's
    cascade becomes more aggressive with depth).  ``v_keep_ratio`` is the
    local value-pruning fraction (relative to the kept tokens).

    ``evidence_window`` models the accumulation the importance ranking
    needs: a token only becomes *prunable* once roughly that many queries
    have attended to it (its cumulative-probability score is meaningful).
    Prompt tokens bank ``prompt_len`` queries instantly during the prompt
    phase, which is why SpAtten's savings grow with prompt length and run
    length (the Fig. 9 trend).
    """

    n_layers: int
    final_keep_ratio: float = 0.5
    v_keep_ratio: float = 0.8
    evidence_window: int = 224
    #: Cascade *head* pruning: once enough queries have been processed
    #: (``head_evidence_window``), a fixed fraction of heads is removed
    #: entirely, cutting K and V proportionally.  This is the component
    #: the paper credits for SpAtten's strong K reduction at long prompts.
    head_keep_ratio: float = 1.0
    head_evidence_window: int = 512
    quant: QuantConfig = field(default_factory=QuantConfig)

    def __post_init__(self) -> None:
        if self.n_layers < 1:
            raise ValueError("n_layers must be >= 1")
        if not 0 < self.final_keep_ratio <= 1:
            raise ValueError("final_keep_ratio must be in (0, 1]")
        if not 0 < self.v_keep_ratio <= 1:
            raise ValueError("v_keep_ratio must be in (0, 1]")
        if self.evidence_window < 1:
            raise ValueError("evidence_window must be >= 1")
        if not 0 < self.head_keep_ratio <= 1:
            raise ValueError("head_keep_ratio must be in (0, 1]")
        if self.head_evidence_window < 1:
            raise ValueError("head_evidence_window must be >= 1")

    def keep_ratio(self, layer: int) -> float:
        """Linearly decaying per-layer keep ratio (1.0 at the first layer)."""
        if not 0 <= layer < self.n_layers:
            raise ValueError(f"layer {layer} out of range")
        if self.n_layers == 1:
            return self.final_keep_ratio
        frac = layer / (self.n_layers - 1)
        return 1.0 - frac * (1.0 - self.final_keep_ratio)


@dataclass(frozen=True)
class GenerationAccesses:
    """K/V bytes moved during a prompt-a to end-b generation run."""

    k_bytes: float
    v_bytes: float

    @property
    def total(self) -> float:
        return self.k_bytes + self.v_bytes


def baseline_generation_accesses(
    prompt_len: int,
    end_len: int,
    n_layers: int,
    n_heads: int,
    head_dim: int,
    quant: QuantConfig = QuantConfig(),
) -> GenerationAccesses:
    """All K and V fetched for every cached token at every decode step."""
    if not 0 < prompt_len < end_len:
        raise ValueError("need 0 < prompt_len < end_len")
    word_bytes = head_dim * quant.total_bits / 8
    tokens_visited = sum(range(prompt_len, end_len))  # t at each step
    per_step = n_layers * n_heads * word_bytes
    return GenerationAccesses(
        k_bytes=tokens_visited * per_step, v_bytes=tokens_visited * per_step
    )


def spatten_generation_accesses(
    prompt_len: int,
    end_len: int,
    config: SpAttenConfig,
    n_heads: int,
    head_dim: int,
) -> GenerationAccesses:
    """Closed-form SpAtten access model over a generation run.

    The cascade makes the *cache itself* shrink: by the deepest layer only
    ``final_keep_ratio`` of tokens survive, and pruned tokens are skipped
    in every later step.  The per-step alive count therefore converges to
    the final ratio; K access at layer ``l`` touches
    ``keep_ratio(l) x alive`` tokens and V access the local fraction of
    those.
    """
    if not 0 < prompt_len < end_len:
        raise ValueError("need 0 < prompt_len < end_len")
    word_bytes = head_dim * config.quant.total_bits / 8
    k_bytes = 0.0
    v_bytes = 0.0
    layer_ratios = [config.keep_ratio(l) for l in range(config.n_layers)]
    final = config.final_keep_ratio
    window = config.evidence_window
    for t in range(prompt_len, end_len):
        # A token at position i has received ~(t - i) queries of evidence
        # (prompt tokens bank the whole prompt phase at once), so tokens
        # with i <= t - window are mature (cascaded down to the final
        # ratio) while the most recent `window` positions are still
        # un-prunable.  The alive cache is therefore:
        mature = max(0, t - window)
        fresh = min(window, t)
        # cascade head pruning activates once the head-importance ranking
        # has seen enough queries (prompt queries bank instantly)
        heads = n_heads * (
            config.head_keep_ratio if t >= config.head_evidence_window else 1.0
        )
        for r in layer_ratios:
            # the per-layer cascade ratio applies to mature tokens only;
            # tokens still accumulating evidence cannot be ranked out
            touched = min(float(t), fresh + r * mature)
            k_bytes += touched * heads * word_bytes
            v_bytes += math.ceil(config.v_keep_ratio * touched) * heads * word_bytes
    return GenerationAccesses(k_bytes=k_bytes, v_bytes=v_bytes)


def topick_generation_accesses(
    prompt_len: int,
    end_len: int,
    n_layers: int,
    n_heads: int,
    head_dim: int,
    keep_fraction: float,
    mean_chunks: float,
    quant: QuantConfig = QuantConfig(),
) -> GenerationAccesses:
    """Token-Picker access model from measured per-instance fractions.

    ``keep_fraction`` (V vectors fetched / tokens) and ``mean_chunks``
    (average K chunks fetched per token, in [1, n_chunks]) come from the
    functional algorithm on matched workloads; this routine turns them
    into run-level byte counts for the Fig. 9 sweep.
    """
    if not 0 < prompt_len < end_len:
        raise ValueError("need 0 < prompt_len < end_len")
    if not 0 < keep_fraction <= 1:
        raise ValueError("keep_fraction must be in (0, 1]")
    if not 1 <= mean_chunks <= quant.n_chunks:
        raise ValueError(f"mean_chunks must be in [1, {quant.n_chunks}]")
    word_bytes = head_dim * quant.total_bits / 8
    chunk_bytes = head_dim * quant.chunk_bits / 8
    tokens_visited = sum(range(prompt_len, end_len))
    per_head = n_layers * n_heads
    return GenerationAccesses(
        k_bytes=tokens_visited * per_head * mean_chunks * chunk_bytes,
        v_bytes=tokens_visited * per_head * keep_fraction * word_bytes,
    )
