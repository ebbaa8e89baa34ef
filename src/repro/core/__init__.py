"""Token-Picker core: the paper's primary contribution.

Public surface:

* :class:`~repro.core.config.QuantConfig`,
  :class:`~repro.core.config.TokenPickerConfig` — formats and policy.
* :func:`~repro.core.pruning.token_picker_attention` — pruned attention for
  one (q, K, V) instance with certified safety and access accounting;
  its ``breadth`` schedule is a one-head call into the batched kernel.
* :func:`~repro.core.pruning.token_picker_scores` — step 0 only.
* :func:`~repro.core.pruning.token_picker_attention_batched` — the breadth
  reference over heads; :func:`~repro.core.pruning.token_picker_attention_ragged`
  is its fused multi-sequence form, bit-identical per sequence.
* :class:`~repro.core.ooo.OutOfOrderEngine` — the latency-aware scheduler.
* :func:`~repro.core.thresholds.calibrate_threshold` — quality-budget
  threshold search.
"""

from repro.core.attention import (
    exact_attention,
    exact_attention_probs,
    pruning_error,
)
from repro.core.config import QuantConfig, TokenPickerConfig
from repro.core.margins import margin_pairs, score_bounds
from repro.core.pruning import (
    token_picker_attention,
    token_picker_attention_batched,
    token_picker_attention_ragged,
    token_picker_scores,
)
from repro.core.quantization import quantize

__all__ = [
    "token_picker_attention_batched",
    "token_picker_attention_ragged",
    "QuantConfig",
    "TokenPickerConfig",
    "exact_attention",
    "exact_attention_probs",
    "margin_pairs",
    "pruning_error",
    "quantize",
    "score_bounds",
    "token_picker_attention",
    "token_picker_scores",
]
