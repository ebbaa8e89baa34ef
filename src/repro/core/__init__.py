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
    ApproximationError,
    dominant_token_count,
    exact_attention,
    exact_attention_probs,
    pruning_error,
)
from repro.core.config import (
    PRESET_PPL_BUDGETS,
    QuantConfig,
    TokenPickerConfig,
)
from repro.core.estimator import (
    DenominatorAggregator,
    PruneRule,
    certified_upper_bounds,
    true_probabilities,
)
from repro.core.margins import MarginPairs, margin_pairs, margin_pairs_batch, score_bounds
from repro.core.ooo import OoOConfig, OoOResult, OutOfOrderEngine
from repro.core.ordering import order_rank, processing_order
from repro.core.pruning import (
    BatchedPickerResult,
    PruneStats,
    RaggedPickerResult,
    TokenPickerResult,
    token_picker_attention,
    token_picker_attention_batched,
    token_picker_attention_ragged,
    token_picker_scores,
)
from repro.core.quantization import (
    QuantizedTensor,
    assemble_from_chunks,
    chunk_plane_values,
    compute_scale,
    dequantize,
    partial_values,
    quantize,
    split_chunks,
)
from repro.core.thresholds import (
    CalibrationResult,
    calibrate_presets,
    calibrate_threshold,
    scale_threshold_for_context,
)
from repro.core.session import SessionScales, TokenPickerSession
from repro.core.verification import (
    CertificateViolation,
    VerificationReport,
    verify_result,
)

__all__ = [
    "ApproximationError",
    "SessionScales",
    "TokenPickerSession",
    "CertificateViolation",
    "VerificationReport",
    "scale_threshold_for_context",
    "verify_result",
    "BatchedPickerResult",
    "RaggedPickerResult",
    "token_picker_attention_batched",
    "token_picker_attention_ragged",
    "CalibrationResult",
    "DenominatorAggregator",
    "MarginPairs",
    "OoOConfig",
    "OoOResult",
    "OutOfOrderEngine",
    "PRESET_PPL_BUDGETS",
    "PruneRule",
    "PruneStats",
    "QuantConfig",
    "QuantizedTensor",
    "TokenPickerConfig",
    "TokenPickerResult",
    "assemble_from_chunks",
    "calibrate_presets",
    "calibrate_threshold",
    "certified_upper_bounds",
    "chunk_plane_values",
    "compute_scale",
    "dequantize",
    "dominant_token_count",
    "exact_attention",
    "exact_attention_probs",
    "margin_pairs",
    "margin_pairs_batch",
    "order_rank",
    "partial_values",
    "processing_order",
    "pruning_error",
    "quantize",
    "score_bounds",
    "split_chunks",
    "token_picker_attention",
    "token_picker_scores",
    "true_probabilities",
]
