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

_LAZY = {
    "token_picker_attention_batched": "repro.core.pruning",
    "token_picker_attention_ragged": "repro.core.pruning",
    "QuantConfig": "repro.core.config",
    "TokenPickerConfig": "repro.core.config",
    "exact_attention": "repro.core.attention",
    "exact_attention_probs": "repro.core.attention",
    "margin_pairs": "repro.core.margins",
    "pruning_error": "repro.core.attention",
    "quantize": "repro.core.quantization",
    "score_bounds": "repro.core.margins",
    "token_picker_attention": "repro.core.pruning",
    "token_picker_scores": "repro.core.pruning",
}
__all__ = list(_LAZY)


def __getattr__(name):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module), name)
