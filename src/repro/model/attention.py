"""Attention backends for generation-phase evaluation.

A backend is a callable ``(layer, q (H, dh), keys (H, t, dh),
values (H, t, dh)) -> (H, dh)`` plugged into
:meth:`repro.model.transformer.TinyGPT.decode_step`.  Each backend records
the off-chip traffic it would generate, in bits, so perplexity and memory
accounting come from the *same* run:

* :class:`ExactAttentionBackend` — the baseline: all K and V fetched.
* :class:`TokenPickerBackend` — the paper's method (breadth schedule,
  vectorised over heads).

Fig. 10's estimation-only design point is the ``v_only`` variant of
:class:`repro.hw.accelerator.ToPickAccelerator`, and Fig. 9's SpAtten
baseline is :mod:`repro.hw.spatten`.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from repro.core.config import QuantConfig, TokenPickerConfig
from repro.core.pruning import AccessCounter, token_picker_attention_batched


def _exact_heads(q: np.ndarray, keys: np.ndarray, values: np.ndarray,
                 bias: Optional[np.ndarray] = None) -> np.ndarray:
    scores = np.einsum("htd,hd->ht", keys, q) / math.sqrt(q.shape[-1])
    if bias is not None:
        scores = scores + bias
    m = scores.max(axis=1, keepdims=True)
    e = np.exp(scores - m)
    probs = e / e.sum(axis=1, keepdims=True)
    return np.einsum("ht,htd->hd", probs, values)


class ExactAttentionBackend:
    """Baseline: exact attention; every K and V vector is fetched."""

    def __init__(self, quant: Optional[QuantConfig] = None) -> None:
        self.quant = quant or QuantConfig()
        self.counter = AccessCounter()

    def __call__(self, layer: int, q, keys, values, bias=None) -> np.ndarray:
        h, t, dh = keys.shape
        bits = h * t * dh * self.quant.total_bits
        c = self.counter
        c.k_bits += bits
        c.v_bits += bits
        c.baseline_k_bits += bits
        c.baseline_v_bits += bits
        c.instances += h
        c.tokens_seen += h * t
        c.tokens_kept += h * t
        return _exact_heads(q, keys, values, bias)


class TokenPickerBackend:
    """The paper's method as a drop-in attention backend."""

    def __init__(self, config: Optional[TokenPickerConfig] = None) -> None:
        self.config = config or TokenPickerConfig()
        if self.config.schedule != "breadth":
            raise ValueError("the batched backend requires the breadth schedule")
        self.counter = AccessCounter()

    def __call__(self, layer: int, q, keys, values, bias=None) -> np.ndarray:
        result = token_picker_attention_batched(
            q, keys, values, self.config, score_bias=bias
        )
        self.counter.add(result.stats(), instances=keys.shape[0])
        return result.outputs
