"""Streaming decode-session API with prompt-phase scale calibration.

The functional entry points quantize with per-call oracle scales (the max
|value| of the tensors they are handed).  Real hardware cannot rescan the
whole KV cache every step: scales are fixed when the prompt phase loads
K/V on-chip (Sec. 4) and reused for every generated token.
:class:`TokenPickerSession` models that deployment for a *single* sequence
whose KV cache the caller owns:

* :meth:`observe_prompt` calibrates per-head Q/K/V scales from the prompt
  (widened by a safety factor for headroom),
* :meth:`step` runs certified pruning for one decode step with the frozen
  scales, accumulating traffic statistics across the whole generation,
* values outside the calibrated range saturate, and the session counts
  those clip events across the full Q/K/V saturation path — the
  observable that tells a deployment its calibration window was too
  narrow.

A session is three calls: :func:`~repro.serving.kv_pool.freeze_scales`
at calibration, then :func:`~repro.serving.kv_pool.count_clips` and the
rectangular reference kernel
:func:`~repro.core.pruning.token_picker_attention_batched` with the
frozen scales every step.  It shares the scale-freezing rule with the
serving engine and nothing else, which is what makes it an independent
replay oracle for the engine's fused arena kernel.  Multi-sequence
deployments should use :class:`repro.serving.engine.ServingEngine` — one
fused step across all sequences, and a cache that is encoded once
instead of re-quantized per step.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.config import TokenPickerConfig
from repro.core.pruning import BatchedPickerResult, token_picker_attention_batched
from repro.model.attention import AccessCounter
from repro.serving.kv_pool import SequenceScales, count_clips, freeze_scales

#: Back-compat alias: frozen per-head quantization scales (set at prompt
#: time).  The canonical definition lives with the KV pool, which freezes
#: one per pooled sequence.
SessionScales = SequenceScales


class TokenPickerSession:
    """Per-sequence streaming state for generation-phase pruning."""

    def __init__(
        self,
        config: Optional[TokenPickerConfig] = None,
        safety_factor: float = 1.25,
    ) -> None:
        if safety_factor < 1.0:
            raise ValueError("safety_factor must be >= 1 (headroom only)")
        config = config or TokenPickerConfig()
        if config.schedule != "breadth":
            raise ValueError("sessions use the breadth schedule (hardware order)")
        self.config = config
        self.safety_factor = safety_factor
        #: accumulated K/V traffic of this sequence, in bits — the same
        #: object for the session's whole lifetime, so callers may hold a
        #: reference across :meth:`observe_prompt` recalibrations
        self.counter = AccessCounter()
        #: elements that saturated against the frozen calibration window
        #: across the full Q/K/V fetch path
        self.clip_events = 0
        self.scales: Optional[SessionScales] = None
        self.steps = 0

    # ------------------------------------------------------------ calibration
    def observe_prompt(
        self, keys: np.ndarray, values: np.ndarray, queries: Optional[np.ndarray] = None
    ) -> SessionScales:
        """Fix per-head scales from the prompt-phase tensors.

        ``keys``/``values``: (H, t, d); ``queries``: optional (H, t, d) —
        when absent, K statistics stand in for Q (they share the residual
        stream's magnitude at calibration quality).  Calling it again
        recalibrates; traffic and clip statistics keep accumulating.
        """
        self.scales = freeze_scales(
            keys, values, self.config.quant, self.safety_factor, queries=queries
        )
        return self.scales

    # ------------------------------------------------------------------ decode
    def step(
        self,
        q: np.ndarray,
        keys: np.ndarray,
        values: np.ndarray,
        score_bias: Optional[np.ndarray] = None,
    ) -> BatchedPickerResult:
        """Pruned attention for one decode step with the frozen scales.

        ``q``: (H, d); ``keys``/``values``: (H, t, d).  Requires
        :meth:`observe_prompt` first.  Clip events are counted over the
        *full* provided tensors: the caller re-supplies the whole cache,
        so the whole cache is checked against the frozen window.
        """
        scales = self.scales
        if scales is None:
            raise RuntimeError("call observe_prompt before step")
        q, keys, values = (
            np.asarray(x, dtype=np.float64) for x in (q, keys, values)
        )
        for x, scale in (
            (q, scales.q_scale), (keys, scales.k_scale), (values, scales.v_scale)
        ):
            self.clip_events += count_clips(x, scale, self.config.quant)
        result = token_picker_attention_batched(
            q,
            keys,
            values,
            self.config,
            score_bias=score_bias,
            q_scales=scales.q_scale,
            k_scales=scales.k_scale,
            v_scales=scales.v_scale,
        )
        self.counter.add(result.stats(), instances=q.shape[0])
        self.steps += 1
        return result

    # -------------------------------------------------------------- accounting
    @property
    def clip_rate(self) -> float:
        """Clipped elements per token seen (calibration-quality signal)."""
        if self.counter.tokens_seen == 0:
            return 0.0
        return self.clip_events / self.counter.tokens_seen
