"""The Token-Picker algorithm (Sec. 3): certified token pruning.

Two functionally-equivalent schedules are provided:

* ``depth`` — the sequential reference: tokens are examined one at a time in
  the configured processing order; each token's chunks are fetched until it
  is either pruned or fully known.  Mirrors a blocking (in-order) pipeline
  and is the easiest implementation to audit.
* ``breadth`` — chunk *rounds* across all tokens: round 1 evaluates chunk 0
  of every token (every first chunk must be fetched regardless), survivors
  proceed to round 2, and so on.  This is the steady-state order the
  out-of-order hardware converges to under uniform DRAM latency.  It has
  one reference implementation, :func:`token_picker_attention_batched`
  (vectorised over heads): the single-instance API runs it as a one-head
  call, and the fused arena kernel :func:`token_picker_attention_ragged`
  is tested against it bit for bit.  Both run one round step,
  :func:`_dense_round` (bounds, the :func:`_log_denominators` fold, the
  Eq. 5 predicate); the reference keeps its own quantisation from float
  K, an exact int64 score table for every token and dense V.

Both satisfy the safety property (tested exhaustively): every pruned
token's *true* softmax probability is at most ``thr``.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from repro.core.config import QuantConfig, TokenPickerConfig
from repro.core.estimator import DenominatorAggregator, PruneRule
from repro.core.margins import margin_pairs, margin_pairs_batch, score_bounds
from repro.core.ordering import processing_order
from repro.core.quantization import chunk_plane_values, compute_scale, quantize
from repro.utils.numerics import softmax


@dataclass(frozen=True)
class PruneStats:
    """Memory-access accounting for one attention instance.

    Bits are counted for the K/V *fetch path* only (the quantity the paper's
    Figs. 8-9 normalise): K is streamed in ``chunk_bits`` slices, V in full
    ``total_bits`` words, both over ``head_dim`` elements per token.
    """

    n_tokens: int
    n_kept: int
    k_chunks_fetched: int
    v_vectors_fetched: int
    head_dim: int
    quant: QuantConfig

    @property
    def n_pruned(self) -> int:
        return self.n_tokens - self.n_kept

    @property
    def k_bits_fetched(self) -> int:
        return self.k_chunks_fetched * self.head_dim * self.quant.chunk_bits

    @property
    def v_bits_fetched(self) -> int:
        return self.v_vectors_fetched * self.head_dim * self.quant.total_bits

    @property
    def baseline_k_bits(self) -> int:
        return self.n_tokens * self.head_dim * self.quant.total_bits

    @property
    def baseline_v_bits(self) -> int:
        return self.n_tokens * self.head_dim * self.quant.total_bits

    @property
    def total_bits_fetched(self) -> int:
        return self.k_bits_fetched + self.v_bits_fetched

    @property
    def baseline_total_bits(self) -> int:
        return self.baseline_k_bits + self.baseline_v_bits

    @property
    def v_pruning_ratio(self) -> float:
        """Baseline V transfers over fetched V transfers (paper: 12.1x)."""
        if self.v_vectors_fetched == 0:
            return math.inf
        return self.n_tokens / self.v_vectors_fetched

    @property
    def k_reduction(self) -> float:
        """Baseline K bits over fetched K bits (paper: 1.45x)."""
        if self.k_bits_fetched == 0:
            return math.inf
        return self.baseline_k_bits / self.k_bits_fetched

    @property
    def total_reduction(self) -> float:
        """Total KV-bit reduction (paper: 2.57x)."""
        if self.total_bits_fetched == 0:
            return math.inf
        return self.baseline_total_bits / self.total_bits_fetched

    def merged(self, other: "PruneStats") -> "PruneStats":
        """Aggregate accounting across instances (same format/dim)."""
        if other.quant != self.quant or other.head_dim != self.head_dim:
            raise ValueError("cannot merge stats with different formats")
        return PruneStats(
            n_tokens=self.n_tokens + other.n_tokens,
            n_kept=self.n_kept + other.n_kept,
            k_chunks_fetched=self.k_chunks_fetched + other.k_chunks_fetched,
            v_vectors_fetched=self.v_vectors_fetched + other.v_vectors_fetched,
            head_dim=self.head_dim,
            quant=self.quant,
        )


@dataclass
class AccessCounter:
    """Accumulated K/V traffic of a backend, in bits."""

    k_bits: int = 0
    v_bits: int = 0
    baseline_k_bits: int = 0
    baseline_v_bits: int = 0
    instances: int = 0
    tokens_seen: int = 0
    tokens_kept: int = 0

    def add(self, stats: PruneStats, instances: int) -> None:
        """Accumulate one kernel call's accounting over ``instances``
        attention instances (heads)."""
        self.k_bits += stats.k_bits_fetched
        self.v_bits += stats.v_bits_fetched
        self.baseline_k_bits += stats.baseline_k_bits
        self.baseline_v_bits += stats.baseline_v_bits
        self.instances += instances
        self.tokens_seen += stats.n_tokens
        self.tokens_kept += stats.n_kept

    @property
    def total_bits(self) -> int:
        return self.k_bits + self.v_bits

    @property
    def baseline_total_bits(self) -> int:
        return self.baseline_k_bits + self.baseline_v_bits

    @property
    def k_reduction(self) -> float:
        return self.baseline_k_bits / self.k_bits if self.k_bits else math.inf

    @property
    def v_pruning_ratio(self) -> float:
        return self.baseline_v_bits / self.v_bits if self.v_bits else math.inf

    @property
    def total_reduction(self) -> float:
        return (
            self.baseline_total_bits / self.total_bits if self.total_bits else math.inf
        )

    @property
    def keep_fraction(self) -> float:
        return self.tokens_kept / self.tokens_seen if self.tokens_seen else 1.0


@dataclass
class TokenPickerResult:
    """Full outcome of pruned attention for one (query, K, V) instance."""

    kept: np.ndarray  # bool (t,)
    chunks_fetched: np.ndarray  # int (t,), in [1, n_chunks]
    scores: np.ndarray  # float (t,) exact scaled scores of quantized q.k
    probs: np.ndarray  # float (t,) softmax over kept tokens, 0 elsewhere
    output: Optional[np.ndarray]  # (d,) attention output, None if V absent
    stats: PruneStats
    log_denominator: float  # ln(D) at the end of step 0


def _require_finite(**operands) -> None:
    """``ValueError`` naming the first operand holding a NaN or an inf
    (``None`` operands are skipped)."""
    for name, arr in operands.items():
        if arr is not None and not np.isfinite(arr).all():
            raise ValueError(f"{name} must be finite")


def _checked_bias(score_bias: Optional[np.ndarray], shape) -> np.ndarray:
    """A known additive score term of ``shape`` (zeros when absent)."""
    if score_bias is None:
        return np.zeros(shape)
    bias = np.asarray(score_bias, dtype=np.float64)
    if bias.shape != shape:
        raise ValueError(f"score_bias must have shape {shape}, got {bias.shape}")
    return bias


def _checked_instance(q, keys, values, score_bias):
    """One ``(q (d,), keys (t, d), values (t, d) or None, bias (t,))``
    instance as float64 arrays, shared by both schedules.  Shapes are
    checked before anything else reads them (an empty context included),
    then every operand must be finite."""
    q = np.asarray(q, dtype=np.float64)
    keys = np.asarray(keys, dtype=np.float64)
    if q.ndim != 1:
        raise ValueError(f"q must be 1-D, got {q.shape}")
    if keys.ndim != 2 or keys.shape[1] != q.shape[0]:
        raise ValueError(f"keys must be (t, {q.shape[0]}), got {keys.shape}")
    if values is not None:
        values = np.asarray(values, dtype=np.float64)
        if values.shape != keys.shape:
            raise ValueError(
                f"values shape {values.shape} must match keys shape {keys.shape}"
            )
    bias = _checked_bias(score_bias, (keys.shape[0],))
    _require_finite(q=q, keys=keys, values=values, score_bias=bias)
    return q, keys, values, bias


def _quantize_operands(
    q: np.ndarray,
    keys: np.ndarray,
    quant: QuantConfig,
    q_scale: Optional[float],
    k_scale: Optional[float],
):
    """Quantize q per-vector and K per-tensor; return codes and score scale."""
    q = np.asarray(q, dtype=np.float64)
    keys = np.asarray(keys, dtype=np.float64)
    if q.ndim != 1:
        raise ValueError(f"q must be 1-D, got {q.shape}")
    if keys.ndim != 2 or keys.shape[1] != q.shape[0]:
        raise ValueError(f"keys must be (t, {q.shape[0]}), got {keys.shape}")
    qs = float(q_scale) if q_scale is not None else float(compute_scale(q, quant))
    ks = float(k_scale) if k_scale is not None else float(compute_scale(keys, quant))
    q_codes = quantize(q, quant, scale=qs).values.astype(np.int64)
    k_codes = quantize(keys, quant, scale=ks).values.astype(np.int64)
    head_dim = q.shape[0]
    score_scale = qs * ks / math.sqrt(head_dim)
    return q_codes, k_codes, score_scale


def _chunk_score_table(
    q_codes: np.ndarray, k_codes: np.ndarray, quant: QuantConfig
) -> np.ndarray:
    """Cumulative partial integer scores ``ps[i, b]`` for b = 1..n_chunks.

    ``ps[i, b-1]`` is the dot product of q with the first ``b`` chunks of
    key ``i`` (unknown bits zero).  Column ``n_chunks - 1`` is the exact
    integer dot product.
    """
    planes = chunk_plane_values(k_codes, quant)  # (t, d, C)
    contrib = np.einsum("tdc,d->tc", planes, q_codes)
    return np.cumsum(contrib, axis=1)


def token_picker_scores(
    q: np.ndarray,
    keys: np.ndarray,
    config: TokenPickerConfig,
    q_scale: Optional[float] = None,
    k_scale: Optional[float] = None,
    score_bias: Optional[np.ndarray] = None,
) -> TokenPickerResult:
    """Run step 0 (score computation + certified pruning) for one query.

    Returns a :class:`TokenPickerResult` with ``output=None`` (use
    :func:`token_picker_attention` to also perform step 1).  ``scores``
    holds the exact scaled scores of the *quantized* operands for every
    token — pruned tokens' scores are still reported for analysis, but the
    algorithm never fetched their remaining chunks.

    ``score_bias`` is an optional known additive score term per token
    (e.g. an ALiBi distance bias).  It travels with the query — no DRAM
    traffic — and shifts both score bounds equally, so the certificate
    ``p'' >= p`` is unchanged.  Malformed or non-finite operands raise
    ``ValueError``.
    """
    q, keys, _, bias = _checked_instance(q, keys, None, score_bias)
    if config.schedule == "breadth":
        return _breadth_instance(q, keys, None, config, bias, q_scale, k_scale)
    return _depth_scores(q, keys, config, q_scale, k_scale, bias)


def _breadth_instance(
    q, keys, values, config, bias, q_scale, k_scale, v_scale=None
) -> TokenPickerResult:
    """The breadth schedule on one checked instance: row 0 of a one-head
    :func:`token_picker_attention_batched` call."""

    def one(scale):
        return None if scale is None else np.full(1, scale, dtype=np.float64)

    r = token_picker_attention_batched(
        q[None], keys[None], None if values is None else values[None], config,
        score_bias=bias[None], q_scales=one(q_scale), k_scales=one(k_scale),
        v_scales=one(v_scale),
    )
    return TokenPickerResult(
        kept=r.kept[0],
        chunks_fetched=r.chunks_fetched[0],
        scores=r.scores[0],
        probs=r.probs[0],
        output=None if r.outputs is None else r.outputs[0],
        stats=r.stats(),
        log_denominator=float(r.log_denominators[0]),
    )


def _depth_scores(q, keys, config, q_scale, k_scale, bias) -> TokenPickerResult:
    """Step 0 of the depth schedule on one checked instance."""
    quant = config.quant
    n_tokens, head_dim = keys.shape
    q_codes, k_codes, score_scale = _quantize_operands(
        q, keys, quant, q_scale, k_scale
    )
    ps = _chunk_score_table(q_codes, k_codes, quant)  # (t, C) cumulative
    kept, chunks_fetched, log_den = _run_depth(
        ps, margin_pairs(q_codes, quant), config, score_scale, bias
    )
    exact_scores = ps[:, -1].astype(np.float64) * score_scale + bias
    n_kept = int(kept.sum())
    return TokenPickerResult(
        kept=kept,
        chunks_fetched=chunks_fetched,
        scores=exact_scores,
        probs=_renormalised_probs(exact_scores, kept),
        output=None,
        stats=PruneStats(
            n_tokens=n_tokens,
            n_kept=n_kept,
            k_chunks_fetched=int(chunks_fetched.sum()),
            v_vectors_fetched=n_kept,
            head_dim=head_dim,
            quant=quant,
        ),
        log_denominator=log_den,
    )


def _run_depth(
    ps: np.ndarray,
    margins,
    config: TokenPickerConfig,
    score_scale: float,
    bias: np.ndarray,
):
    """Sequential reference: one token at a time, chunk by chunk."""
    n_tokens, n_chunks = ps.shape
    rule = PruneRule(config.log_threshold)
    dag = DenominatorAggregator()
    kept = np.zeros(n_tokens, dtype=bool)
    chunks_fetched = np.zeros(n_tokens, dtype=np.int64)
    guarded = np.arange(n_tokens) >= n_tokens - config.prompt_guard

    for token in processing_order(n_tokens, config.order):
        for b in range(1, n_chunks + 1):
            chunks_fetched[token] = b
            s_min_i, s_max_i = score_bounds(ps[token, b - 1], b, margins)
            s_min = float(s_min_i) * score_scale + bias[token]
            s_max = float(s_max_i) * score_scale + bias[token]
            dag.submit(int(token), s_min)  # own bound first: see the config
            if rule.check(s_max, dag.log_denominator).pruned and not guarded[token]:
                break
        else:
            kept[token] = True

    return kept, chunks_fetched, dag.log_denominator


def _grouped_softmax(flat_scores: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """Renormalised softmax over consecutive groups of a flat score array.

    ``bounds`` is a (G + 1,) cumulative-boundary array with ``bounds[-1]
    == flat_scores.size``; empty groups are allowed.  Group max / sum use
    the same ``reduceat`` fold as :func:`_log_denominators`, so each
    group's probabilities depend only on its own scores.  Reductions run
    over the *non-empty* groups only: their start indices are strictly
    increasing and consecutive non-empty groups abut, so every reduceat
    slice covers exactly one group's elements — appending sentinel
    elements instead would change the fold's blocking for the trailing
    group.
    """
    if flat_scores.size == 0:
        return flat_scores
    starts = bounds[:-1]
    counts = np.diff(bounds)
    nonempty = counts > 0
    starts_ne = starts[nonempty]
    gmax = np.zeros(counts.shape)
    gmax[nonempty] = np.maximum.reduceat(flat_scores, starts_ne)
    e = np.exp(flat_scores - np.repeat(gmax, counts))
    gsum = np.ones(counts.shape)
    gsum[nonempty] = np.add.reduceat(e, starts_ne)
    return e / np.repeat(gsum, counts)


def _grouped_weighted_v(
    flat_probs: np.ndarray, v_rows: np.ndarray, bounds: np.ndarray
) -> np.ndarray:
    """Per-group sums of ``p_i * v_i`` over kept tokens — the step-1 AV.

    ``flat_probs`` (n,) and ``v_rows`` (n, d) hold the *kept* tokens
    only (group-major, token order preserved), ``bounds`` their (G + 1,)
    cumulative boundaries; ``v_rows`` is weighted in place.  Reducing
    the kept subset is not the same sum as reducing a dense row with
    zeros at the pruned tokens: the zero terms would move ``reduceat``'s
    pairwise blocking and change the bits.  The kept-row reduction is
    the definition — it is what the hardware's step 1 accumulates — and
    both kernels reduce the same kept rows, in the same order, through
    this one function, which is why they agree bit for bit.  Groups
    reduce with the same ``reduceat`` fold as :func:`_log_denominators`;
    empty groups are skipped as in :func:`_grouped_softmax`.
    """
    out = np.zeros((len(bounds) - 1, v_rows.shape[1]))
    if flat_probs.size == 0:
        return out
    np.multiply(v_rows, flat_probs[:, None], out=v_rows)
    counts = np.diff(bounds)
    nonempty = counts > 0
    out[nonempty] = np.add.reduceat(v_rows, bounds[:-1][nonempty], axis=0)
    return out


class KernelScratch:
    """Reusable backing store for the fused ragged kernel's work arrays.

    The serving engine calls the ragged kernel every decode step with
    slightly-growing shapes, and the (tokens, heads)-sized temporaries
    dominated the step's allocator traffic.  A scratch object hands out
    views of amortised-doubling flat buffers keyed by role; reuse never
    changes results because every array handed out is fully overwritten
    before it is read.
    """

    def __init__(self) -> None:
        self._buffers: Dict[Tuple[str, str], np.ndarray] = {}

    def take(self, name: str, shape, dtype=np.float64) -> np.ndarray:
        dt = np.dtype(dtype)
        n = math.prod(shape)  # not np.prod: its array round trip dominated
        key = (name, dt.str)
        buf = self._buffers.get(key)
        if buf is None or buf.size < n:
            grown = n if buf is None else max(n, 2 * buf.size)
            buf = np.empty(grown, dtype=dt)
            self._buffers[key] = buf
        return buf[:n].reshape(shape)


def _allocate(name: str, shape, dtype=np.float64) -> np.ndarray:
    """:meth:`KernelScratch.take` without the reuse, for one-off calls."""
    return np.empty(shape, dtype)


def _renormalised_probs(scores: np.ndarray, kept: np.ndarray) -> np.ndarray:
    """Softmax restricted to kept tokens (the hardware's step-1 softmax)."""
    probs = np.zeros_like(scores, dtype=np.float64)
    if kept.any():
        probs[kept] = softmax(scores[kept])
    return probs


def token_picker_attention(
    q: np.ndarray,
    keys: np.ndarray,
    values: np.ndarray,
    config: TokenPickerConfig,
    q_scale: Optional[float] = None,
    k_scale: Optional[float] = None,
    v_scale: Optional[float] = None,
    score_bias: Optional[np.ndarray] = None,
) -> TokenPickerResult:
    """Full pruned attention: step 0 (scores + pruning) then step 1 (x V).

    V is quantized to the same fixed-point format (that is what travels over
    the DRAM bus) and only the kept tokens' V vectors are fetched and
    accumulated.
    """
    q, keys, values, bias = _checked_instance(q, keys, values, score_bias)
    if config.schedule == "breadth":
        return _breadth_instance(
            q, keys, values, config, bias, q_scale, k_scale, v_scale
        )
    result = _depth_scores(q, keys, config, q_scale, k_scale, bias)
    vs = float(v_scale) if v_scale is not None else float(
        compute_scale(values, config.quant)
    )
    result.output = result.probs @ quantize(values, config.quant, scale=vs).dequantize()
    return result


@dataclass
class BatchedPickerResult:
    """Vectorised per-head results (breadth schedule).

    Arrays are stacked over heads: ``kept`` is (H, t), ``chunks_fetched``
    (H, t), ``probs`` (H, t), ``outputs`` (H, d) (zeros when values were not
    provided), ``log_denominators`` (H,).
    """

    kept: np.ndarray
    chunks_fetched: np.ndarray
    scores: np.ndarray
    probs: np.ndarray
    outputs: Optional[np.ndarray]
    log_denominators: np.ndarray
    quant: QuantConfig
    head_dim: int

    def stats(self) -> PruneStats:
        """Aggregate accounting over all heads."""
        h, t = self.kept.shape
        return PruneStats(
            n_tokens=h * t,
            n_kept=int(self.kept.sum()),
            k_chunks_fetched=int(self.chunks_fetched.sum()),
            v_vectors_fetched=int(self.kept.sum()),
            head_dim=self.head_dim,
            quant=self.quant,
        )


def _checked_scales(explicit, shape) -> np.ndarray:
    """Caller-frozen quantization scales: finite, positive, ``shape``."""
    scales = np.asarray(explicit, dtype=np.float64)
    if scales.shape != shape or not (
        np.isfinite(scales).all() and (scales > 0).all()
    ):
        raise ValueError(
            f"explicit scales must be finite and positive with shape {shape}"
        )
    return scales


def _empty_result(n_heads, head_dim, quant, has_values) -> BatchedPickerResult:
    """What the batched kernel returns for a zero-length context."""
    return BatchedPickerResult(
        kept=np.zeros((n_heads, 0), dtype=bool),
        chunks_fetched=np.zeros((n_heads, 0), dtype=np.int64),
        scores=np.zeros((n_heads, 0)),
        probs=np.zeros((n_heads, 0)),
        outputs=np.zeros((n_heads, head_dim)) if has_values else None,
        log_denominators=np.full(n_heads, -np.inf),
        quant=quant,
        head_dim=head_dim,
    )


def token_picker_attention_batched(
    q: np.ndarray,
    keys: np.ndarray,
    values: Optional[np.ndarray],
    config: TokenPickerConfig,
    score_bias: Optional[np.ndarray] = None,
    q_scales: Optional[np.ndarray] = None,
    k_scales: Optional[np.ndarray] = None,
    v_scales: Optional[np.ndarray] = None,
) -> BatchedPickerResult:
    """Vectorised breadth-schedule Token-Picker over heads.

    ``q``: (H, d); ``keys``/``values``: (H, t, d).  Scales are per head —
    computed from the data by default, or passed explicitly as (H,) arrays
    (``q_scales``/``k_scales``/``v_scales``) when a deployment freezes them
    at calibration time (see :class:`repro.core.session.TokenPickerSession`);
    out-of-range values then saturate.
    This is the kernel the LM evaluation and the sessions use — one call
    per (layer, position) covers every head at once — and the reference
    the fused arena kernel (:func:`token_picker_attention_ragged`) is
    tested against: it computes the full cumulative score table, so every
    token's reported score is exact.  Only the breadth schedule is
    supported (it is the one the out-of-order hardware realises).
    ``score_bias`` is an optional (H, t) known additive score term (ALiBi).
    Malformed or non-finite operands and scales raise ``ValueError``.
    """
    if config.schedule != "breadth":
        raise ValueError("batched kernel supports only the breadth schedule")
    quant = config.quant
    q = np.asarray(q, dtype=np.float64)
    keys = np.asarray(keys, dtype=np.float64)
    if q.ndim != 2 or keys.ndim != 3 or (keys.shape[0], keys.shape[2]) != q.shape:
        raise ValueError("q must be (H, d) and keys (H, t, d)")
    if values is not None:
        values = np.asarray(values, dtype=np.float64)
        if values.shape != keys.shape:
            raise ValueError(
                f"values shape {values.shape} must match keys shape {keys.shape}"
            )
    n_heads, head_dim = q.shape
    n_tokens = keys.shape[1]
    bias = _checked_bias(score_bias, (n_heads, n_tokens))
    _require_finite(q=q, keys=keys, values=values, score_bias=bias)
    if n_tokens == 0:
        return _empty_result(n_heads, head_dim, quant, values is not None)

    # per-head symmetric scales, data-derived unless frozen ones are given
    q_scale = (
        compute_scale(q, quant, axis=1).ravel() if q_scales is None
        else _checked_scales(q_scales, (n_heads,))
    )
    k_scale = (
        compute_scale(keys, quant, axis=(1, 2)).ravel() if k_scales is None
        else _checked_scales(k_scales, (n_heads,))
    )
    q_codes = _codes(q, q_scale[:, None], quant).astype(np.int64)
    k_codes = _codes(keys, k_scale[:, None, None], quant).astype(np.int64)
    score_scale = q_scale * k_scale / math.sqrt(head_dim)  # (H,)

    # the exact int64 cumulative score table, every token to full depth
    planes = chunk_plane_values(k_codes, quant)  # (H, t, d, C)
    ps = np.cumsum(np.einsum("htdc,hd->htc", planes, q_codes), axis=2)

    # the shared round step on a one-segment geometry
    geo = _segment_geometry(
        np.array([[0, n_tokens]]), np.zeros(1, dtype=np.intp),
        config.prompt_guard,
    )
    grid = (n_heads, n_tokens)
    alive, chunks_fetched = np.ones(grid, bool), np.zeros(grid, np.int64)
    # the last entry takes pruned pairs' bounds, which the reference
    # does not report: every token's score is exact here
    state = (alive, chunks_fetched, np.full(grid, -np.inf), np.empty(grid))
    margins = _scaled_margins(q_codes[None], score_scale[None], quant)
    take_buf, clock = _allocate, PhaseClock(None)
    for b in range(quant.n_chunks):
        log_den = _dense_round(
            b, ps[:, :, b], score_scale[:, None], bias, margins, state, geo,
            config.log_threshold, take_buf, clock,
        )
        if not alive.any():
            break

    exact_scores = ps[:, :, -1] * score_scale[:, None] + bias
    probs = np.zeros_like(exact_scores)
    kept_bounds = np.zeros(n_heads + 1, dtype=np.intp)
    np.cumsum(alive.sum(axis=1), out=kept_bounds[1:])
    flat_probs = _grouped_softmax(exact_scores[alive], kept_bounds)
    probs[alive] = flat_probs

    outputs = None
    if values is not None:
        v_scale = (
            compute_scale(values, quant, axis=(1, 2)) if v_scales is None
            else _checked_scales(v_scales, (n_heads,))[:, None, None]
        )
        v_deq = _codes(values, v_scale, quant) * v_scale
        outputs = _grouped_weighted_v(flat_probs, v_deq[alive], kept_bounds)

    return BatchedPickerResult(
        kept=alive,
        chunks_fetched=chunks_fetched,
        scores=exact_scores,
        probs=probs,
        outputs=outputs,
        log_denominators=log_den[:, 0],
        quant=quant,
        head_dim=head_dim,
    )


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


_NO_PAIRS = (
    _read_only(np.zeros(0, dtype=np.intp)),
    _read_only(np.zeros(0)),
)


class RaggedSequenceResult:
    """One sequence's outcome of a :func:`token_picker_attention_ragged`
    call, stored at the cost of what the kernel decided.

    The kernel hands each sequence its own copy of the two per-token
    records no aggregate can replace, plus views of the call's kept
    pairs and per-(head, segment) aggregates:

    * ``scores`` (H, t) float64: exact for kept tokens, the certified
      bound for pruned ones; ``chunks_fetched`` (H, t) uint8 counts;
    * ``kept_pairs``: ``(index, probs)``, the kept pairs' ascending
      flat indices into the (H, t) grid and their probabilities — what
      the tier store and the retained-mass signal read beside
      ``scores``;
    * ``stats()``, ``kept_per_head`` and ``chunks_per_head``: O(1) reads
      of the aggregates — what the engine's accounting and the shard
      views use;
    * ``outputs`` (H, d) (``None`` when the call had no V) and
      ``log_denominators`` (H,): the call's per-segment rows;
    * ``kept`` and ``probs``: dense (H, t) arrays built from the kept
      pairs on first access, then cached.

    Every array is read-only and none views :class:`KernelScratch`, so
    a result outlives later calls on the same scratch.  The per-token
    records are the sequence's own copies, so a result holds no other
    sequence's per-token data; its kept pairs and aggregates view small
    per-call arrays.
    """

    __slots__ = (
        "scores", "chunks_fetched", "kept_pairs", "kept_per_head",
        "chunks_per_head", "outputs", "log_denominators", "quant",
        "head_dim", "_kept", "_probs",
    )

    def __init__(
        self, scores, chunks, kept_pairs, kept_per_head, chunks_per_head,
        outputs, log_denominators, quant, head_dim,
    ) -> None:
        self.scores = _read_only(scores)
        self.chunks_fetched = _read_only(chunks)
        self.kept_pairs = kept_pairs
        self.kept_per_head = kept_per_head
        self.chunks_per_head = chunks_per_head
        self.outputs = outputs
        self.log_denominators = log_denominators
        self.quant, self.head_dim = quant, head_dim
        self._kept = self._probs = None

    @property
    def n_tokens(self) -> int:
        return self.scores.shape[1]

    def _dense(self, values, dtype) -> np.ndarray:
        """(H, t) with ``values`` at the kept pairs, zero elsewhere."""
        dense = np.zeros(self.scores.shape, dtype=dtype)
        dense.reshape(-1)[self.kept_pairs[0]] = values
        return _read_only(dense)

    @property
    def kept(self) -> np.ndarray:
        if self._kept is None:
            self._kept = self._dense(True, bool)
        return self._kept

    @property
    def probs(self) -> np.ndarray:
        if self._probs is None:
            self._probs = self._dense(self.kept_pairs[1], np.float64)
        return self._probs

    def pruned_bounds(self) -> np.ndarray:
        """(H, t) Eq. 5 upper bounds ``p'' = exp(s - ln D)`` of the pruned
        pairs, zero at the kept ones; a fresh writable array.  A pruned
        pair's bound passed ``s - ln D <= ln thr < 0``, so the clip to
        ``[-700, 0]`` only guards ``exp``."""
        bounds = np.exp(
            np.clip(self.scores - self.log_denominators[:, None], -700.0, 0.0)
        )
        bounds.reshape(-1)[self.kept_pairs[0]] = 0.0
        return bounds

    def stats(self) -> PruneStats:
        """Accounting over all heads, from the aggregates."""
        n_kept = sum(self.kept_per_head.tolist())
        return PruneStats(
            n_tokens=self.scores.size,
            n_kept=n_kept,
            k_chunks_fetched=sum(self.chunks_per_head.tolist()),
            v_vectors_fetched=n_kept,
            head_dim=self.head_dim,
            quant=self.quant,
        )


def _empty_sequence(n_heads, head_dim, quant, has_values):
    """The ragged kernel's result for a zero-length segment."""
    zeros = _read_only(np.zeros(n_heads, dtype=np.int64))
    return RaggedSequenceResult(
        np.zeros((n_heads, 0)),
        np.zeros((n_heads, 0), dtype=np.uint8),
        _NO_PAIRS,
        zeros,
        zeros,
        _read_only(np.zeros((n_heads, head_dim))) if has_values else None,
        _read_only(np.full(n_heads, -np.inf)),
        quant,
        head_dim,
    )


@dataclass
class RaggedPickerResult:
    """Results of one fused ragged-batch kernel call.

    ``results[s]`` (a :class:`RaggedSequenceResult`) matches an
    independent :func:`token_picker_attention_batched` call on sequence
    ``s`` bit for bit in ``kept``, ``chunks_fetched``, ``probs``,
    ``outputs``, ``log_denominators``, ``stats()`` and the kept tokens'
    ``scores`` — the fused kernel is a packing optimisation, never an
    approximation.  A *pruned* token's ``scores`` entry is its certified
    upper bound at the round that pruned it (``p'' >= p``, Eq. 5): its
    remaining chunks are never fetched, which is the point.
    """

    results: list  # List[RaggedSequenceResult], in the caller's order
    #: alive (head, token) pairs entering each chunk round, plus the
    #: final kept-pair count in the last slot — shape (n_chunks + 1,).
    #: ``round_alive[b] - round_alive[b + 1]`` is how many pairs were
    #: decided by fetching exactly ``b + 1`` chunks, so the per-round
    #: survival fractions and the chunks-fetched histogram both derive
    #: from this one array (the serving profile prints both).  ``None``
    #: only for an all-empty batch.
    round_alive: "Optional[np.ndarray]" = None

    def stats(self) -> PruneStats:
        """Aggregate accounting over every sequence in the batch."""
        if not self.results:
            raise ValueError("empty ragged batch has no stats")
        merged = self.results[0].stats()
        for r in self.results[1:]:
            merged = merged.merged(r.stats())
        return merged


class PhaseClock:
    """Laps of one wall clock, accumulated into a caller's ``phase_times``
    (the kernel's phases, and the serving engine's around it).

    The score sub-phases nest inside ``"score"``: a ``score_chunk0`` or
    ``score_refine`` lap is added to both keys, so the two never sum to
    more than ``"score"`` (which also carries the kernel's set-up).
    """

    def __init__(self, phase_times: Optional[Dict[str, float]]) -> None:
        self._times = phase_times
        self._mark = time.perf_counter() if phase_times is not None else 0.0

    def lap(self, phase: str) -> None:
        if self._times is None:
            return
        now = time.perf_counter()
        times, lap = self._times, now - self._mark
        times[phase] = times.get(phase, 0.0) + lap
        if phase.startswith("score_"):
            times["score"] = times.get("score", 0.0) + lap
        self._mark = now

    def restart(self) -> None:
        """Start the next lap now: the time since the last lap goes to no
        phase."""
        self._mark = time.perf_counter()


@dataclass(frozen=True)
class _SegmentGeometry:
    """Where the live sequences sit on the kernel's flat token axis.

    The axis is the arena span from the first live segment's start to the
    last one's end: every live sequence is one contiguous slab at its
    in-place offset, and the dead inter-segment gaps ride along masked,
    carried by the reduceat boundary table instead of a repacking copy.
    Segment ``i`` reduces at column ``2 * i`` of that table, the
    (possibly empty) gap after it at column ``2 * i + 1``; reduceat's
    per-slice fold reads only the slice's own elements, so gap columns
    cost their width in streamed bytes but never touch a segment's
    result.
    """

    seg_ids: np.ndarray  # (n_live,) caller sequence index, ascending start
    st: np.ndarray  # (n_live,) slab start columns on the flat axis
    en: np.ndarray  # (n_live,) slab end columns
    base: int  # arena row of flat column 0
    total: int  # flat-axis extent, gaps included
    reduce_idx: np.ndarray  # (2 * n_live - 1,) interleaved reduceat starts
    col_of_tok: np.ndarray  # (total,) reduceat column of each token
    seq_of_tok: np.ndarray  # (total,) caller sequence index; 0 on gaps
    valid: np.ndarray  # (total,) False on gaps
    prunable: np.ndarray  # (total,) False on the guarded newest tokens


def _segment_geometry(
    segments: np.ndarray, live: np.ndarray, prompt_guard: int
) -> _SegmentGeometry:
    seg_ids = live[np.argsort(segments[live, 0], kind="stable")]
    starts = segments[seg_ids, 0]
    ends = starts + segments[seg_ids, 1]
    if np.any(starts[1:] < ends[:-1]):
        raise ValueError("arena segments overlap")
    base = int(starts[0])
    total = int(ends[-1]) - base
    st = starts - base
    en = ends - base

    # column 2i is segment i, column 2i + 1 the (possibly empty) gap
    # after it; a column's width is the step to the next boundary
    bounds = np.empty(2 * len(seg_ids), dtype=np.intp)
    bounds[::2] = st
    bounds[1::2] = en
    col_of_tok = np.repeat(
        np.arange(bounds.size - 1, dtype=np.intp), np.diff(bounds)
    )
    seg_of_tok = col_of_tok // 2
    valid = col_of_tok % 2 == 0
    guarded = valid & (np.arange(total) >= en[seg_of_tok] - prompt_guard)
    return _SegmentGeometry(
        seg_ids=seg_ids,
        st=st,
        en=en,
        base=base,
        total=total,
        reduce_idx=bounds[:-1],
        col_of_tok=col_of_tok,
        seq_of_tok=np.where(valid, seg_ids[seg_of_tok], 0),
        valid=valid,
        prunable=~guarded,
    )


def _spread(table, index, out) -> None:
    """``out[:, j] = table[:, index[j]]``: a per-column table broadcast to
    the flat token axis.  The indices come from the segment geometry and
    are always in range; ``mode="clip"`` only selects ``np.take``'s
    unbuffered write path (``"raise"`` stages ``out`` through a copy)."""
    np.take(table, index, axis=1, out=out, mode="clip")


def _codes(x: np.ndarray, scale, quant: QuantConfig) -> np.ndarray:
    """Round-to-nearest codes ``clip(rint(x / scale))``, as float64.

    Callers cast Q and K codes to int64; V is dequantised from these
    floats, so a code of ``-0.0`` keeps its sign."""
    return np.clip(np.rint(x / scale), quant.qmin, quant.qmax)


def _scaled_margins(q_codes: np.ndarray, score_scale: np.ndarray, quant):
    """Pre-scaled margin tables ``(lo, hi)``, each (C, H, S): ``margin *
    scale`` per (chunk, head, sequence) for ``q_codes`` (S, H, d) and
    ``score_scale`` (S, H) — the products a round's bound rows spread
    over their tokens, computed once per call."""
    mins, maxs = margin_pairs_batch(q_codes, quant)  # (S, H, C+1)
    return tuple(
        np.ascontiguousarray(
            (m[:, :, 1:] * score_scale[:, :, None]).transpose(2, 1, 0)
        )
        for m in (mins, maxs)
    )


def _log_denominators(lb: np.ndarray, geo: _SegmentGeometry, take_buf):
    """A round's per-segment ``ln D``, folded from the whole (H, total)
    lower-bound row ``lb`` — decided tokens' frozen bounds included, as
    their exp terms shift with the running max.  Segment max and sum are
    ``reduceat`` folds over the geometry's boundary table: ``ndarray.sum``
    groups its additions by the reduction's layout (length, axis,
    buffering), while a ``reduceat`` slice's result depends only on the
    slice's own values, in order, wherever it sits.  So a one-segment
    call and a packed many-segment call agree bit for bit.  Returns
    ``(log_den_seg (H, n_live), log_den_tok (H, total))``, the latter a
    scratch view valid until the next fold.
    """
    cols = (lb.shape[0], geo.reduce_idx.size)
    m_cols = take_buf("m_cols", cols)
    np.maximum.reduceat(lb, geo.reduce_idx, axis=1, out=m_cols)
    m_fix = take_buf("m_fix", cols)
    np.copyto(m_fix, m_cols)
    np.copyto(m_fix, 0.0, where=~np.isfinite(m_cols))
    ex = take_buf("ex", lb.shape)
    m_tok = take_buf("m_tok", lb.shape)
    _spread(m_fix, geo.col_of_tok, m_tok)
    np.subtract(lb, m_tok, out=ex)
    np.clip(ex, -700.0, 0.0, out=ex)
    np.exp(ex, out=ex)
    den_cols = take_buf("den_cols", cols)
    np.add.reduceat(ex, geo.reduce_idx, axis=1, out=den_cols)
    seg_den = m_cols[:, ::2] + np.log(den_cols[:, ::2])
    ld_cols = take_buf("ld_cols", cols)
    ld_cols[:, 1::2] = 0.0  # gap columns never receive a denominator
    ld_cols[:, ::2] = seg_den
    ld_tok = take_buf("ld_tok", lb.shape)
    _spread(ld_cols, geo.col_of_tok, ld_tok)
    return seg_den, ld_tok


def _dense_round(b, ps, ss, bias, margins, state, geo, log_thr, take_buf, clock):
    """Round ``b`` over every pair of the flat axis: the one bound, fold
    and prune step.  ``ps`` (H, total) is each pair's integer partial
    score over its first ``b + 1`` chunks, ``ss`` its score scale
    (broadcastable), ``bias`` ``None`` or an (H, total) known score term;
    the bounds are ``ps * scale + margin * scale (+ bias)``.  Alive pairs
    fetch chunk ``b`` and move their lower bound; then an alive, prunable
    pair with ``s_max - ln D <= ln thr`` (Eq. 5) dies.  Every pair that
    entered the round records ``s_max`` in ``scores``: a pruned pair's
    certified bound, overwritten for a survivor later.  ``state`` is the
    (H, total) ``(alive, chunks_fetched, current_lb, scores)``, updated in
    place.  Returns the (H, n_live) log denominators.
    """
    alive, chunks_fetched, current_lb, scores = state
    s_min = take_buf("lz_smin", ps.shape)
    s_max = take_buf("lz_smax", ps.shape)
    row = take_buf("lz_mrow", ps.shape)
    # one base product shared by both bounds; the sum commutes, so the
    # lower margin is spread straight into its row and the base added
    np.multiply(ps, ss, out=s_max)
    _spread(margins[0][b], geo.seq_of_tok, s_min)
    s_min += s_max
    _spread(margins[1][b], geo.seq_of_tok, row)
    s_max += row
    if bias is not None:
        s_min += bias
        s_max += bias
    # every alive pair has fetched exactly ``b`` chunks so far
    chunks_fetched += alive
    np.copyto(current_lb, s_min, where=alive)
    clock.lap("score_chunk0" if b == 0 else "score_refine")

    log_den_seg, log_den_tok = _log_denominators(current_lb, geo, take_buf)
    np.subtract(s_max, log_den_tok, out=row)
    prune = row <= log_thr
    prune &= alive
    prune &= geo.prunable
    # written for every pair that entered the round: in round 0 that
    # mask is all-true but for gaps, and a uniform mask copies several
    # times faster than the scattered ``prune``
    np.copyto(scores, s_max, where=alive)
    alive &= ~prune
    clock.lap("prune")
    return log_den_seg


#: bytes of the float tile a dense round casts digits into: about an
#: L2's worth, so a tile is contracted while it is still cached (the
#: pool's encoder sizes its float64 code tiles from it too)
_TILE_BYTES = 1 << 19


def _contract_chunk(planes_c, q_seg, st, en, tile, out) -> None:
    """Every token's digit row of one chunk dotted with its sequence's
    query, into ``out`` (H, total).  ``planes_c`` is the (H, total, d)
    single-chunk integer digit planes, ``q_seg`` the (n_live, H, d)
    per-segment query codes and ``tile`` an (H, rows, d) scratch, both
    in the float accumulator dtype.  Each segment is cast into the tile
    ``rows`` tokens at a time and contracted by one batched
    matrix-vector product (BLAS), never a per-token query gather.  Any
    summation order gives the same exact integer (see
    :func:`exact_digit_dtype`), so the tiling never moves a bit."""
    rows = tile.shape[1]
    for i in range(st.shape[0]):
        q = q_seg[i][:, :, None]
        end = int(en[i])
        for lo in range(int(st[i]), end, rows):
            hi = min(lo + rows, end)
            t = tile[:, :hi - lo]
            np.copyto(t, planes_c[:, lo:hi])
            np.matmul(t, q, out=out[:, lo:hi, None])


def _score_rounds(
    geo: _SegmentGeometry,
    k_arena: np.ndarray,
    q_codes: np.ndarray,
    score_scale: np.ndarray,
    config: TokenPickerConfig,
    accumulator,
    take_buf,
    clock: PhaseClock,
):
    """The breadth rounds over the flat axis: score, then prune, per chunk.

    Round 1 (chunk 0) touches every token once through one batched
    contraction, and so do later rounds while the alive set is a
    sizeable fraction of the grid.  Once it thins, a round works on the
    alive (head, token) pairs only, indexed by one ascending flat array
    ``h * total + t``: each pair's digit row and query row arrive by one
    ``np.take`` each into scratch, and the per-pair state is read and
    written through flat views — per-round score cost scales with the
    alive set (the keep fraction of T) instead of T * C, the paper's
    on-demand fetch.  Chunk contractions are exact integers in the
    ``accumulator`` dtype (float32 under the 2**24 gate, else float64;
    :func:`exact_digit_dtype`), so any contraction order gives the same
    bits and incremental accumulation equals the rectangular kernel's
    cumulative table.  Dense rounds run the shared :func:`_dense_round`;
    thin rounds gather their bounds pair by pair but fold the same
    :func:`_log_denominators` and apply the same predicate.

    ``k_arena`` is the whole (H, C, T_cap, d) integer arena of unshifted
    digits, ``q_codes`` (S, H, d) int64, ``score_scale`` (S, H).  Returns
    ``(kept_flat, kept_scores, chunks_fetched, scores, log_den_seg,
    round_alive)``: the kept pairs' ascending flat indices and exact
    scores (owned arrays), the (H, total) uint8 chunk counts and scores
    (scratch views; kept pairs hold their exact scores) and the
    (H, n_live) log denominators.
    """
    quant = config.quant
    n_chunks = quant.n_chunks
    n_seqs, n_heads, head_dim = q_codes.shape
    t_cap = k_arena.shape[2]
    total, st, en, seq_of_tok = geo.total, geo.st, geo.en, geo.seq_of_tok
    planes = k_arena[:, :, geo.base:geo.base + total]
    n_live = len(geo.seg_ids)
    log_thr = config.log_threshold

    ss_ht = take_buf("ss", (n_heads, total))
    _spread(score_scale.T, seq_of_tok, ss_ht)

    alive = take_buf("alive", (n_heads, total), bool)
    alive[:] = geo.valid[None, :]
    chunks_fetched = take_buf("chunks", (n_heads, total), np.uint8)
    chunks_fetched.fill(0)
    current_lb = take_buf("lb", (n_heads, total))
    current_lb.fill(-np.inf)
    log_den_seg = np.full((n_heads, n_live), -np.inf)
    round_alive = np.zeros(n_chunks + 1, dtype=np.int64)
    clock.lap("score")  # set-up up to here counts as score

    shifts = [
        1 << (quant.total_bits - (c + 1) * quant.chunk_bits)
        for c in range(n_chunks)
    ]
    q_f = q_codes.astype(accumulator)
    contrib0 = take_buf("lz_c0", (n_heads, total), accumulator)
    rows = max(_TILE_BYTES // (n_heads * head_dim * contrib0.itemsize), 1)
    tile = take_buf("k_tile", (n_heads, rows, head_dim), accumulator)
    q_seg = q_f[geo.seg_ids]  # (n_live, H, d)
    ps_run = take_buf("lz_ps", (n_heads, total))
    margins = _scaled_margins(q_codes, score_scale, quant)
    scores = take_buf("scores", (n_heads, total))
    scores.fill(0.0)
    state = (alive, chunks_fetched, current_lb, scores)

    # flat views for the pair rounds: (H * S, d) query rows (row ``h * S
    # + seq``, the margin tables' order), the arena's (H * C * T_cap, d)
    # digit rows, and the (H * total,) per-pair state
    q_rows_src = q_f.transpose(1, 0, 2).reshape(n_heads * n_seqs, head_dim)
    k_rows_src = k_arena.reshape(-1, head_dim)
    ps_flat = ps_run.reshape(-1)
    ss_flat = ss_ht.reshape(-1)
    lb_flat = current_lb.reshape(-1)
    chunks_flat = chunks_fetched.reshape(-1)
    scores_flat = scores.reshape(-1)

    def _extend_pairs(b, pidx):
        """Round ``b`` on the alive pairs ``pidx``: contract each pair's
        chunk-``b`` digit row with its query row, extend its partial
        score and record its bounds — the dense round's per-element value
        chain.  Returns scratch views ``(s_max, t)`` of the pairs' upper
        bounds and token columns."""
        n = pidx.size
        h = take_buf("pr_h", (n,), np.intp)
        t = take_buf("pr_t", (n,), np.intp)
        np.divmod(pidx, total, out=(h, t))
        row = take_buf("pr_row", (n,), np.intp)
        hs = take_buf("pr_hs", (n,), np.intp)  # (h, seq): query, margins
        np.take(seq_of_tok, t, out=hs, mode="clip")
        np.multiply(h, n_seqs, out=row)
        hs += row
        q_rows = take_buf("pr_q", (n, head_dim), q_f.dtype)
        np.take(q_rows_src, hs, axis=0, out=q_rows, mode="clip")
        np.multiply(h, n_chunks, out=row)  # digit row (h, b, base + t)
        row += b
        row *= t_cap
        row += t
        row += geo.base
        k_digits = take_buf("pr_k", (n, head_dim), k_arena.dtype)
        np.take(k_rows_src, row, axis=0, out=k_digits, mode="clip")
        k_rows = take_buf("pr_kf", (n, head_dim), accumulator)
        np.copyto(k_rows, k_digits)  # only the gathered rows are cast
        contrib = take_buf("pr_c", (n,), accumulator)
        np.einsum("ad,ad->a", k_rows, q_rows, out=contrib)
        ps = take_buf("pr_ps", (n,))
        np.take(ps_flat, pidx, out=ps, mode="clip")
        shifted = take_buf("pr_shift", (n,))
        np.multiply(contrib, float(shifts[b]), out=shifted, dtype=np.float64)
        ps += shifted
        ps_flat[pidx] = ps
        base = take_buf("pr_base", (n,))
        np.take(ss_flat, pidx, out=base, mode="clip")
        np.multiply(ps, base, out=base)
        s_min = take_buf("pr_smin", (n,))
        np.take(margins[0][b].reshape(-1), hs, out=s_min, mode="clip")
        s_min += base
        s_max = take_buf("pr_smax", (n,))
        np.take(margins[1][b].reshape(-1), hs, out=s_max, mode="clip")
        s_max += base
        chunks_flat[pidx] = b + 1
        lb_flat[pidx] = s_min
        return s_max, t

    survivors = int(np.count_nonzero(alive))
    pidx = None  # the alive pairs, once the rounds have gone thin
    for b in range(n_chunks):
        if not survivors:
            break
        round_alive[b] = survivors
        # A dense round (one batched contraction per segment) beats pair
        # gathers while the alive set is a sizeable fraction of the grid;
        # it only shrinks, so once a round goes thin every later one
        # does.  Both run the same per-element value chain, so the switch
        # is a performance decision only: every output bit is the same.
        if pidx is None and (b == 0 or survivors * 8 >= alive.size):
            _contract_chunk(planes[:, b], q_seg, st, en, tile, contrib0)
            if b == 0:
                if not geo.valid.all():  # scrub stale gap columns
                    contrib0[:, ~geo.valid] = 0
                # scale by the chunk's power-of-two shift in the
                # accumulator dtype (``dtype=`` promotes the digit dot
                # first: a float32 contribution must NOT be multiplied
                # by the shift in float32, where the product can exceed
                # 2**24 and round)
                np.multiply(contrib0, shifts[0], out=ps_run, dtype=ps_run.dtype)
            else:
                # dead and gap columns accumulate garbage here —
                # harmless: every consumer below is masked by ``alive``
                # and death scores were already recorded
                shifted = take_buf("lz_mrow", (n_heads, total))
                np.multiply(
                    contrib0, float(shifts[b]), out=shifted, dtype=np.float64
                )
                ps_run += shifted
            log_den_seg = _dense_round(
                b, ps_run, ss_ht, None, margins, state, geo, log_thr,
                take_buf, clock,
            )
            survivors = int(np.count_nonzero(alive))
        else:
            if pidx is None:
                pidx = np.flatnonzero(alive)
            s_max, t = _extend_pairs(b, pidx)
            clock.lap("score_refine")

            log_den_seg, log_den_tok = _log_denominators(
                current_lb, geo, take_buf
            )
            n = pidx.size
            prune = take_buf("pr_prune", (n,), bool)
            margin = take_buf("pr_margin", (n,))
            np.take(log_den_tok.reshape(-1), pidx, out=margin, mode="clip")
            np.subtract(s_max, margin, out=margin)
            np.less_equal(margin, log_thr, out=prune)
            guard_ok = take_buf("pr_ok", (n,), bool)
            np.take(geo.prunable, t, out=guard_ok, mode="clip")
            prune &= guard_ok
            n_dead = int(np.count_nonzero(prune))
            if n_dead:
                scores_flat[pidx[prune]] = s_max[prune]
                pidx = pidx[~prune]
                survivors -= n_dead
            clock.lap("prune")
    round_alive[n_chunks] = survivors

    # kept pairs survived every round, so their running partial scores
    # are the exact full-depth values
    if pidx is None:
        pidx = (
            np.flatnonzero(alive) if survivors else np.zeros(0, dtype=np.intp)
        )
    kept_scores = ps_flat[pidx] * ss_flat[pidx]
    scores_flat[pidx] = kept_scores
    clock.lap("score_refine")
    return pidx, kept_scores, chunks_fetched, scores, log_den_seg, round_alive


def exact_digit_dtype(quant: QuantConfig, head_dim: int) -> type:
    """The narrowest float dtype in which digit-plane scoring is exact.

    Chunk digits reach ``2**chunk_bits - 1`` in magnitude and query codes
    ``|qmin| = 2**(N-1)``, so every partial sum of a ``head_dim``-long
    digit x query dot product lies below ``head_dim * (2**chunk_bits - 1)
    * 2**(N-1)``; full-depth partial scores lie below ``head_dim *
    2**(2N-2)``.  Returns ``np.float32`` when the first bound is under
    ``2**24``, else ``np.float64``; within it every summation order
    yields the same integer, so a BLAS contraction is bit-identical to
    any other.  A format whose second bound, with ``head_dim`` rounded
    up to a power of two, passes ``2**52`` raises ``ValueError`` naming
    it — at ``KVCachePool(...)`` and at the ragged kernel's entry, which
    both call this (the int64 batched reference serves every format).
    """
    if 2 * quant.total_bits - 2 + max(head_dim - 1, 1).bit_length() > 52:
        raise ValueError(
            f"format ({quant.total_bits}, {quant.chunk_bits}) at head_dim "
            f"{head_dim}: full-depth scores pass 2**52, so no float "
            "accumulator scores its digit planes exactly"
        )
    if head_dim * ((1 << quant.chunk_bits) - 1) * -quant.qmin < 2 ** 24:
        return np.float32
    return np.float64


def token_picker_attention_ragged(
    qs: np.ndarray,
    config: TokenPickerConfig,
    *,
    q_scales: np.ndarray,
    k_scales: np.ndarray,
    k_plane_arena: np.ndarray,
    segments: np.ndarray,
    v_arena: Optional[np.ndarray] = None,
    v_scales: Optional[np.ndarray] = None,
    scratch: Optional[KernelScratch] = None,
    phase_times: Optional[Dict[str, float]] = None,
) -> RaggedPickerResult:
    """Fused breadth-schedule Token-Picker over a ragged multi-sequence batch.

    The production kernel — the serving engine's hot path — computing
    straight on views of a KV pool's packed arena:

    * ``qs`` (S, H, d): one query per sequence, quantized here with the
      frozen ``q_scales`` (S, H); ``k_scales`` (S, H) are the scales the
      arena's keys were encoded with.
    * ``k_plane_arena``: the chunk-major (H, C, T_cap, d) planes of
      *unshifted* MSB-first chunk digits in a signed integer dtype (int8
      for chunks of up to 7 bits) — the paper's DRAM layout, every
      (head, chunk) plane a contiguous (T_cap, d) block.  Dense rounds
      cast segment tiles, thin rounds only their gathered rows, to
      :func:`exact_digit_dtype`'s float dtype; each chunk's
      power-of-two shift is applied after the contraction, so
      digit-times-query products stay exact integers.
    * ``v_arena`` (T_cap, H, d): the signed V codes ``clip(rint(v /
      s))``, with the spare code ``qmin - 1`` standing for a code of
      ``-0.0``, and ``v_scales`` (S, H) the scales they were encoded
      with.  Unpack dequantises only the kept rows, ``code * s`` — the
      bits of ``clip(rint(v / s)) * s``, sign of zero included.
      ``v_arena=None`` runs step 0 only (``outputs`` is ``None``).
    * ``segments`` (S, 2): ``(offset, length)`` rows locating each
      sequence's contiguous slab.  The caller appends tokens in place
      and hands over views — no per-step packing copies at all.

    All sequences' tokens share one flat token axis, so every chunk
    round runs **once per batch**: chunk 0 is contracted for every
    token, later chunks only for the (head, token) pairs still
    undecided, and per-sequence reductions (denominator log-sum-exp,
    final softmax, V accumulation) run as ``reduceat`` segment
    reductions.  :func:`token_picker_attention_batched` is the reference
    this kernel is tested against; see :class:`RaggedPickerResult` for
    the exact contract.

    Everything after the dense rounds costs O(alive pairs): the thin
    rounds, the kept pairs' exact scores, their softmax and their V
    rows.  Each sequence's :class:`RaggedSequenceResult` carries its
    kept pairs and per-head aggregates (kept count, chunks fetched, log
    denominator) and its own copy of the two per-token records (scores
    and 1-byte chunk counts); dense ``kept`` / ``probs`` arrays are
    built only when a caller reads them.

    ``scratch`` (a :class:`KernelScratch`) lets a caller reuse the
    kernel's work arrays across steps — no result ever views it;
    ``phase_times`` accumulates
    per-phase wall-clock seconds under ``"score"`` (with its
    ``"score_chunk0"`` / ``"score_refine"`` parts), ``"prune"`` and
    ``"unpack"``.
    """
    if config.schedule != "breadth":
        raise ValueError("ragged kernel supports only the breadth schedule")
    clock = PhaseClock(phase_times)
    quant = config.quant
    n_chunks = quant.n_chunks

    qs = np.asarray(qs, dtype=np.float64)
    if qs.ndim != 3:
        raise ValueError(f"qs must be (S, H, d), got {qs.shape}")
    if not np.isfinite(qs).all():
        raise ValueError("qs must be finite")
    n_seqs, n_heads, head_dim = qs.shape
    q_scale = _checked_scales(q_scales, (n_seqs, n_heads))
    k_scale = _checked_scales(k_scales, (n_seqs, n_heads))

    k_arena = np.asarray(k_plane_arena)
    if k_arena.dtype.kind != "i":
        raise ValueError("k_plane_arena must hold signed integer chunk digits")
    if k_arena.ndim != 4 or (
        k_arena.shape[:2] + k_arena.shape[3:] != (n_heads, n_chunks, head_dim)
    ):
        raise ValueError(
            f"k_plane_arena must be ({n_heads}, {n_chunks}, T, {head_dim}), "
            f"got {k_arena.shape}"
        )
    t_cap = k_arena.shape[2]
    segments = np.asarray(segments, dtype=np.int64)
    if segments.shape != (n_seqs, 2):
        raise ValueError(
            f"segments must be ({n_seqs}, 2) (offset, length) rows, "
            f"got {segments.shape}"
        )
    if np.any(segments < 0) or np.any(segments.sum(axis=1) > t_cap):
        raise ValueError("segments must lie within the arena")
    if v_arena is not None:
        v_arena = np.asarray(v_arena)
        if v_arena.shape != (t_cap, n_heads, head_dim):
            raise ValueError(
                f"v_arena must be ({t_cap}, {n_heads}, "
                f"{head_dim}), got {v_arena.shape}"
            )
        v_neg_zero = quant.qmin - 1
        if v_arena.dtype.kind != "i" or not np.can_cast(
            np.min_scalar_type(v_neg_zero), v_arena.dtype
        ):
            raise ValueError(
                f"v_arena must hold signed integer V codes down to "
                f"qmin - 1 = {v_neg_zero}"
            )
        v_scale = _checked_scales(v_scales, (n_seqs, n_heads))
    accumulator = exact_digit_dtype(quant, head_dim)

    lengths = segments[:, 1]
    results: list = [None] * n_seqs
    for s in np.flatnonzero(lengths == 0):
        results[s] = _empty_sequence(
            n_heads, head_dim, quant, v_arena is not None
        )
    live = np.flatnonzero(lengths > 0)
    if live.size == 0:
        return RaggedPickerResult(results=results)

    geo = _segment_geometry(segments, live, config.prompt_guard)
    take_buf = (scratch if scratch is not None else KernelScratch()).take
    q_codes = _codes(qs, q_scale[:, :, None], quant).astype(np.int64)
    score_scale = q_scale * k_scale / math.sqrt(head_dim)  # (S, H)
    kept_flat, kept_scores, chunks, scores, log_den_seg, round_alive = (
        _score_rounds(
            geo, k_arena, q_codes, score_scale, config, accumulator,
            take_buf, clock,
        )
    )

    # ---- unpack at kept-pair cost.  The kept pairs are regrouped
    # segment-major — group ``i * H + h`` is head ``h`` of live segment
    # ``i``, tokens in order — so every sequence's pairs are one slice;
    # each group's softmax and V sum see the same values in the same
    # order as the reference's, wherever the group sits.  Then one
    # grouped softmax, one flat V-row gather, and each sequence copies
    # its slice of the two per-token records.
    n_live = len(geo.seg_ids)
    total, n_groups = geo.total, n_live * n_heads
    heads = np.arange(n_heads)[:, None]
    # each group's run of the ascending kept pairs, by binary search
    first = np.searchsorted(kept_flat, (heads * total + geo.st).T.ravel())
    counts = np.searchsorted(kept_flat, (heads * total + geo.en).T.ravel())
    counts -= first
    bounds = np.zeros(n_groups + 1, dtype=np.intp)
    np.cumsum(counts, out=bounds[1:])
    # concatenate the groups' runs in segment-major order
    order = np.repeat(first - bounds[:-1], counts)
    order += np.arange(kept_flat.size)
    kept_flat = kept_flat[order]
    flat_probs = _read_only(_grouped_softmax(kept_scores[order], bounds))
    outs = None
    if v_arena is not None:
        # only the *kept* tokens' V rows (keep fraction of the cache) —
        # the step-1 AV the hardware actually fetches
        kh, kt = np.divmod(kept_flat, total)
        codes = take_buf("v_codes", (kept_flat.size, head_dim), v_arena.dtype)
        np.take(
            v_arena.reshape(-1, head_dim),
            (kt + geo.base) * n_heads + kh,  # row (base + t, h)
            axis=0, out=codes, mode="clip",
        )
        v_rows = take_buf("v_rows", (kept_flat.size, head_dim))
        np.copyto(v_rows, codes)
        np.copyto(v_rows, -0.0, where=codes == v_neg_zero)
        v_rows *= v_scale[geo.seq_of_tok[kt], kh][:, None]
        outs = _read_only(
            _grouped_weighted_v(flat_probs, v_rows, bounds).reshape(
                n_live, n_heads, head_dim
            )
        )
    # grid index h * total + st + c  ->  segment grid index h * width + c
    offset = (heads * (total - (geo.en - geo.st)) + geo.st).T.ravel()
    index = _read_only(kept_flat - np.repeat(offset, counts))
    kept_seg = _read_only(counts.reshape(n_live, n_heads))
    chunks_seg = _read_only(
        np.add.reduceat(chunks, geo.reduce_idx, axis=1, dtype=np.int64)[
            :, ::2
        ].T.copy()
    )
    log_den = _read_only(log_den_seg.T.copy())
    cuts = bounds[::n_heads].tolist()
    spans = zip(geo.seg_ids.tolist(), geo.st.tolist(), geo.en.tolist())
    for i, (s, lo, hi) in enumerate(spans):
        k_lo, k_hi = cuts[i], cuts[i + 1]
        results[s] = RaggedSequenceResult(
            scores[:, lo:hi].copy(),
            chunks[:, lo:hi].copy(),
            (index[k_lo:k_hi], flat_probs[k_lo:k_hi]),
            kept_seg[i],
            chunks_seg[i],
            outs[i] if outs is not None else None,
            log_den[i],
            quant,
            head_dim,
        )
    clock.lap("unpack")
    return RaggedPickerResult(results=results, round_alive=round_alive)
