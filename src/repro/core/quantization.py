"""Symmetric fixed-point quantization and MSB-first bit-chunk decomposition.

The paper stores Q/K/V in 12-bit two's complement and streams K (and V) from
DRAM in three 4-bit chunks per element, most-significant chunk first
(Sec. 4).  The key algebraic fact (Eq. 4) is that for an N-bit two's
complement integer ``a_{N-1} ... a_0`` only the sign bit carries negative
weight::

    w = -a_{N-1} * 2^(N-1) + sum_i a_i * 2^i

The sign bit lives in the *first* chunk, so once chunk 0 has arrived the
remaining unknown bits can only *add* a value in ``[0, 2^u - 1]`` where ``u``
is the number of unknown low bits.  Everything the margin generator and the
estimator need follows from that decomposition, implemented here:

* :func:`quantize` / :func:`dequantize` — symmetric scale, round-to-nearest.
* :func:`split_chunks` — unsigned chunk digits, MSB-first.
* :func:`partial_values` — the signed value implied by a chunk prefix with
  unknown bits set to zero (the hardware's partial operand).
* :func:`assemble_from_chunks` — exact reconstruction (round-trip tested).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple, Union

import numpy as np

from repro.core.config import QuantConfig


@dataclass(frozen=True)
class QuantizedTensor:
    """An integer tensor together with its dequantization scale.

    ``values`` are int32 in ``[qmin, qmax]``; ``scale`` is the real-valued
    step so that ``float ≈ values * scale``.  ``scale`` may be a scalar
    (per-tensor) or broadcastable array (per-row / per-head).
    """

    values: np.ndarray
    scale: np.ndarray
    config: QuantConfig

    def __post_init__(self) -> None:
        if self.values.dtype != np.int32:
            raise TypeError(f"values must be int32, got {self.values.dtype}")

    @property
    def shape(self):
        return self.values.shape

    def dequantize(self) -> np.ndarray:
        """Recover the real-valued tensor (with quantization error)."""
        return self.values.astype(np.float64) * self.scale


def compute_scale(
    x: np.ndarray,
    config: QuantConfig,
    axis: Union[None, int, Tuple[int, ...]] = None,
) -> np.ndarray:
    """Symmetric scale mapping ``max |x|`` to the largest positive code.

    ``axis=None`` gives a per-tensor scale; an axis or tuple of axes
    gives a per-slice scale (kept broadcastable against ``x``).  A zero
    tensor maps to scale 1.0 so downstream division is safe.
    """
    x = np.asarray(x, dtype=np.float64)
    if axis is None:
        max_abs = np.max(np.abs(x)) if x.size else 0.0
        scale = max_abs / config.qmax if max_abs > 0 else 1.0
        return np.float64(scale)
    max_abs = np.max(np.abs(x), axis=axis, keepdims=True)
    scale = np.where(max_abs > 0, max_abs / config.qmax, 1.0)
    return scale


def quantize(
    x: np.ndarray,
    config: QuantConfig,
    scale: Optional[np.ndarray] = None,
    axis: Optional[int] = None,
) -> QuantizedTensor:
    """Quantize ``x`` to the fixed-point format.

    Round-to-nearest, clipped to ``[qmin, qmax]``.  When ``scale`` is not
    given it is computed from the data (see :func:`compute_scale`).
    """
    x = np.asarray(x, dtype=np.float64)
    if scale is None:
        scale = compute_scale(x, config, axis=axis)
    scale = np.asarray(scale, dtype=np.float64)
    if np.any(scale <= 0):
        raise ValueError("quantization scale must be positive")
    codes = np.rint(x / scale)
    codes = np.clip(codes, config.qmin, config.qmax).astype(np.int32)
    return QuantizedTensor(values=codes, scale=scale, config=config)


def dequantize(q: QuantizedTensor) -> np.ndarray:
    """Functional form of :meth:`QuantizedTensor.dequantize`."""
    return q.dequantize()


def to_unsigned(values: np.ndarray, config: QuantConfig) -> np.ndarray:
    """Two's-complement bit pattern of signed codes, as unsigned ints."""
    values = np.asarray(values)
    if np.any(values > config.qmax) or np.any(values < config.qmin):
        raise ValueError("values outside representable range")
    modulus = 1 << config.total_bits
    return (values.astype(np.int64) % modulus).astype(np.int64)


def from_unsigned(pattern: np.ndarray, config: QuantConfig) -> np.ndarray:
    """Inverse of :func:`to_unsigned`: bit pattern back to signed codes."""
    pattern = np.asarray(pattern, dtype=np.int64)
    half = 1 << (config.total_bits - 1)
    modulus = 1 << config.total_bits
    return np.where(pattern >= half, pattern - modulus, pattern).astype(np.int32)


def split_chunks(values: np.ndarray, config: QuantConfig) -> np.ndarray:
    """Decompose signed codes into MSB-first unsigned chunk digits.

    Returns an array of shape ``values.shape + (n_chunks,)`` whose entry
    ``[..., c]`` is the ``chunk_bits``-wide digit of chunk ``c`` (chunk 0
    holds the sign bit).  Digits are raw bit patterns in
    ``[0, 2**chunk_bits - 1]``.
    """
    pattern = to_unsigned(values, config)
    chunks = np.empty(pattern.shape + (config.n_chunks,), dtype=np.int64)
    mask = (1 << config.chunk_bits) - 1
    for c in range(config.n_chunks):
        shift = config.total_bits - (c + 1) * config.chunk_bits
        chunks[..., c] = (pattern >> shift) & mask
    return chunks


def assemble_from_chunks(chunks: np.ndarray, config: QuantConfig) -> np.ndarray:
    """Exact inverse of :func:`split_chunks` (all chunks known)."""
    chunks = np.asarray(chunks, dtype=np.int64)
    if chunks.shape[-1] != config.n_chunks:
        raise ValueError(
            f"expected {config.n_chunks} chunks in last axis, got {chunks.shape[-1]}"
        )
    pattern = np.zeros(chunks.shape[:-1], dtype=np.int64)
    for c in range(config.n_chunks):
        shift = config.total_bits - (c + 1) * config.chunk_bits
        pattern |= chunks[..., c] << shift
    return from_unsigned(pattern, config)


def partial_values(
    values: np.ndarray, n_known_chunks: int, config: QuantConfig
) -> np.ndarray:
    """Signed value implied by the first ``n_known_chunks`` chunks.

    Unknown low bits are taken as zero, which — because every non-sign bit
    has non-negative weight — makes this a *lower* bound on the true code::

        partial <= value <= partial + residual_max

    ``n_known_chunks=0`` returns the trivial bound ``qmin`` (nothing known
    except that the sign bit could be set).
    """
    config._check_chunk_count(n_known_chunks)
    values = np.asarray(values)
    if n_known_chunks == 0:
        return np.full(values.shape, config.qmin, dtype=np.int64)
    pattern = to_unsigned(values, config)
    shift = config.unknown_bits(n_known_chunks)
    high = pattern >> shift
    # Interpret the known high bits as a signed integer of width known_bits,
    # then restore the positional weight with the left shift.
    sign_threshold = 1 << (config.known_bits(n_known_chunks) - 1)
    wrap = 1 << config.known_bits(n_known_chunks)
    signed_high = np.where(high >= sign_threshold, high - wrap, high)
    return (signed_high << shift).astype(np.int64)


def signed_chunk_digit(
    pattern: np.ndarray, c: int, config: QuantConfig
) -> np.ndarray:
    """The ``c``-th MSB-first chunk digit of a two's-complement pattern.

    ``pattern`` is the unsigned bit pattern (:func:`to_unsigned`).  Chunk 0
    carries the sign bit, so its digit is sign-extended to its signed
    value (Eq. 4); chunks 1.. are the raw non-negative digits.
    :func:`chunk_plane_values` builds its digits here; the serving
    engine's arena encoder gets the same digits without the unsigned
    pattern, by arithmetic right shifts of the signed codes (the top
    chunk arrives sign-extended, lower chunks are masked).
    """
    shift = config.total_bits - (c + 1) * config.chunk_bits
    digit = (pattern >> shift) & ((1 << config.chunk_bits) - 1)
    if c == 0:
        sign_threshold = 1 << (config.chunk_bits - 1)
        wrap = 1 << config.chunk_bits
        digit = np.where(digit >= sign_threshold, digit - wrap, digit)
    return digit


def chunk_plane_values(values: np.ndarray, config: QuantConfig) -> np.ndarray:
    """Per-chunk *incremental* signed contributions.

    Returns shape ``values.shape + (n_chunks,)`` with
    ``plane[..., c] = partial_values(c+1) - partial_values(c ...)`` computed
    directly: chunk 0 contributes its signed high value, chunks 1.. add
    their (always non-negative) positional value.  Summing planes 0..b-1
    equals ``partial_values(values, b)``; summing all planes recovers the
    code exactly.  The PE lane's incremental partial-score update is a dot
    product against one plane.
    """
    pattern = to_unsigned(values, config)
    planes = np.empty(pattern.shape + (config.n_chunks,), dtype=np.int64)
    for c in range(config.n_chunks):
        shift = config.total_bits - (c + 1) * config.chunk_bits
        planes[..., c] = signed_chunk_digit(pattern, c, config) << shift
    return planes
