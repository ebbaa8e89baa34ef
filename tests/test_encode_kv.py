"""The pool's one K/V encoder against the quantization reference.

:class:`~repro.serving.kv_pool.KVCachePool` encodes raw K/V on the way in:
chunk digits by arithmetic shifts of narrow signed integer codes, V as
its signed codes with ``-0.0`` as the spare code ``qmin - 1``.  These
tests pin every stored value to the definition —
``signed_chunk_digit(to_unsigned(code))`` for K and, byte for byte,
``clip(rint(v / s)) * s`` for the dequantised V — through both write
paths: ``append`` (a prefill chunk, one sequence's scales) and
``append_rows`` (one decode token per sequence, per-row scales).  A
format whose full-depth scores pass 2**52 is refused by the pool.
"""

import numpy as np
import pytest

from repro.core.config import QuantConfig
from repro.core.quantization import signed_chunk_digit, to_unsigned
from repro.serving.kv_pool import KVCachePool, SequenceScales

N_HEADS, HEAD_DIM, N_TOKENS, PAD = 3, 4, 40, 5

FORMATS = [(8, 4), (12, 4), (12, 6), (12, 12), (16, 4), (16, 8), (40, 8)]


def _scales(per_row: bool) -> np.ndarray:
    """Power-of-two scales, so every test value below is exact."""
    head = 2.0 ** -np.arange(2, 2 + N_HEADS)
    if not per_row:
        return head[None, :]
    return head[None, :] * 2.0 ** -(np.arange(N_TOKENS) % 3)[:, None]


def _edge_codes(rng, quant: QuantConfig) -> np.ndarray:
    """Real-valued codes ``(n, H, d)``: integers across the range, exact
    ``.5`` rint ties, the range ends and values beyond
    ``±(qmax + 0.5)``."""
    qmin, qmax = quant.qmin, quant.qmax
    codes = rng.integers(qmin, qmax, size=(N_TOKENS, N_HEADS, HEAD_DIM),
                         endpoint=True).astype(np.float64)
    flat = codes.reshape(-1)
    ties = rng.integers(qmin, qmax, size=24)
    flat[:24] = ties + 0.5
    flat[24:40] = [
        qmin, qmax, qmax + 0.5, -(qmax + 0.5), qmin - 0.5, qmax + 3,
        qmin - 3, 4 * qmax, -4.0 * qmax, 0.5, -0.5, 1.5, -1.5, 2.5, -2.5, 0.0,
    ]
    rng.shuffle(flat)
    return codes


def _reference(x: np.ndarray, scale: np.ndarray, quant: QuantConfig):
    codes = np.clip(np.rint(x / scale[:, :, None]), quant.qmin, quant.qmax)
    return codes.astype(np.int64)


def _seq_scales(k_scale: np.ndarray, v_scale: np.ndarray) -> SequenceScales:
    return SequenceScales(q_scale=k_scale, k_scale=k_scale, v_scale=v_scale)


def _dequantised(v_codes: np.ndarray, scale: np.ndarray, quant: QuantConfig):
    """Stored V codes back to floats: the kernel's ``code * s``, with the
    spare code ``qmin - 1`` read as ``-0.0``."""
    codes = np.where(v_codes == quant.qmin - 1, -0.0, v_codes)
    return codes * scale[:, :, None]


@pytest.mark.parametrize("per_row", [False, True], ids=["broadcast", "per_row"])
@pytest.mark.parametrize("fmt", FORMATS, ids=lambda f: f"{f[0]}b{f[1]}")
def test_encoder_matches_reference(fmt, per_row):
    """``broadcast``: one sequence's prompt, appended mid-arena in two
    chunks.  ``per_row``: one decode token for each of ``N_TOKENS``
    sequences, each with its own scales."""
    quant = QuantConfig(*fmt)
    if 2 * quant.total_bits - 2 + (HEAD_DIM - 1).bit_length() > 52:
        # no float accumulator scores these digits exactly: refused
        with pytest.raises(ValueError, match=rf"\({fmt[0]}, {fmt[1]}\)"):
            KVCachePool(N_HEADS, HEAD_DIM, quant, capacity_tokens=64)
        return
    n_chunks = quant.n_chunks
    rng = np.random.default_rng(sum(fmt) + per_row)
    k_scale, v_scale = _scales(per_row), _scales(per_row) * 0.5
    keys = _edge_codes(rng, quant) * k_scale[:, :, None]  # (n, H, d)
    values = _edge_codes(rng, quant) * v_scale[:, :, None]

    codes = _reference(keys, k_scale, quant)
    pattern = to_unsigned(codes, quant)
    expected_k = np.stack(
        [signed_chunk_digit(pattern, c, quant) for c in range(n_chunks)],
        axis=2,
    )  # (n, H, C, d)
    v_float = np.clip(
        np.rint(values / v_scale[:, :, None]), quant.qmin, quant.qmax
    )
    expected_v = v_float * v_scale[:, :, None]  # -0.0 where v / s rounds to it
    expected_codes = np.where(
        np.signbit(v_float) & (v_float == 0), quant.qmin - 1, v_float
    )
    assert (expected_codes == quant.qmin - 1).any()  # a -0.0 code is stored

    pool = KVCachePool(
        N_HEADS, HEAD_DIM, quant, capacity_tokens=64, block_size=1
    )
    pool.register(-1)
    pool.append_slots(-1, PAD)  # the encoded rows start mid-arena
    if per_row:
        ids = list(range(N_TOKENS))
        for i in ids:
            pool.register(i, scales=_seq_scales(k_scale[i], v_scale[i]))
        pool.append_rows(ids, keys, values)
        rows = pool.segments_of(ids)[:, 0]
    else:
        pool.register(0, scales=_seq_scales(k_scale[0], v_scale[0]))
        # a prompt is stored head-major; the pool takes (H, n, d) slices
        k_prompt = np.ascontiguousarray(keys.transpose(1, 0, 2))
        v_prompt = np.ascontiguousarray(values.transpose(1, 0, 2))
        for lo, hi in ((0, 17), (17, N_TOKENS)):
            pool.append(0, k_prompt[:, lo:hi], v_prompt[:, lo:hi])
        offset, length = pool.segment(0)
        assert length == N_TOKENS
        rows = np.arange(offset, offset + length)
        planes = pool.k_arena[:, :, offset:offset + length]  # (H, C, n, d)
        assert np.array_equal(planes.transpose(2, 0, 1, 3), expected_k)
    k_rows, v_rows = pool.read_rows(rows)
    assert np.array_equal(
        k_rows.reshape(N_TOKENS, N_HEADS, n_chunks, HEAD_DIM), expected_k
    )
    assert np.array_equal(v_rows, expected_codes)
    row_scale = np.broadcast_to(v_scale, (N_TOKENS, N_HEADS))
    deq = _dequantised(v_rows, row_scale, quant)
    assert deq.tobytes() == expected_v.tobytes()
    # the neighbouring sequence's rows were not touched
    assert not pool.k_arena[:, :, :PAD].any() and not pool.v_arena[:PAD].any()


def test_ties_round_to_even_and_range_ends_saturate():
    """Spot values, independent of the reference helpers."""
    quant = QuantConfig()
    scale = np.array([0.25])
    pool = KVCachePool(1, 1, quant, capacity_tokens=8, block_size=1)
    pool.register(0, scales=_seq_scales(scale, scale))
    keys = np.array(
        [2.5, 3.5, -2.5, quant.qmax + 0.5, -(quant.qmax + 0.5), 1e9]
    )[None, :, None] * 0.25
    pool.append(0, keys, keys)
    k_out, v_out = pool.read_rows(np.arange(6))
    codes = [2, 4, -2, quant.qmax, quant.qmin, quant.qmax]
    assert v_out.ravel().tolist() == codes
    # 12-bit code -> three 4-bit digits, the top one signed
    assert k_out[4, :, 0].tolist() == [-8, 0, 0]  # qmin = 0x800
    assert k_out[3, :, 0].tolist() == [7, 15, 15]  # qmax = 0x7ff
    assert k_out[2, :, 0].tolist() == [-1, 15, 14]  # -2 = 0xffe

