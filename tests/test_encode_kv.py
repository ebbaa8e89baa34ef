"""The engine's one K/V encoder against the quantization reference.

``_encode_kv_into`` derives chunk digits by arithmetic shifts of narrow
signed integer codes and quantizes V in place; these tests pin every
stored value to the definition: ``signed_chunk_digit(to_unsigned(code))``
for K and ``clip(rint(v / s)) * s`` for V.
"""

import numpy as np
import pytest

from repro.core.config import QuantConfig
from repro.core.pruning import exact_digit_dtype
from repro.core.quantization import signed_chunk_digit, to_unsigned
from repro.serving.engine import _encode_kv_into
from repro.serving.kv_pool import KVCachePool

N_HEADS, HEAD_DIM, N_TOKENS = 3, 4, 40

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


def _head_major_view(x: np.ndarray) -> np.ndarray:
    """``x`` stored head-major, seen token-major — the strided view
    prefill hands the encoder for a prompt slice."""
    return np.ascontiguousarray(x.transpose(1, 0, 2)).transpose(1, 0, 2)


def _reference(x: np.ndarray, scale: np.ndarray, quant: QuantConfig):
    codes = np.clip(np.rint(x / scale[:, :, None]), quant.qmin, quant.qmax)
    return codes.astype(np.int64)


@pytest.mark.parametrize("per_row", [False, True], ids=["broadcast", "per_row"])
@pytest.mark.parametrize("fmt", FORMATS, ids=lambda f: f"{f[0]}b{f[1]}")
def test_encoder_matches_reference(fmt, per_row):
    quant = QuantConfig(*fmt)
    n_chunks = quant.n_chunks
    rng = np.random.default_rng(sum(fmt) + per_row)
    k_scale, v_scale = _scales(per_row), _scales(per_row) * 0.5
    keys = _head_major_view(_edge_codes(rng, quant) * k_scale[:, :, None])
    values = _head_major_view(_edge_codes(rng, quant) * v_scale[:, :, None])

    codes = _reference(keys, k_scale, quant)
    if quant.total_bits > 32:
        # an int32 cast would wrap these
        assert np.abs(codes).max() > np.iinfo(np.int32).max
    pattern = to_unsigned(codes, quant)
    expected_k = np.stack(
        [signed_chunk_digit(pattern, c, quant) for c in range(n_chunks)],
        axis=2,
    )  # (n, H, C, d)
    expected_v = _reference(values, v_scale, quant) * v_scale[:, :, None]

    k_dtype = (
        np.float64 if quant.total_bits > 32
        else exact_digit_dtype(quant, HEAD_DIM)
    )
    pool = KVCachePool(
        n_heads=N_HEADS, head_dim=HEAD_DIM, capacity_tokens=64, block_size=8,
        k_heads=N_HEADS * n_chunks, k_dtype=k_dtype,
    )
    pool.register(0)
    pool.register(1)
    pool.append_slots(0, 5)  # the plane view starts mid-arena
    k_slots, v_slots = pool.append_slots(1, N_TOKENS)
    staged_k = np.empty((N_TOKENS, N_HEADS * n_chunks, HEAD_DIM), k_dtype)
    staged_v = np.empty((N_TOKENS, N_HEADS, HEAD_DIM))
    for k_out, v_out in ((k_slots, v_slots), (staged_k, staged_v)):
        _encode_kv_into(keys, values, k_scale, v_scale, quant, k_out, v_out)

    offset, length = pool.segment(1)
    planes = pool.k_arena[:, :, offset:offset + length]  # (H, C, n, d)
    assert np.array_equal(planes.transpose(2, 0, 1, 3), expected_k)
    assert np.array_equal(
        staged_k.reshape(N_TOKENS, N_HEADS, n_chunks, HEAD_DIM), expected_k
    )
    assert np.array_equal(pool.v_arena[offset:offset + length], expected_v)
    assert np.array_equal(staged_v, expected_v)
    # the neighbouring sequence's rows were not touched
    assert not pool.k_arena[:, :, :5].any() and not pool.v_arena[:5].any()


def test_ties_round_to_even_and_range_ends_saturate():
    """Spot values, independent of the reference helpers."""
    quant = QuantConfig()
    scale = np.array([[0.25]])
    keys = np.array(
        [2.5, 3.5, -2.5, quant.qmax + 0.5, -(quant.qmax + 0.5), 1e9]
    )[:, None, None] * 0.25
    k_out = np.empty((6, quant.n_chunks, 1), np.float32)
    v_out = np.empty((6, 1, 1))
    _encode_kv_into(keys, keys, scale, scale, quant, k_out, v_out)
    codes = [2, 4, -2, quant.qmax, quant.qmin, quant.qmax]
    assert np.array_equal(v_out.ravel(), np.array(codes) * 0.25)
    # 12-bit code -> three 4-bit digits, the top one signed
    assert k_out[4, :, 0].tolist() == [-8, 0, 0]  # qmin = 0x800
    assert k_out[3, :, 0].tolist() == [7, 15, 15]  # qmax = 0x7ff
    assert k_out[2, :, 0].tolist() == [-1, 15, 14]  # -2 = 0xffe
