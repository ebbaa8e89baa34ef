"""The pool's one K/V encoder against the quantization reference.

:class:`~repro.serving.kv_pool.KVCachePool` encodes raw K/V on the way in:
chunk digits by arithmetic shifts of narrow signed integer codes, V as
its signed codes with ``-0.0`` as the spare code ``qmin - 1``.  These
tests pin every stored value to the definition —
``signed_chunk_digit(to_unsigned(code))`` for K and, byte for byte,
``clip(rint(v / s)) * s`` for the dequantised V — through both write
paths: ``append`` (the next chunk of a registered prompt, one
sequence's scales) and ``append_rows`` (one decode token per sequence,
per-row scales).  A
format whose full-depth scores pass 2**52 is refused by the pool.  The
encoder walks the token axis in cache-sized tiles: the stored bytes may
not depend on where a tile ends, and ingest memory may not grow with
the prompt.
"""

import tracemalloc

import numpy as np
import pytest

from repro.core.config import QuantConfig
from repro.core.quantization import signed_chunk_digit, to_unsigned
from repro.serving import kv_pool
from repro.serving.kv_pool import KVCachePool, SequenceScales

from pool_helpers import register

N_HEADS, HEAD_DIM, N_TOKENS, PAD = 3, 4, 40, 5

FORMATS = [(8, 4), (12, 4), (12, 6), (12, 12), (16, 4), (16, 8), (40, 8)]


def _scales(per_row: bool) -> np.ndarray:
    """Power-of-two scales, so every test value below is exact."""
    head = 2.0 ** -np.arange(2, 2 + N_HEADS)
    if not per_row:
        return head[None, :]
    return head[None, :] * 2.0 ** -(np.arange(N_TOKENS) % 3)[:, None]


def _edge_codes(
    rng, quant: QuantConfig, shape=(N_TOKENS, N_HEADS, HEAD_DIM)
) -> np.ndarray:
    """Real-valued codes ``(n, H, d)``: integers across the range, exact
    ``.5`` rint ties, the range ends and values beyond
    ``±(qmax + 0.5)``."""
    qmin, qmax = quant.qmin, quant.qmax
    codes = rng.integers(qmin, qmax, size=shape, endpoint=True).astype(
        np.float64
    )
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


def _scoreable(quant: QuantConfig, head_dim: int) -> bool:
    """Whether a float accumulator scores this format's digits exactly
    (the pool refuses the others)."""
    return 2 * quant.total_bits - 2 + (head_dim - 1).bit_length() <= 52


def _append_prompt(pool, keys, values, k_scale, v_scale, cuts):
    """Register sequence 0 with token-major ``keys`` / ``values`` as its
    prompt and append it in chunks of ``cuts`` tokens; returns the arena
    rows they took."""
    assert sum(cuts) == len(keys)
    # a prompt is stored head-major; the pool takes (H, T, d)
    k_prompt = np.ascontiguousarray(keys.transpose(1, 0, 2))
    v_prompt = np.ascontiguousarray(values.transpose(1, 0, 2))
    register(
        pool, 0, (k_prompt, v_prompt),
        scales=_seq_scales(k_scale[0], v_scale[0]),
    )
    for cut in cuts:
        pool.append(0, cut)
    offset, length = pool.segment(0)
    assert length == len(keys)
    return np.arange(offset, offset + length)


def _assert_stored(pool, rows, keys, values, k_scale, v_scale, quant):
    """The pool's ``rows`` hold the reference encoding of ``keys`` /
    ``values`` (n, H, d) under scales ``(n or 1, H)``, V byte for byte
    once dequantised; returns the expected digits ``(n, H, C, d)``."""
    n, n_heads, head_dim = keys.shape
    k_scale = np.broadcast_to(k_scale, (n, n_heads))
    v_scale = np.broadcast_to(v_scale, (n, n_heads))
    pattern = to_unsigned(_reference(keys, k_scale, quant), quant)
    expected_k = np.stack(
        [signed_chunk_digit(pattern, c, quant) for c in range(quant.n_chunks)],
        axis=2,
    )
    v_float = np.clip(
        np.rint(values / v_scale[:, :, None]), quant.qmin, quant.qmax
    )
    expected_v = v_float * v_scale[:, :, None]  # -0.0 where v / s rounds to it
    expected_codes = np.where(
        np.signbit(v_float) & (v_float == 0), quant.qmin - 1, v_float
    )
    assert (expected_codes == quant.qmin - 1).any()  # a -0.0 code is stored
    k_rows, v_rows = pool.read_rows(rows)
    assert np.array_equal(
        k_rows.reshape(n, n_heads, quant.n_chunks, head_dim), expected_k
    )
    assert np.array_equal(v_rows, expected_codes)
    deq = _dequantised(v_rows, v_scale, quant)
    assert deq.tobytes() == expected_v.tobytes()
    return expected_k


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
    if not _scoreable(quant, HEAD_DIM):
        # no float accumulator scores these digits exactly: refused
        with pytest.raises(ValueError, match=rf"\({fmt[0]}, {fmt[1]}\)"):
            KVCachePool(N_HEADS, HEAD_DIM, quant, capacity_tokens=64)
        return
    rng = np.random.default_rng(sum(fmt) + per_row)
    k_scale, v_scale = _scales(per_row), _scales(per_row) * 0.5
    keys = _edge_codes(rng, quant) * k_scale[:, :, None]  # (n, H, d)
    values = _edge_codes(rng, quant) * v_scale[:, :, None]

    pool = KVCachePool(
        N_HEADS, HEAD_DIM, quant, capacity_tokens=64, block_size=1
    )
    register(pool, -1)
    pool.append_slots(-1, PAD)  # the encoded rows start mid-arena
    if per_row:
        ids = list(range(N_TOKENS))
        for i in ids:
            register(pool, i, scales=_seq_scales(k_scale[i], v_scale[i]))
        pool.append_rows(ids, keys, values)
        rows = pool.segments_of(ids)[:, 0]
    else:
        rows = _append_prompt(pool, keys, values, k_scale, v_scale, [17, 23])
    expected_k = _assert_stored(pool, rows, keys, values, k_scale, v_scale, quant)
    if not per_row:
        planes = pool.k_arena[:, :, rows[0]:rows[-1] + 1]  # (H, C, n, d)
        assert np.array_equal(planes.transpose(2, 0, 1, 3), expected_k)
    # the neighbouring sequence's rows were not touched
    assert not pool.k_arena[:, :, :PAD].any() and not pool.v_arena[:PAD].any()


def test_ties_round_to_even_and_range_ends_saturate():
    """Spot values, independent of the reference helpers."""
    quant = QuantConfig()
    scale = np.array([0.25])
    pool = KVCachePool(1, 1, quant, capacity_tokens=8, block_size=1)
    keys = np.array(
        [2.5, 3.5, -2.5, quant.qmax + 0.5, -(quant.qmax + 0.5), 1e9]
    )[None, :, None] * 0.25
    register(pool, 0, (keys, keys), scales=_seq_scales(scale, scale))
    pool.append(0, 6)
    k_out, v_out = pool.read_rows(np.arange(6))
    codes = [2, 4, -2, quant.qmax, quant.qmin, quant.qmax]
    assert v_out.ravel().tolist() == codes
    # 12-bit code -> three 4-bit digits, the top one signed
    assert k_out[4, :, 0].tolist() == [-8, 0, 0]  # qmin = 0x800
    assert k_out[3, :, 0].tolist() == [7, 15, 15]  # qmax = 0x7ff
    assert k_out[2, :, 0].tolist() == [-1, 15, 14]  # -2 = 0xffe


# the real head shape, so a tile is a few hundred tokens
TILE_HEADS, TILE_DIM = 4, 64
TILE_ROWS = kv_pool._TILE_BYTES // (
    TILE_HEADS * TILE_DIM * np.dtype(np.float64).itemsize
)
TILE_FORMATS = [f for f in FORMATS if _scoreable(QuantConfig(*f), TILE_DIM)]


def _tile_edge_data(rng, quant: QuantConfig, n: int, per_row: bool):
    """``n`` tokens of raw K/V ``(n, H, d)`` with their power-of-two
    scales ``(n or 1, H)``; the rows on either side of every tile edge
    hold rint ties, saturating values and V codes of ``-0.0``."""
    head = 2.0 ** -np.arange(2, 2 + TILE_HEADS)
    k_scale = head[None, :]
    if per_row:
        k_scale = k_scale * 2.0 ** -(np.arange(n) % 3)[:, None]
    v_scale = k_scale * 0.5
    shape = (n, TILE_HEADS, TILE_DIM)
    k_codes, v_codes = _edge_codes(rng, quant, shape), _edge_codes(rng, quant, shape)
    qmin, qmax = quant.qmin, quant.qmax
    edge_k = np.array([
        2.5, -2.5, qmax - 0.5, qmin + 0.5, qmax + 0.5, -(qmax + 0.5),
        qmax + 3, qmin - 3, 4 * qmax, -4.0 * qmax, 0.5, -0.5,
    ])
    edge_v = np.array([-0.0, -0.25, -0.5, 0.5, qmax + 3, qmin - 3, 1.5])
    for edge in range(TILE_ROWS, n, TILE_ROWS):
        for row in (edge - 1, edge, edge + 1):
            if row < n:
                k_codes[row].reshape(-1)[: edge_k.size] = edge_k
                v_codes[row].reshape(-1)[: edge_v.size] = edge_v
                k_codes[row, :, -1] = rng.permutation(edge_k)[:TILE_HEADS]
    keys = k_codes * k_scale[:, :, None]
    values = v_codes * v_scale[:, :, None]
    return keys, values, k_scale, v_scale


N_TILED = 2 * TILE_ROWS + 3
# whole, then cuts of rows - 1 and rows + 1 tokens that straddle edges
TILE_CUTS = {
    "whole": [N_TILED],
    "straddled": [TILE_ROWS - 1, TILE_ROWS + 1, 3],
}


@pytest.mark.parametrize("cuts", TILE_CUTS.values(), ids=TILE_CUTS.keys())
@pytest.mark.parametrize("fmt", TILE_FORMATS, ids=lambda f: f"{f[0]}b{f[1]}")
def test_prompt_bytes_do_not_depend_on_tile_edges(fmt, cuts):
    """A prompt of two tiles and three tokens, appended whole or in
    chunks that start and end off the tile grid, stores the reference's
    bytes at every row."""
    quant = QuantConfig(*fmt)
    rng = np.random.default_rng(sum(fmt) + len(cuts))
    keys, values, k_scale, v_scale = _tile_edge_data(rng, quant, N_TILED, False)
    pool = KVCachePool(
        TILE_HEADS, TILE_DIM, quant, capacity_tokens=N_TILED + PAD,
        block_size=1,
    )
    register(pool, -1)
    pool.append_slots(-1, PAD)
    rows = _append_prompt(pool, keys, values, k_scale, v_scale, cuts)
    _assert_stored(pool, rows, keys, values, k_scale, v_scale, quant)
    assert not pool.k_arena[:, :, :PAD].any() and not pool.v_arena[:PAD].any()


@pytest.mark.parametrize("fmt", TILE_FORMATS, ids=lambda f: f"{f[0]}b{f[1]}")
def test_decode_rows_past_one_tile(fmt):
    """``append_rows`` with more sequences than one tile's rows, each
    with its own scales."""
    quant = QuantConfig(*fmt)
    n = TILE_ROWS + 3
    rng = np.random.default_rng(sum(fmt))
    keys, values, k_scale, v_scale = _tile_edge_data(rng, quant, n, True)
    pool = KVCachePool(
        TILE_HEADS, TILE_DIM, quant, capacity_tokens=n, block_size=1
    )
    ids = list(range(n))
    for i in ids:
        register(pool, i, scales=_seq_scales(k_scale[i], v_scale[i]))
    pool.append_rows(ids, keys, values)
    rows = pool.segments_of(ids)[:, 0]
    _assert_stored(pool, rows, keys, values, k_scale, v_scale, quant)


def _append_peak_bytes(n_tokens: int) -> int:
    """Traced peak of one ``append`` of an ``n_tokens`` prompt, above
    the inputs and the pool (both allocated before tracing starts)."""
    rng = np.random.default_rng(n_tokens)
    quant = QuantConfig()
    shape = (TILE_HEADS, n_tokens, TILE_DIM)
    keys, values = rng.normal(size=shape), rng.normal(size=shape)
    pool = KVCachePool(TILE_HEADS, TILE_DIM, quant, capacity_tokens=n_tokens)
    register(pool, 0, (keys, values))  # scales frozen at 1.25
    tracemalloc.start()
    try:
        pool.append(0, n_tokens)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_ingest_memory_does_not_grow_with_the_prompt():
    """A 4,096-token prompt (8 MiB of float64 K) is ingested with the
    same temporaries as a 512-token one: one tile's worth."""
    short, long = _append_peak_bytes(512), _append_peak_bytes(4096)
    assert long < 2 << 20
    assert long <= 1.5 * short
