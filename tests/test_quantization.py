"""Unit tests for fixed-point quantization and bit-chunk decomposition."""

import numpy as np
import pytest

from repro.core.config import QuantConfig
from repro.core.quantization import (
    assemble_from_chunks,
    chunk_plane_values,
    compute_scale,
    dequantize,
    from_unsigned,
    partial_values,
    quantize,
    split_chunks,
    to_unsigned,
)

CFG = QuantConfig(total_bits=12, chunk_bits=4)


class TestQuantConfig:
    def test_paper_format(self):
        assert CFG.n_chunks == 3
        assert CFG.qmax == 2047
        assert CFG.qmin == -2048

    def test_known_unknown_bits(self):
        assert CFG.known_bits(1) == 4
        assert CFG.unknown_bits(1) == 8
        assert CFG.residual_max(1) == 255
        assert CFG.residual_max(2) == 15
        assert CFG.residual_max(3) == 0

    def test_invalid_configs(self):
        with pytest.raises(ValueError):
            QuantConfig(total_bits=12, chunk_bits=5)
        with pytest.raises(ValueError):
            QuantConfig(total_bits=1, chunk_bits=1)
        with pytest.raises(ValueError):
            QuantConfig(total_bits=8, chunk_bits=0)

    def test_chunk_count_validation(self):
        with pytest.raises(ValueError):
            CFG.known_bits(4)
        with pytest.raises(ValueError):
            CFG.known_bits(-1)


class TestQuantizeRoundtrip:
    def test_scale_maps_maxabs_to_qmax(self):
        x = np.array([-3.0, 1.0, 2.0])
        scale = compute_scale(x, CFG)
        assert np.isclose(scale, 3.0 / 2047)

    def test_zero_tensor_scale_is_one(self):
        assert compute_scale(np.zeros(5), CFG) == 1.0

    def test_roundtrip_error_bounded(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=1000) * 5
        q = quantize(x, CFG)
        err = np.abs(dequantize(q) - x)
        assert np.all(err <= 0.5 * float(q.scale) + 1e-12)  # half a step

    def test_explicit_scale(self):
        x = np.array([1.0, -1.0])
        q = quantize(x, CFG, scale=0.01)
        assert q.values.tolist() == [100, -100]

    def test_clipping(self):
        q = quantize(np.array([100.0, -100.0]), CFG, scale=0.01)
        assert q.values.tolist() == [CFG.qmax, CFG.qmin]

    def test_negative_scale_rejected(self):
        with pytest.raises(ValueError):
            quantize(np.ones(3), CFG, scale=-1.0)

    def test_per_axis_scale(self):
        x = np.array([[1.0, 2.0], [10.0, 20.0]])
        q = quantize(x, CFG, axis=1)
        # each row's max maps to qmax
        assert q.values[0, 1] == CFG.qmax
        assert q.values[1, 1] == CFG.qmax


class TestBitPatterns:
    def test_unsigned_roundtrip_extremes(self):
        vals = np.array([CFG.qmin, -1, 0, 1, CFG.qmax], dtype=np.int32)
        assert np.array_equal(from_unsigned(to_unsigned(vals, CFG), CFG), vals)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            to_unsigned(np.array([CFG.qmax + 1]), CFG)

    def test_minus_one_is_all_ones(self):
        assert to_unsigned(np.array([-1], dtype=np.int32), CFG)[0] == 0xFFF


class TestChunks:
    def test_split_assemble_roundtrip(self):
        rng = np.random.default_rng(2)
        vals = rng.integers(CFG.qmin, CFG.qmax + 1, size=500).astype(np.int32)
        chunks = split_chunks(vals, CFG)
        assert chunks.shape == (500, 3)
        assert np.all(chunks >= 0) and np.all(chunks < 16)
        assert np.array_equal(assemble_from_chunks(chunks, CFG), vals)

    def test_known_example(self):
        # -5 = 0xFFB -> chunks [0xF, 0xF, 0xB]
        chunks = split_chunks(np.array([-5], dtype=np.int32), CFG)
        assert chunks[0].tolist() == [0xF, 0xF, 0xB]

    def test_partial_is_lower_bound(self):
        rng = np.random.default_rng(3)
        vals = rng.integers(CFG.qmin, CFG.qmax + 1, size=300).astype(np.int32)
        for b in range(1, CFG.n_chunks + 1):
            partial = partial_values(vals, b, CFG)
            resid = vals.astype(np.int64) - partial
            assert np.all(resid >= 0)
            assert np.all(resid <= CFG.residual_max(b))

    def test_partial_zero_chunks_is_qmin(self):
        assert np.all(partial_values(np.array([5, -5]), 0, CFG) == CFG.qmin)

    def test_partial_all_chunks_exact(self):
        vals = np.array([CFG.qmin, -7, 0, 123, CFG.qmax], dtype=np.int32)
        assert np.array_equal(partial_values(vals, CFG.n_chunks, CFG), vals)

    def test_planes_sum_to_value(self):
        rng = np.random.default_rng(4)
        vals = rng.integers(CFG.qmin, CFG.qmax + 1, size=200).astype(np.int32)
        planes = chunk_plane_values(vals, CFG)
        assert np.array_equal(planes.sum(axis=-1), vals.astype(np.int64))

    def test_planes_prefix_equals_partial(self):
        rng = np.random.default_rng(5)
        vals = rng.integers(CFG.qmin, CFG.qmax + 1, size=200).astype(np.int32)
        planes = chunk_plane_values(vals, CFG)
        for b in range(1, CFG.n_chunks + 1):
            prefix = planes[..., :b].sum(axis=-1)
            assert np.array_equal(prefix, partial_values(vals, b, CFG))

    def test_wrong_chunk_count_rejected(self):
        with pytest.raises(ValueError):
            assemble_from_chunks(np.zeros((4, 2), dtype=np.int64), CFG)


class TestOtherFormats:
    @pytest.mark.parametrize("total,chunk", [(8, 2), (8, 4), (12, 6), (16, 4), (6, 2)])
    def test_roundtrip_other_widths(self, total, chunk):
        cfg = QuantConfig(total_bits=total, chunk_bits=chunk)
        rng = np.random.default_rng(total * 31 + chunk)
        vals = rng.integers(cfg.qmin, cfg.qmax + 1, size=200).astype(np.int32)
        assert np.array_equal(assemble_from_chunks(split_chunks(vals, cfg), cfg), vals)
        for b in range(cfg.n_chunks + 1):
            partial = partial_values(vals, b, cfg)
            resid = vals.astype(np.int64) - partial
            assert np.all(resid >= 0)
            assert np.all(resid <= cfg.residual_max(b))
