"""Ragged-batch kernel equivalence: fused == N independent batched calls.

The serving engine's correctness rests on one property: running N
sequences with mixed context lengths through one fused call on the packed
arena changes *nothing* — every pruning decision, fetched-chunk count,
probability, output and traffic statistic is bit-identical to calling the
rectangular reference ``token_picker_attention_batched`` on each sequence
alone, and a pruned token's reported score is its certified upper bound.
These tests assert exact (``array_equal``, not ``allclose``) equality,
property-based over mixed lengths, head counts, thresholds, chunk
formats, arena dtypes and frozen-vs-derived scales.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import (
    QuantConfig,
    TokenPickerConfig,
    token_picker_attention_batched,
    token_picker_attention_ragged,
)
from repro.core.pruning import KernelScratch
from repro.core.quantization import split_chunks


def _make_batch(rng, n_seqs, n_heads, head_dim, max_len):
    lengths = rng.integers(1, max_len + 1, size=n_seqs)
    qs, keys, values = [], [], []
    for t in lengths:
        k = rng.normal(size=(n_heads, int(t), head_dim))
        v = rng.normal(size=(n_heads, int(t), head_dim))
        q = k[:, -1] * 2 + 0.3 * rng.normal(size=(n_heads, head_dim))
        qs.append(q)
        keys.append(k)
        values.append(v)
    return np.stack(qs), keys, values


def _oracle_scales(arrays, quant):
    """(S, H) per-head data maxima over qmax — the scales the rectangular
    kernel derives when none are passed (1.0 for all-zero or empty data)."""
    out = np.ones((len(arrays), arrays[0].shape[0]))
    for s, a in enumerate(arrays):
        if a.size:
            max_abs = np.abs(a).reshape(a.shape[0], -1).max(axis=1)
            out[s] = np.where(max_abs > 0, max_abs / quant.qmax, 1.0)
    return out


def _build_arena(keys, values, k_sc, v_sc, quant, dtype, gap=5):
    """Token-major packed arena (unshifted chunk digits + deq V) with dead
    inter-segment gaps, as the serving pool lays sequences out."""
    n_seqs = len(keys)
    n_heads, _, head_dim = keys[0].shape
    cap = sum(int(k.shape[1]) for k in keys) + gap * (n_seqs + 1)
    k_arena = np.zeros((cap, n_heads * quant.n_chunks, head_dim), dtype=dtype)
    v_arena = np.zeros((cap, n_heads, head_dim))
    segments = np.zeros((n_seqs, 2), dtype=np.int64)
    offset = gap
    for s in range(n_seqs):
        t = int(keys[s].shape[1])
        codes = np.clip(
            np.rint(keys[s] / k_sc[s][:, None, None]), quant.qmin, quant.qmax
        ).astype(np.int64)
        digits = split_chunks(codes, quant)  # (H, t, d, C) unsigned
        sign_threshold = 1 << (quant.chunk_bits - 1)
        wrap = 1 << quant.chunk_bits
        first = digits[..., 0]
        digits[..., 0] = np.where(
            first >= sign_threshold, first - wrap, first
        )
        k_arena[offset:offset + t] = digits.transpose(1, 0, 3, 2).reshape(
            t, n_heads * quant.n_chunks, head_dim
        )
        vsc = v_sc[s][:, None, None]
        v_arena[offset:offset + t] = (
            np.clip(np.rint(values[s] / vsc), quant.qmin, quant.qmax) * vsc
        ).transpose(1, 0, 2)
        segments[s] = (offset, t)
        offset += t + gap
    return k_arena, v_arena, segments


def _run_arena(
    qs, keys, values, config, q_sc, k_sc, v_sc=None, dtype=np.float64,
    scratch=None,
):
    """Encode the batch into a gapped arena and run the fused kernel;
    ``values=None`` runs scores-only (no V arena)."""
    k_arena, v_arena, segments = _build_arena(
        keys,
        values if values is not None else [np.zeros_like(k) for k in keys],
        k_sc,
        v_sc if v_sc is not None else np.ones_like(k_sc),
        config.quant,
        dtype,
    )
    return token_picker_attention_ragged(
        qs, config,
        q_scales=q_sc, k_scales=k_sc,
        k_plane_arena=k_arena, segments=segments,
        v_arena=v_arena if values is not None else None,
        scratch=scratch,
    )


def _assert_identical(ragged_result, independent, scores="bound"):
    """Bit-identity of every decision-bearing field.

    ``scores="bound"`` is the arena kernel's contract: kept tokens'
    scores are the exact full-depth values, while a pruned token's
    reported score is its certified upper bound at the round that pruned
    it (``p'' >= p``, so the reported score dominates the exact one; its
    remaining chunks are never fetched).  ``scores="exact"`` additionally
    requires the full score matrix to match (nothing pruned, or two calls
    of the same kernel).
    """
    assert np.array_equal(ragged_result.kept, independent.kept)
    assert np.array_equal(ragged_result.chunks_fetched, independent.chunks_fetched)
    if scores == "exact":
        assert np.array_equal(ragged_result.scores, independent.scores)
    else:
        kept = independent.kept
        assert np.array_equal(ragged_result.scores[kept], independent.scores[kept])
        pruned_lazy = ragged_result.scores[~kept]
        pruned_exact = independent.scores[~kept]
        assert np.all(
            pruned_lazy >= pruned_exact - (1e-9 + 1e-9 * np.abs(pruned_exact))
        )
    assert np.array_equal(ragged_result.probs, independent.probs)
    assert np.array_equal(
        ragged_result.log_denominators, independent.log_denominators
    )
    if independent.outputs is None:
        assert ragged_result.outputs is None
    else:
        assert np.array_equal(ragged_result.outputs, independent.outputs)
    assert ragged_result.stats() == independent.stats()


class TestBitIdenticalEquivalence:
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        seed=st.integers(0, 2**31 - 1),
        n_seqs=st.integers(1, 6),
        n_heads=st.integers(1, 3),
        max_len=st.integers(1, 160),
        threshold=st.sampled_from([1e-2, 2e-3, 1e-4]),
        frozen_scales=st.booleans(),
    )
    def test_property_mixed_lengths(
        self, seed, n_seqs, n_heads, max_len, threshold, frozen_scales
    ):
        rng = np.random.default_rng(seed)
        head_dim = int(rng.integers(4, 33))
        config = TokenPickerConfig(threshold=threshold)
        qs, keys, values = _make_batch(rng, n_seqs, n_heads, head_dim, max_len)
        if frozen_scales:
            q_sc, k_sc, v_sc = (
                rng.uniform(0.005, 0.05, size=(n_seqs, n_heads))
                for _ in range(3)
            )
            explicit = [
                {"q_scales": q_sc[s], "k_scales": k_sc[s], "v_scales": v_sc[s]}
                for s in range(n_seqs)
            ]
        else:
            # the scales the rectangular kernel derives on its own
            q_sc = _oracle_scales(list(qs), config.quant)
            k_sc = _oracle_scales(keys, config.quant)
            v_sc = _oracle_scales(values, config.quant)
            explicit = [{}] * n_seqs
        ragged = _run_arena(
            qs, keys, values, config, q_sc, k_sc, v_sc,
            dtype=(np.float32, np.float64)[seed % 2],
        )
        for s in range(n_seqs):
            independent = token_picker_attention_batched(
                qs[s], keys[s], values[s], config, **explicit[s]
            )
            _assert_identical(ragged.results[s], independent)

    def test_long_contexts_past_pairwise_summation_blocks(self):
        """Lengths above numpy's 128-element pairwise-sum block still match."""
        rng = np.random.default_rng(7)
        config = TokenPickerConfig(threshold=2e-3)
        qs, keys, values = _make_batch(rng, 4, 2, 48, 700)
        ragged = _run_arena(
            qs, keys, values, config,
            _oracle_scales(list(qs), config.quant),
            _oracle_scales(keys, config.quant),
            _oracle_scales(values, config.quant),
        )
        for s in range(4):
            _assert_identical(
                ragged.results[s],
                token_picker_attention_batched(qs[s], keys[s], values[s], config),
            )

    def test_scores_only_mode(self):
        rng = np.random.default_rng(3)
        config = TokenPickerConfig(threshold=2e-3)
        qs, keys, _ = _make_batch(rng, 3, 2, 16, 60)
        ragged = _run_arena(
            qs, keys, None, config,
            _oracle_scales(list(qs), config.quant),
            _oracle_scales(keys, config.quant),
        )
        for s in range(3):
            independent = token_picker_attention_batched(
                qs[s], keys[s], None, config
            )
            _assert_identical(ragged.results[s], independent)

    def test_wide_chunk_format(self):
        quant = QuantConfig(total_bits=8, chunk_bits=2)
        config = TokenPickerConfig(threshold=2e-3, quant=quant)
        rng = np.random.default_rng(11)
        qs, keys, values = _make_batch(rng, 3, 2, 8, 70)
        ragged = _run_arena(
            qs, keys, values, config,
            _oracle_scales(list(qs), quant),
            _oracle_scales(keys, quant),
            _oracle_scales(values, quant),
            dtype=np.float32,
        )
        for s in range(3):
            _assert_identical(
                ragged.results[s],
                token_picker_attention_batched(qs[s], keys[s], values[s], config),
            )

    def test_arena_path_matches_batched(self):
        """The zero-copy packed-arena path (token-major digit planes +
        segment table, dead gaps between slabs) must be bit-identical to
        independent batched calls — the serving engine's contract — in
        both digit storage widths."""
        for dtype, seed in ((np.float32, 0), (np.float64, 1)):
            rng = np.random.default_rng(seed)
            config = TokenPickerConfig(threshold=2e-3)
            n_seqs, n_heads, head_dim = 4, 2, 24
            qs, keys, values = _make_batch(rng, n_seqs, n_heads, head_dim, 120)
            q_sc = rng.uniform(0.005, 0.05, size=(n_seqs, n_heads))
            k_sc = rng.uniform(0.005, 0.05, size=(n_seqs, n_heads))
            v_sc = rng.uniform(0.005, 0.05, size=(n_seqs, n_heads))
            arena = _run_arena(
                qs, keys, values, config, q_sc, k_sc, v_sc, dtype,
                scratch=KernelScratch(),
            )
            for s in range(n_seqs):
                independent = token_picker_attention_batched(
                    qs[s], keys[s], values[s], config,
                    q_scales=q_sc[s], k_scales=k_sc[s], v_scales=v_sc[s],
                )
                _assert_identical(arena.results[s], independent)

    def test_arena_scratch_reuse_across_growing_steps(self):
        """Reusing one scratch across calls with growing shapes (the
        engine's decode loop) must not change any result."""
        rng = np.random.default_rng(7)
        config = TokenPickerConfig(threshold=2e-3)
        n_seqs, n_heads, head_dim = 3, 2, 16
        scratch = KernelScratch()
        for max_len in (40, 70, 110):
            qs, keys, values = _make_batch(rng, n_seqs, n_heads, head_dim, max_len)
            q_sc = rng.uniform(0.005, 0.05, size=(n_seqs, n_heads))
            k_sc = rng.uniform(0.005, 0.05, size=(n_seqs, n_heads))
            v_sc = rng.uniform(0.005, 0.05, size=(n_seqs, n_heads))
            arena = _run_arena(
                qs, keys, values, config, q_sc, k_sc, v_sc, np.float32,
                scratch=scratch,
            )
            for s in range(n_seqs):
                _assert_identical(
                    arena.results[s],
                    token_picker_attention_batched(
                        qs[s], keys[s], values[s], config,
                        q_scales=q_sc[s], k_scales=k_sc[s], v_scales=v_sc[s],
                    ),
                )

    def test_arena_validation(self):
        rng = np.random.default_rng(0)
        config = TokenPickerConfig()
        quant = config.quant
        qs = rng.normal(size=(1, 2, 8))
        arena = np.zeros((32, 2 * quant.n_chunks, 8))
        ones = np.ones((1, 2))
        segs = np.array([[0, 8]], dtype=np.int64)
        with pytest.raises(ValueError, match="k_plane_arena must be"):
            token_picker_attention_ragged(
                qs, config, q_scales=ones, k_scales=ones,
                k_plane_arena=arena[:, :-1], segments=segs,
            )
        with pytest.raises(ValueError, match="v_arena must be"):
            token_picker_attention_ragged(
                qs, config, q_scales=ones, k_scales=ones,
                k_plane_arena=arena, segments=segs,
                v_arena=np.zeros((31, 2, 8)),
            )
        with pytest.raises(ValueError, match="within the arena"):
            token_picker_attention_ragged(
                qs, config, q_scales=ones, k_scales=ones,
                k_plane_arena=arena,
                segments=np.array([[30, 8]], dtype=np.int64),
            )
        with pytest.raises(ValueError, match="overlap"):
            token_picker_attention_ragged(
                np.concatenate([qs, qs]), config,
                q_scales=np.ones((2, 2)), k_scales=np.ones((2, 2)),
                k_plane_arena=arena,
                segments=np.array([[0, 8], [4, 8]], dtype=np.int64),
            )
        with pytest.raises(ValueError, match="float32"):
            wide = QuantConfig(total_bits=28, chunk_bits=4)
            cfg_wide = TokenPickerConfig(quant=wide)
            token_picker_attention_ragged(
                rng.normal(size=(1, 2, 64)), cfg_wide,
                q_scales=np.full((1, 2), 1e-8),
                k_scales=np.full((1, 2), 1e-8),
                k_plane_arena=np.zeros(
                    (16, 2 * wide.n_chunks, 64), dtype=np.float32
                ),
                segments=np.array([[0, 8]], dtype=np.int64),
            )

    def test_empty_context_sequences_mix(self):
        rng = np.random.default_rng(5)
        config = TokenPickerConfig(threshold=2e-3)
        h, d = 2, 8
        keys = [
            np.zeros((h, 0, d)),
            rng.normal(size=(h, 20, d)),
            np.zeros((h, 0, d)),
        ]
        values = [np.zeros((h, 0, d)), rng.normal(size=(h, 20, d)), np.zeros((h, 0, d))]
        qs = rng.normal(size=(3, h, d))
        ragged = _run_arena(
            qs, keys, values, config,
            _oracle_scales(list(qs), config.quant),
            _oracle_scales(keys, config.quant),
            _oracle_scales(values, config.quant),
        )
        for s in range(3):
            _assert_identical(
                ragged.results[s],
                token_picker_attention_batched(qs[s], keys[s], values[s], config),
            )
        assert ragged.stats().n_tokens == 2 * 20


class TestExactInFloatBoundary:
    """The arena score path picks float64 or int64 accumulation by the
    52-bit mantissa gate; formats straddling the limit must agree with
    the always-integer rectangular kernel."""

    FORMATS = [  # (total_bits, chunk_bits, head_dim): gate = 2N-2+bl(d-1)
        (26, 13, 4),    # 52 -> float64 accumulation
        (26, 13, 8),    # 53 -> int64 fallback
        (25, 5, 16),    # 52 -> float64 accumulation
        (25, 5, 32),    # 53 -> int64 fallback
        (24, 8, 64),    # 52 -> float64 accumulation
        (24, 12, 128),  # 53 -> int64 fallback
    ]

    @settings(
        max_examples=24,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        seed=st.integers(0, 2**31 - 1),
        fmt=st.sampled_from(range(len(FORMATS))),
    )
    def test_arena_path_straddles_52_bit_limit(self, seed, fmt):
        total_bits, chunk_bits, head_dim = self.FORMATS[fmt]
        quant = QuantConfig(total_bits=total_bits, chunk_bits=chunk_bits)
        config = TokenPickerConfig(threshold=2e-3, quant=quant)
        rng = np.random.default_rng(seed)
        n_seqs, n_heads = 2, 2
        qs, keys, _ = _make_batch(rng, n_seqs, n_heads, head_dim, 24)
        # oracle (saturating) scales stress the most-significant chunks
        k_sc = _oracle_scales(keys, quant)
        q_sc = _oracle_scales(list(qs), quant)
        via_arena = _run_arena(qs, keys, None, config, q_sc, k_sc)
        for s in range(n_seqs):
            _assert_identical(
                via_arena.results[s],
                token_picker_attention_batched(
                    qs[s], keys[s], None, config,
                    q_scales=q_sc[s], k_scales=k_sc[s],
                ),
            )


class TestAggregates:
    def test_merged_stats_and_lengths(self):
        rng = np.random.default_rng(0)
        config = TokenPickerConfig(threshold=2e-3)
        qs, keys, values = _make_batch(rng, 5, 2, 16, 90)
        ragged = _run_arena(
            qs, keys, values, config,
            _oracle_scales(list(qs), config.quant),
            _oracle_scales(keys, config.quant),
            _oracle_scales(values, config.quant),
        )
        assert ragged.n_sequences == 5
        assert np.array_equal(
            ragged.lengths, np.array([k.shape[1] for k in keys])
        )
        merged = ragged.stats()
        assert merged.n_tokens == sum(2 * k.shape[1] for k in keys)
        assert merged.k_chunks_fetched == sum(
            r.stats().k_chunks_fetched for r in ragged.results
        )


class TestValidation:
    def _inputs(self, rng, n_seqs=2, n_heads=2, head_dim=8, t=5):
        quant = TokenPickerConfig().quant
        return dict(
            q_scales=np.ones((n_seqs, n_heads)),
            k_scales=np.ones((n_seqs, n_heads)),
            k_plane_arena=np.zeros(
                (n_seqs * t, n_heads * quant.n_chunks, head_dim)
            ),
            segments=np.array(
                [[s * t, t] for s in range(n_seqs)], dtype=np.int64
            ),
        )

    def test_both_schedules(self):
        """The fused kernels realise the hardware's breadth order only;
        the depth reference stays a per-sequence schedule."""
        rng = np.random.default_rng(0)
        depth = TokenPickerConfig(schedule="depth")
        qs = rng.normal(size=(2, 2, 8))
        keys = rng.normal(size=(2, 5, 8))
        with pytest.raises(ValueError, match="breadth"):
            token_picker_attention_ragged(qs, depth, **self._inputs(rng))
        with pytest.raises(ValueError, match="breadth"):
            token_picker_attention_batched(qs[0], keys, None, depth)
        breadth = TokenPickerConfig(schedule="breadth")
        assert token_picker_attention_ragged(
            qs, breadth, **self._inputs(rng)
        ).n_sequences == 2

    def test_shape_errors(self):
        rng = np.random.default_rng(0)
        config = TokenPickerConfig()
        qs = rng.normal(size=(2, 2, 8))
        good = self._inputs(rng)
        with pytest.raises(ValueError):
            token_picker_attention_ragged(qs[0], config, **good)
        with pytest.raises(ValueError):
            token_picker_attention_ragged(
                qs, config, **{**good, "segments": good["segments"][:1]}
            )
        with pytest.raises(ValueError):
            token_picker_attention_ragged(
                rng.normal(size=(2, 3, 8)), config, **good
            )
        with pytest.raises(ValueError):
            token_picker_attention_ragged(
                qs, config, **{**good, "k_scales": np.ones((2, 3))}
            )
        with pytest.raises(ValueError):
            token_picker_attention_ragged(
                qs, config, **{**good, "q_scales": np.zeros((2, 2))}
            )
        with pytest.raises(ValueError):
            token_picker_attention_batched(
                qs[0], rng.normal(size=(2, 5, 8)), rng.normal(size=(2, 6, 8)),
                config,
            )

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_query_rejected(self, bad):
        """A NaN/inf query used to be cast to a garbage integer code
        (finite, wrong outputs and only a RuntimeWarning)."""
        rng = np.random.default_rng(0)
        config = TokenPickerConfig()
        qs = rng.normal(size=(2, 2, 8))
        qs[1, 0, 3] = bad
        keys = rng.normal(size=(2, 5, 8))
        with pytest.raises(ValueError, match="finite"):
            token_picker_attention_batched(qs[1], keys, keys, config)
        with pytest.raises(ValueError, match="finite"):
            token_picker_attention_ragged(qs, config, **self._inputs(rng))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_explicit_scale_rejected(self, bad):
        """A NaN scale used to pass the ``scales <= 0`` check and yield
        non-finite outputs."""
        rng = np.random.default_rng(0)
        config = TokenPickerConfig()
        qs = rng.normal(size=(2, 2, 8))
        scales = np.ones((2, 2))
        scales[0, 1] = bad
        keys = rng.normal(size=(2, 5, 8))
        for name in ("q_scales", "k_scales", "v_scales"):
            with pytest.raises(ValueError, match="finite"):
                token_picker_attention_batched(
                    qs[0], keys, keys, config, **{name: scales[0]}
                )
        for name in ("q_scales", "k_scales"):
            with pytest.raises(ValueError, match="finite"):
                token_picker_attention_ragged(
                    qs, config, **{**self._inputs(rng), name: scales}
                )
