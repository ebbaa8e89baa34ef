"""Ragged-batch kernel equivalence: fused == N independent batched calls.

The serving engine's correctness rests on one property: running N
sequences with mixed context lengths through one fused call on the packed
arena changes *nothing* — every pruning decision, fetched-chunk count,
probability, output and traffic statistic is bit-identical to calling the
rectangular reference ``token_picker_attention_batched`` on each sequence
alone, and a pruned token's reported score is its certified upper bound.
These tests assert exact equality — float fields byte for byte, so a
``-0.0`` that came out ``+0.0`` fails — property-based over mixed
lengths, head counts, thresholds, chunk formats, digit dtypes and
frozen-vs-derived scales.
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


def _v_codes(values, v_sc, quant):
    """Signed V codes ``clip(rint(v / s))`` with ``-0.0`` stored as the
    spare code ``qmin - 1`` — the pool's V storage, derived here on its
    own."""
    code = np.clip(np.rint(values / v_sc), quant.qmin, quant.qmax)
    out = code.astype(np.min_scalar_type(quant.qmin - 1))
    out[np.signbit(code) & (code == 0)] = quant.qmin - 1
    return out


def _build_arena(keys, values, k_sc, v_sc, quant, dtype, gap=5):
    """Packed arena — chunk-major (H, C, T, d) unshifted integer digit
    planes of ``dtype`` + token-major V codes — with dead inter-segment
    gaps, as the serving pool lays sequences out."""
    n_seqs = len(keys)
    n_heads, _, head_dim = keys[0].shape
    cap = sum(int(k.shape[1]) for k in keys) + gap * (n_seqs + 1)
    k_arena = np.zeros((n_heads, quant.n_chunks, cap, head_dim), dtype=dtype)
    v_arena = np.zeros(
        (cap, n_heads, head_dim), np.min_scalar_type(quant.qmin - 1)
    )
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
        k_arena[:, :, offset:offset + t] = digits.transpose(0, 3, 1, 2)
        v_arena[offset:offset + t] = _v_codes(
            values[s], v_sc[s][:, None, None], quant
        ).transpose(1, 0, 2)
        segments[s] = (offset, t)
        offset += t + gap
    return k_arena, v_arena, segments


def _run_arena(
    qs, keys, values, config, q_sc, k_sc, v_sc=None, dtype=np.int16,
    scratch=None,
):
    """Encode the batch into a gapped arena and run the fused kernel;
    ``values=None`` runs scores-only (no V arena)."""
    v_sc = v_sc if v_sc is not None else np.ones_like(k_sc)
    k_arena, v_arena, segments = _build_arena(
        keys,
        values if values is not None else [np.zeros_like(k) for k in keys],
        k_sc,
        v_sc,
        config.quant,
        dtype,
    )
    with_v = values is not None
    return token_picker_attention_ragged(
        qs, config,
        q_scales=q_sc, k_scales=k_sc,
        k_plane_arena=k_arena, segments=segments,
        v_arena=v_arena if with_v else None,
        v_scales=v_sc if with_v else None,
        scratch=scratch,
    )


def _same_bytes(a, b) -> bool:
    """Equal dtype, shape and bytes: unlike ``array_equal``, ``-0.0``
    differs from ``+0.0``."""
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and (
        a.tobytes() == b.tobytes()
    )


def _assert_identical(ragged_result, independent, scores="bound"):
    """Bit-identity of every decision-bearing field, floats byte for byte.

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
        assert _same_bytes(ragged_result.scores, independent.scores)
    else:
        kept = independent.kept
        assert _same_bytes(ragged_result.scores[kept], independent.scores[kept])
        pruned_lazy = ragged_result.scores[~kept]
        pruned_exact = independent.scores[~kept]
        assert np.all(
            pruned_lazy >= pruned_exact - (1e-9 + 1e-9 * np.abs(pruned_exact))
        )
    assert _same_bytes(ragged_result.probs, independent.probs)
    assert _same_bytes(
        ragged_result.log_denominators, independent.log_denominators
    )
    if independent.outputs is None:
        assert ragged_result.outputs is None
    else:
        assert _same_bytes(ragged_result.outputs, independent.outputs)
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
            dtype=(np.int8, np.int16)[seed % 2],
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
            dtype=np.int8,
        )
        for s in range(3):
            _assert_identical(
                ragged.results[s],
                token_picker_attention_batched(qs[s], keys[s], values[s], config),
            )

    def test_arena_path_matches_batched(self):
        """The zero-copy packed-arena path (chunk-major digit planes +
        segment table, dead gaps between slabs) must be bit-identical to
        independent batched calls — the serving engine's contract — in
        both digit storage widths."""
        for dtype, seed in ((np.int8, 0), (np.int16, 1)):
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
                qs, keys, values, config, q_sc, k_sc, v_sc, np.int8,
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
        arena = np.zeros((2, quant.n_chunks, 32, 8), dtype=np.int8)
        ones = np.ones((1, 2))
        segs = np.array([[0, 8]], dtype=np.int64)
        for bad in (
            arena[:, :-1],
            # the token-major (T, H*C, d) layout is no longer accepted
            np.zeros((32, 2 * quant.n_chunks, 8), dtype=np.int8),
            np.zeros((32, 2, quant.n_chunks, 8), dtype=np.int8),
        ):
            with pytest.raises(ValueError, match="k_plane_arena must be"):
                token_picker_attention_ragged(
                    qs, config, q_scales=ones, k_scales=ones,
                    k_plane_arena=bad, segments=segs,
                )
        with pytest.raises(ValueError, match="v_arena must be"):
            token_picker_attention_ragged(
                qs, config, q_scales=ones, k_scales=ones,
                k_plane_arena=arena, segments=segs,
                v_arena=np.zeros((31, 2, 8), dtype=np.int16), v_scales=ones,
            )
        # the arena holds the paper's bits: integer digits and V codes
        # wide enough for the -0.0 code, with the scales to dequantise
        with pytest.raises(ValueError, match="signed integer chunk digits"):
            token_picker_attention_ragged(
                qs, config, q_scales=ones, k_scales=ones,
                k_plane_arena=arena.astype(np.float32), segments=segs,
            )
        for v_bad in (np.float64, np.int8):  # int8 cannot hold qmin - 1
            with pytest.raises(ValueError, match="signed integer V codes"):
                token_picker_attention_ragged(
                    qs, config, q_scales=ones, k_scales=ones,
                    k_plane_arena=arena, segments=segs,
                    v_arena=np.zeros((32, 2, 8), dtype=v_bad), v_scales=ones,
                )
        with pytest.raises(ValueError, match="explicit scales"):
            token_picker_attention_ragged(
                qs, config, q_scales=ones, k_scales=ones,
                k_plane_arena=arena, segments=segs,
                v_arena=np.zeros((32, 2, 8), dtype=np.int16),
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
        # a format no float accumulator scores exactly is refused by name
        with pytest.raises(ValueError, match=r"\(28, 4\) at head_dim 64"):
            wide = QuantConfig(total_bits=28, chunk_bits=4)
            cfg_wide = TokenPickerConfig(quant=wide)
            token_picker_attention_ragged(
                rng.normal(size=(1, 2, 64)), cfg_wide,
                q_scales=np.full((1, 2), 1e-8),
                k_scales=np.full((1, 2), 1e-8),
                k_plane_arena=np.zeros(
                    (2, wide.n_chunks, 16, 64), dtype=np.int8
                ),
                segments=np.array([[0, 8]], dtype=np.int64),
            )

    def test_negative_zero_value_survives_a_lone_kept_token(self):
        """The only kept token's V row holds an element with ``v / s`` in
        ``(-0.5, 0)``: ``clip(rint(v / s)) * s`` is ``-0.0`` there, and
        with one kept token the output inherits that sign.  The integer
        arena must reproduce it through the spare ``qmin - 1`` code —
        ``array_equal`` would pass a ``+0.0``, the byte check does not."""
        config = TokenPickerConfig(threshold=2e-3, prompt_guard=0)
        head_dim, t = 8, 10
        keys = -np.ones((1, t, head_dim))
        keys[0, 0] = 1.0  # the query's one match
        values = np.full((1, t, head_dim), 0.5)
        values[0, 0] = [1.0, -1e-4, 0.25, -0.3, 0.0, -0.0, 0.5, -1.0]
        qs = np.full((1, 1, head_dim), 5.0)
        scales = [
            _oracle_scales(x, config.quant) for x in (list(qs), [keys], [values])
        ]
        ragged = _run_arena(qs, [keys], [values], config, *scales)
        independent = token_picker_attention_batched(
            qs[0], keys, values, config
        )
        assert independent.kept.sum() == 1 and independent.kept[0, 0]
        _assert_identical(ragged.results[0], independent)
        out = ragged.results[0].outputs[0]
        assert out[1] == 0.0 and np.signbit(out[1])  # -1e-4 / s = -0.2
        assert np.signbit(out[5]) and not np.signbit(out[4])

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


class TestEdgeCorpus:
    """Hostile-but-legal inputs: the fused kernel still equals the
    per-sequence batched reference byte for byte."""

    @pytest.mark.parametrize(
        "case",
        [
            "threshold_1e-300",
            "threshold_0.999999",
            "all_equal_keys",
            "zero_query_and_keys",
            "guard_past_context",
            "length_one_segments_guard_0",
        ],
    )
    def test_matches_batched(self, case):
        rng = np.random.default_rng(13)
        qs, keys, values = _make_batch(rng, 3, 2, 16, 48)
        threshold, guard = 2e-3, 1
        if case.startswith("threshold_"):
            threshold = float(case.split("_")[1])
        elif case == "all_equal_keys":
            keys = [np.full_like(k, 0.7) for k in keys]
        elif case == "zero_query_and_keys":
            qs = np.zeros_like(qs)
            keys = [np.zeros_like(k) for k in keys]
        elif case == "guard_past_context":
            guard = 49
        else:
            keys, values = [k[:, :1] for k in keys], [v[:, :1] for v in values]
            guard = 0
        config = TokenPickerConfig(threshold=threshold, prompt_guard=guard)
        scales = [
            _oracle_scales(x, config.quant) for x in (list(qs), keys, values)
        ]
        ragged = _run_arena(qs, keys, values, config, *scales)
        for s in range(3):
            _assert_identical(
                ragged.results[s],
                token_picker_attention_batched(qs[s], keys[s], values[s], config),
            )


class TestSketchTheorem:
    """Breadth round ``b`` reads only the first ``b`` chunk digits of
    every token — the theorem the tiered KV store rests on: a demoted
    token keeps only its first ``sketch`` digits reachable, and whatever
    its later digits and V row hold, every decision of rounds ``<=
    sketch`` is the same.  Scramble them on a random subset of tokens and
    compare against the unscrambled call."""

    @pytest.mark.parametrize("sketch", [1, 2])
    def test_scrambled_tail_digits_keep_every_sketch_round_decision(
        self, sketch
    ):
        config = TokenPickerConfig(threshold=2e-3)
        quant = config.quant
        assert 1 <= sketch < quant.n_chunks
        died = np.zeros(sketch + 1, dtype=np.int64)  # [b]: died in round b
        outlived = 0
        rng = np.random.default_rng(sketch)
        for _ in range(30):
            n_seqs, n_heads = int(rng.integers(1, 5)), int(rng.integers(1, 4))
            head_dim = int(rng.integers(4, 33))
            qs, keys, values = _make_batch(rng, n_seqs, n_heads, head_dim, 96)
            q_sc = _oracle_scales(qs[:, :, None, :], quant)
            k_sc = _oracle_scales(keys, quant)
            v_sc = _oracle_scales(values, quant)
            k_arena, v_arena, segments = _build_arena(
                keys, values, k_sc, v_sc, quant, np.int8
            )
            tokens = np.concatenate([np.arange(o, o + t) for o, t in segments])
            hit = rng.choice(tokens, size=max(tokens.size // 3, 1), replace=False)
            k_scrambled, v_scrambled = k_arena.copy(), v_arena.copy()
            k_scrambled[:, sketch:, hit] = rng.integers(
                0, 1 << quant.chunk_bits, size=k_scrambled[:, sketch:, hit].shape
            )
            v_scrambled[hit] = rng.integers(
                quant.qmin - 1, quant.qmax, size=v_scrambled[hit].shape,
                endpoint=True,
            )
            runs = [
                token_picker_attention_ragged(
                    qs, config, q_scales=q_sc, k_scales=k_sc,
                    k_plane_arena=k, segments=segments, v_arena=v,
                    v_scales=v_sc,
                )
                for k, v in ((k_arena, v_arena), (k_scrambled, v_scrambled))
            ]
            for (offset, _), a, b in zip(segments, *(r.results for r in runs)):
                assert np.array_equal(
                    np.minimum(a.chunks_fetched, sketch + 1),
                    np.minimum(b.chunks_fetched, sketch + 1),
                )
                within = a.chunks_fetched <= sketch
                assert np.array_equal(a.scores[within], b.scores[within])
                mine = np.isin(offset + np.arange(a.n_tokens), hit)
                counts = np.bincount(
                    a.chunks_fetched[:, mine].ravel(), minlength=quant.n_chunks + 1
                )
                died += counts[: sketch + 1]
                outlived += int(counts[sketch + 1:].sum())
        # the check has teeth: scrambled tokens die in every sketch round,
        # and some outlive the sketch (their decisions may then move)
        assert (died[1:] > 0).all() and outlived > 0


class TestExactInFloatBoundary:
    """The arena score path accumulates in float64 up to the 52-bit
    mantissa gate and refuses formats past it; formats straddling the
    limit must agree with the always-integer rectangular kernel on the
    near side and raise ``ValueError`` naming the format on the far
    side."""

    FORMATS = [  # (total_bits, chunk_bits, head_dim): gate = 2N-2+bl(d-1)
        (26, 13, 4),    # 52 -> float64 accumulation
        (26, 13, 8),    # 53 -> rejected
        (25, 5, 16),    # 52 -> float64 accumulation
        (25, 5, 32),    # 53 -> rejected
        (24, 8, 64),    # 52 -> float64 accumulation
        (24, 12, 128),  # 53 -> rejected
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
        if fmt % 2:
            with pytest.raises(ValueError, match=(
                rf"\({total_bits}, {chunk_bits}\) at head_dim {head_dim}"
            )):
                _run_arena(qs, keys, None, config, q_sc, k_sc)
            return
        via_arena = _run_arena(qs, keys, None, config, q_sc, k_sc)
        for s in range(n_seqs):
            _assert_identical(
                via_arena.results[s],
                token_picker_attention_batched(
                    qs[s], keys[s], None, config,
                    q_scales=q_sc[s], k_scales=k_sc[s],
                ),
            )


class TestFloat32ExactnessEdge:
    """Integer digits are contracted in float32 only while every digit x
    query partial sum stays below 2**24.  Query codes reach ``qmin =
    -2**(N-1)``, so the bound is ``head_dim * (2**cb - 1) * 2**(N-1)``;
    with ``QuantConfig(8, 4)`` the edge sits between head_dim 8738
    (16,776,960) and 8739."""

    QUANT = QuantConfig(total_bits=8, chunk_bits=4)

    def test_gate_counts_qmin_not_qmax(self):
        """Regression: the gate bounded by ``qmax`` and admitted head_dim
        8760 (8760 * 15 * 127 < 2**24), where chunk-1 digits of 15 against
        q = -128 sum to -16,818,885 and float32 rounds it.  The arena is
        int8 either way; the gate picks the accumulator."""
        from repro.core.pruning import exact_digit_dtype
        from repro.serving import ServingEngine, synthetic_request

        config = TokenPickerConfig(quant=self.QUANT)
        engine = ServingEngine(config, capacity_tokens=64)
        engine.submit(
            synthetic_request(
                np.random.default_rng(0), 1, 4, 8760, max_new_tokens=1
            )
        )
        engine.run_until_drained()
        assert engine.pool.k_arena.dtype == np.int8
        for head_dim, dtype in ((8738, np.float32), (8760, np.float64)):
            assert exact_digit_dtype(self.QUANT, head_dim) is dtype
            # the kernel casts its digit tiles to exactly that dtype
            scratch = KernelScratch()
            token_picker_attention_ragged(
                np.full((1, 1, head_dim), -128.0), config,
                q_scales=np.ones((1, 1)), k_scales=np.ones((1, 1)),
                k_plane_arena=np.full((1, 2, 4, head_dim), 15, dtype=np.int8),
                segments=np.array([[0, 4]], dtype=np.int64), scratch=scratch,
            )
            tiles = {dt for name, dt in scratch._buffers if name == "k_tile"}
            assert tiles == {np.dtype(dtype).str}

    def test_float32_contraction_exact_at_the_edge(self):
        """On the passing side of the edge, extreme digits against
        extreme query codes give the same result from int8 and int16
        planes in every field, and the kept scores are the exact integer
        dot products, scaled."""
        n_heads, n_chunks, t, head_dim = 2, self.QUANT.n_chunks, 12, 8738
        rng = np.random.default_rng(0)
        planes = np.empty((n_heads, n_chunks, t, head_dim), dtype=np.int64)
        planes[:, 0] = rng.integers(-8, 8, size=(n_heads, t, head_dim))
        planes[:, 1] = rng.integers(0, 16, size=(n_heads, t, head_dim))
        planes[:, 1, :4] = 15  # every refinement partial sum at the bound
        planes[:, 0, 0] = -8
        planes[:, 0, 1] = 7
        # head 0 sits at qmin everywhere, head 1 at qmax
        qs = np.stack([np.full(head_dim, -128.0), np.full(head_dim, 127.0)])
        segments = np.array([[0, t]], dtype=np.int64)
        config = TokenPickerConfig(threshold=2e-3, quant=self.QUANT)
        v_arena = rng.integers(-128, 128, size=(t, n_heads, head_dim))
        runs = [
            token_picker_attention_ragged(
                qs[None], config,
                q_scales=np.ones((1, n_heads)),
                k_scales=np.full((1, n_heads), 2e-6),
                k_plane_arena=planes.astype(dtype),
                segments=segments, v_arena=v_arena.astype(np.int16),
                v_scales=np.full((1, n_heads), 0.01),
            )
            for dtype in (np.int8, np.int16)
        ]
        assert np.array_equal(runs[0].round_alive, runs[1].round_alive)
        _assert_identical(runs[0].results[0], runs[1].results[0], "exact")
        # the kept scores are the exact integer dot products, scaled
        kept = runs[1].results[0].kept
        exact = np.einsum(
            "htd,hd->ht",
            planes[:, 0] * 16 + planes[:, 1],
            qs.astype(np.int64),
        ) * (2e-6 / np.sqrt(head_dim))
        assert kept.any()
        assert _same_bytes(runs[0].results[0].scores[kept], exact[kept])


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
        assert len(ragged.results) == 5
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
                (n_heads, quant.n_chunks, n_seqs * t, head_dim), dtype=np.int8
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
        assert len(token_picker_attention_ragged(
            qs, breadth, **self._inputs(rng)
        ).results) == 2

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
