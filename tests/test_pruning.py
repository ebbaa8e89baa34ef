"""End-to-end tests of the Token-Picker pruning algorithm (Sec. 3)."""

import math

import numpy as np
import pytest

from repro.core import (
    QuantConfig,
    TokenPickerConfig,
    exact_attention,
    exact_attention_probs,
    pruning_error,
    token_picker_attention,
    token_picker_attention_batched,
    token_picker_scores,
)


def _instance(seed, t=256, d=64, sharpness=2.0):
    """A synthetic attention instance with a few dominant tokens."""
    rng = np.random.default_rng(seed)
    keys = rng.normal(size=(t, d))
    values = rng.normal(size=(t, d))
    # Query aligned with a handful of keys -> peaky distribution.
    dominant = rng.choice(t, size=5, replace=False)
    q = keys[dominant].sum(axis=0) * sharpness / math.sqrt(5) + rng.normal(size=d) * 0.3
    return q, keys, values


@pytest.fixture(params=["breadth", "depth"])
def schedule(request):
    return request.param


class TestSafety:
    """No pruned token may have true probability above the threshold.

    "True" here means the probability computed from the quantized operands
    (the algorithm certifies with respect to the 12-bit scores it acts on).
    """

    @pytest.mark.parametrize("seed", range(6))
    def test_no_dominant_token_pruned(self, seed, schedule):
        q, keys, values = _instance(seed)
        cfg = TokenPickerConfig(threshold=1e-3, schedule=schedule)
        r = token_picker_scores(q, keys, cfg)
        # probabilities of the quantized scores the algorithm saw
        s = r.scores
        p = np.exp(s - s.max())
        p /= p.sum()
        violated = (~r.kept) & (p > cfg.threshold + 1e-12)
        assert not violated.any()

    @pytest.mark.parametrize("thr", [1e-4, 1e-3, 1e-2])
    def test_safety_across_thresholds(self, thr, schedule):
        q, keys, values = _instance(99, t=128)
        cfg = TokenPickerConfig(threshold=thr, schedule=schedule)
        r = token_picker_scores(q, keys, cfg)
        p = np.exp(r.scores - r.scores.max())
        p /= p.sum()
        assert np.all(p[~r.kept] <= thr + 1e-12)

    def test_float_reference_safety_with_quant_slack(self, schedule):
        """Against the float reference, violations stay within quantization noise."""
        q, keys, values = _instance(7)
        cfg = TokenPickerConfig(threshold=1e-3, schedule=schedule)
        r = token_picker_attention(q, keys, values, cfg)
        err = pruning_error(q, keys, values, r.kept, r.output)
        # quantization can shift borderline probabilities slightly
        assert err.max_pruned_probability <= cfg.threshold * 3


class TestAccounting:
    def test_chunk_counts_bounded(self, schedule):
        q, keys, _ = _instance(1)
        cfg = TokenPickerConfig(schedule=schedule)
        r = token_picker_scores(q, keys, cfg)
        assert np.all(r.chunks_fetched >= 1)
        assert np.all(r.chunks_fetched <= cfg.quant.n_chunks)
        # kept tokens must have fetched everything
        assert np.all(r.chunks_fetched[r.kept] == cfg.quant.n_chunks)

    def test_stats_consistency(self, schedule):
        q, keys, _ = _instance(2)
        cfg = TokenPickerConfig(schedule=schedule)
        r = token_picker_scores(q, keys, cfg)
        s = r.stats
        assert s.n_kept == int(r.kept.sum())
        assert s.k_chunks_fetched == int(r.chunks_fetched.sum())
        assert s.v_vectors_fetched == s.n_kept
        assert s.k_bits_fetched <= s.baseline_k_bits
        assert s.v_bits_fetched <= s.baseline_v_bits
        assert s.total_reduction >= 1.0

    def test_reduction_ratios(self):
        q, keys, _ = _instance(3, sharpness=4.0)
        cfg = TokenPickerConfig(threshold=1e-3)
        r = token_picker_scores(q, keys, cfg)
        # peaky instance: strong V pruning, K reduced but >= 1/3 of baseline
        assert r.stats.v_pruning_ratio > 2.0
        assert 1.0 <= r.stats.k_reduction <= cfg.quant.n_chunks

    def test_merged_stats(self):
        q, keys, _ = _instance(4)
        cfg = TokenPickerConfig()
        a = token_picker_scores(q, keys, cfg).stats
        b = token_picker_scores(q, keys, cfg).stats
        m = a.merged(b)
        assert m.n_tokens == 2 * a.n_tokens
        assert m.k_chunks_fetched == 2 * a.k_chunks_fetched

    def test_merged_stats_format_mismatch(self):
        q, keys, _ = _instance(5)
        a = token_picker_scores(q, keys, TokenPickerConfig()).stats
        cfg8 = TokenPickerConfig(quant=QuantConfig(total_bits=8, chunk_bits=4))
        b = token_picker_scores(q, keys, cfg8).stats
        with pytest.raises(ValueError):
            a.merged(b)


class TestOutput:
    def test_probs_sum_to_one_over_kept(self, schedule):
        q, keys, values = _instance(6)
        r = token_picker_attention(q, keys, values, TokenPickerConfig(schedule=schedule))
        assert np.isclose(r.probs.sum(), 1.0)
        assert np.all(r.probs[~r.kept] == 0.0)

    def test_output_close_to_exact_for_tiny_threshold(self, schedule):
        q, keys, values = _instance(8)
        cfg = TokenPickerConfig(threshold=1e-9, schedule=schedule)
        r = token_picker_attention(q, keys, values, cfg)
        exact = exact_attention(q, keys, values)
        # only quantization error remains
        assert np.linalg.norm(r.output - exact) < 0.05 * np.linalg.norm(exact) + 0.05

    def test_output_error_shrinks_with_threshold(self):
        q, keys, values = _instance(9, sharpness=3.0)
        errs = []
        for thr in (1e-2, 1e-3, 1e-4):
            r = token_picker_attention(q, keys, values, TokenPickerConfig(threshold=thr))
            errs.append(pruning_error(q, keys, values, r.kept, r.output).output_l2)
        assert errs[0] >= errs[-1]

    def test_mismatched_value_shape_rejected(self):
        q, keys, values = _instance(10)
        with pytest.raises(ValueError):
            token_picker_attention(q, keys, values[:-1], TokenPickerConfig())


class TestEdgeCases:
    def test_empty_sequence(self, schedule):
        cfg = TokenPickerConfig(schedule=schedule)
        r = token_picker_attention(
            np.ones(8), np.zeros((0, 8)), np.zeros((0, 8)), cfg
        )
        assert r.stats.n_tokens == 0
        assert np.allclose(r.output, 0.0)

    def test_single_token_always_kept(self, schedule):
        rng = np.random.default_rng(0)
        q, k, v = rng.normal(size=8), rng.normal(size=(1, 8)), rng.normal(size=(1, 8))
        r = token_picker_attention(q, k, v, TokenPickerConfig(schedule=schedule))
        assert r.kept.tolist() == [True]
        assert np.isclose(r.probs[0], 1.0)

    def test_guard_prevents_pruning_recent_tokens(self, schedule):
        q, keys, _ = _instance(11, sharpness=6.0)
        cfg = TokenPickerConfig(threshold=0.5, prompt_guard=4, schedule=schedule)
        r = token_picker_scores(q, keys, cfg)
        assert np.all(r.kept[-4:])

    def test_zero_guard_allows_pruning_last_token(self, schedule):
        q, keys, _ = _instance(12, sharpness=6.0)
        cfg = TokenPickerConfig(threshold=0.5, prompt_guard=0, schedule=schedule)
        r = token_picker_scores(q, keys, cfg)
        # with an extreme threshold nearly everything can go, including t-1
        assert r.stats.n_kept <= r.stats.n_tokens

    def test_identical_keys_keep_at_least_guard(self, schedule):
        # degenerate instance: all keys identical -> uniform probabilities
        q = np.ones(8)
        keys = np.ones((64, 8))
        cfg = TokenPickerConfig(threshold=1e-3, schedule=schedule)
        r = token_picker_scores(q, keys, cfg)
        # uniform p = 1/64 > 1e-3: nothing can be pruned
        assert r.stats.n_kept == 64

    def test_all_tokens_below_threshold_keeps_guard_only(self, schedule):
        # uniform p = 1/t <= thr: everything except the guard may be pruned
        q = np.ones(8)
        keys = np.ones((64, 8))
        cfg = TokenPickerConfig(threshold=0.5, schedule=schedule, prompt_guard=1)
        r = token_picker_scores(q, keys, cfg)
        assert r.kept[-1]


def _poisoned(a, bad=np.nan):
    a = np.array(a, dtype=np.float64)
    a.flat[a.size // 2] = bad
    return a


class TestHostileInput:
    """Malformed or non-finite operands raise ``ValueError`` instead of
    returning a silently wrong result.  Shapes are checked before the
    empty-context shortcut, so a mis-ranked ``keys`` is never mistaken
    for an empty context.  The batched kernel runs on explicit scales,
    where no data-derived scale trips over the bad operand first."""

    CASES = {
        "keys_3d": {"keys": lambda a: a[None], "values": lambda a: a[None]},
        "keys_1d": {"keys": lambda a: a[0], "values": lambda a: a[0]},
        "nan_q": {"q": _poisoned},
        "nan_keys": {"keys": _poisoned},
        "inf_values": {"values": lambda a: _poisoned(a, np.inf)},
        "nan_bias": {"score_bias": lambda _: _poisoned(np.zeros(32))},
    }

    @pytest.mark.parametrize("api", ["breadth", "depth", "batched"])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_rejected(self, api, case):
        q, keys, values = _instance(50, t=32, d=16)
        ops = {"q": q, "keys": keys, "values": values, "score_bias": None}
        for name, corrupt in self.CASES[case].items():
            ops[name] = corrupt(ops[name])
        cfg = TokenPickerConfig(schedule="depth" if api == "depth" else "breadth")
        with pytest.raises(ValueError):
            if api == "batched":
                one = np.ones(1)
                stacked = {k: None if v is None else v[None] for k, v in ops.items()}
                token_picker_attention_batched(
                    stacked["q"], stacked["keys"], stacked["values"], cfg,
                    score_bias=stacked["score_bias"],
                    q_scales=one, k_scales=one, v_scales=one,
                )
            else:
                token_picker_attention(
                    ops["q"], ops["keys"], ops["values"], cfg,
                    score_bias=ops["score_bias"],
                )


class TestBreadthIncrementalDenominator:
    """The breadth rounds tighten ln(D) incrementally: each round every
    alive token's lower bound moves to its next chunk and the denominator
    is re-summed over every token's current bound.  This pins the
    kernel's decisions against a plain reimplementation of those rounds.

    The two sum the same terms in different association orders, so the
    last float64 ulp of ln(D) can legitimately differ.  The pin is
    therefore (a) exact equality of every *decision* the denominator
    drives (`kept`, `chunks_fetched`) across a seed x threshold grid, and
    (b) ln(D) itself to 1e-12 relative.  Safety never depends on those
    last bits: any lower-bound denominator keeps the certificate sound
    (tested below)."""

    def _full_recompute_reference(self, q, keys, cfg, bias=None):
        """Per-head plain loop over (H, d) queries and (H, t, d) keys,
        with an optional (H, t) known score term; returns the (H, t)
        ``kept`` / ``chunks`` and the (H,) ``ln D``."""
        from repro.core.margins import margin_pairs
        from repro.core.pruning import _chunk_score_table, _quantize_operands

        n_heads, n, _ = keys.shape
        guard = np.arange(n) >= n - cfg.prompt_guard
        kept, chunks, log_dens = [], [], []
        for h in range(n_heads):
            q_codes, k_codes, score_scale = _quantize_operands(
                q[h], keys[h], cfg.quant, None, None
            )
            ps = _chunk_score_table(q_codes, k_codes, cfg.quant)
            margins = margin_pairs(q_codes, cfg.quant)
            b_h = np.zeros((n, 1)) if bias is None else bias[h][:, None]
            s_min = ps * score_scale + margins.mins[1:] * score_scale + b_h
            s_max = ps * score_scale + margins.maxs[1:] * score_scale + b_h
            alive = np.ones(n, dtype=bool)
            fetched = np.zeros(n, dtype=np.int64)
            lb = np.full(n, -np.inf)
            for b in range(ps.shape[1]):
                fetched[alive] = b + 1
                lb[alive] = s_min[alive, b]
                m = lb.max()  # every bound is finite from round 1 on
                log_den = m + np.log(np.exp(lb - m).sum())
                prune = (s_max[:, b] - log_den <= cfg.log_threshold) & ~guard
                alive &= ~prune
                if not alive.any():
                    break
            kept.append(alive)
            chunks.append(fetched)
            log_dens.append(log_den)
        return np.array(kept), np.array(chunks), np.array(log_dens)

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("thr", [1e-2, 2e-3, 1e-4])
    def test_matches_full_recompute(self, seed, thr):
        q, keys, _ = _instance(seed, t=192)
        cfg = TokenPickerConfig(threshold=thr, schedule="breadth")
        r = token_picker_scores(q, keys, cfg)
        kept_ref, chunks_ref, log_den_ref = self._full_recompute_reference(
            q[None], keys[None], cfg
        )
        assert np.array_equal(r.kept, kept_ref[0])
        assert np.array_equal(r.chunks_fetched, chunks_ref[0])
        assert np.isclose(r.log_denominator, log_den_ref[0], rtol=1e-12, atol=0)

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("guard", [0, 1, 300])
    def test_multi_head_alibi_matches_full_recompute(self, seed, guard):
        """Several heads in one batched call, each with its own ALiBi
        slope, at guard 0, the default 1 and a guard past the context."""
        n_heads, t = 4, 160
        parts = [_instance(10 * seed + h, t=t, d=32) for h in range(n_heads)]
        q = np.stack([p[0] for p in parts])
        keys = np.stack([p[1] for p in parts])
        slopes = 2.0 ** -np.arange(3, 3 + n_heads)
        bias = -slopes[:, None] * np.arange(t - 1, -1, -1)[None, :]
        cfg = TokenPickerConfig(threshold=2e-3, prompt_guard=guard)
        r = token_picker_attention_batched(q, keys, None, cfg, score_bias=bias)
        kept_ref, chunks_ref, log_den_ref = self._full_recompute_reference(
            q, keys, cfg, bias
        )
        assert np.array_equal(r.kept, kept_ref)
        assert np.array_equal(r.chunks_fetched, chunks_ref)
        assert np.allclose(r.log_denominators, log_den_ref, rtol=1e-12, atol=0)
        assert r.kept.all() if guard >= t else not r.kept.all()

    def test_denominator_still_a_lower_bound(self):
        """Safety: the incremental ln(D) must stay <= the exact-score
        denominator (any lower bound keeps the certificate sound)."""
        for seed in range(6):
            q, keys, _ = _instance(seed, t=128)
            cfg = TokenPickerConfig(threshold=1e-3, schedule="breadth")
            r = token_picker_scores(q, keys, cfg)
            true_log_den = float(np.logaddexp.reduce(r.scores))
            assert r.log_denominator <= true_log_den + 1e-9

    def test_all_pruned_early_exit(self):
        """Uniform scores below threshold: every round prunes, the loop
        exits early, and the incremental ln(D) matches the recompute."""
        q = np.ones(8)
        keys = np.ones((64, 8))
        cfg = TokenPickerConfig(threshold=0.5, schedule="breadth", prompt_guard=1)
        r = token_picker_scores(q, keys, cfg)
        kept_ref, chunks_ref, log_den_ref = self._full_recompute_reference(
            q[None], keys[None], cfg
        )
        assert np.array_equal(r.kept, kept_ref[0])
        assert np.isclose(r.log_denominator, log_den_ref[0], rtol=1e-12, atol=0)


class TestBreadthIsBatchedRowZero:
    """The single-instance breadth schedule *is* row 0 of a one-head
    :func:`token_picker_attention_batched` call — the one breadth
    reference — bit for bit in every reported field."""

    @staticmethod
    def assert_row(single, batched, h=0):
        assert np.array_equal(single.kept, batched.kept[h])
        assert np.array_equal(single.chunks_fetched, batched.chunks_fetched[h])
        assert np.array_equal(single.scores, batched.scores[h])
        assert np.array_equal(single.probs, batched.probs[h])
        assert np.array_equal(single.output, batched.outputs[h])
        assert single.log_denominator == batched.log_denominators[h]

    @pytest.mark.parametrize("case", ["plain", "scales", "bias", "empty"])
    @pytest.mark.parametrize("guard", [0, 1, 4])
    @pytest.mark.parametrize("fmt", [(12, 4), (12, 2), (8, 4)])
    def test_single_instance_is_row_zero(self, fmt, guard, case):
        q, keys, values = _instance(60 + guard, t=192)
        if case == "empty":
            keys, values = keys[:0], values[:0]
        cfg = TokenPickerConfig(
            threshold=2e-3, prompt_guard=guard,
            quant=QuantConfig(total_bits=fmt[0], chunk_bits=fmt[1]),
        )
        single_kw, batched_kw = {}, {}
        if case == "scales":
            # frozen calibration-time scales; out-of-range codes saturate
            scales = (0.04, 0.03, 0.02)
            single_kw = dict(zip(("q_scale", "k_scale", "v_scale"), scales))
            batched_kw = {
                name: np.array([s])
                for name, s in zip(("q_scales", "k_scales", "v_scales"), scales)
            }
        elif case == "bias":
            bias = -0.05 * np.arange(keys.shape[0])[::-1]
            single_kw = {"score_bias": bias}
            batched_kw = {"score_bias": bias[None]}
        single = token_picker_attention(q, keys, values, cfg, **single_kw)
        batched = token_picker_attention_batched(
            q[None], keys[None], values[None], cfg, **batched_kw
        )
        self.assert_row(single, batched)
        assert single.stats == batched.stats()
        scores_only = token_picker_scores(
            q, keys, cfg,
            **{k: v for k, v in single_kw.items() if k != "v_scale"},
        )
        assert np.array_equal(scores_only.probs, single.probs)
        assert scores_only.output is None


class TestBatchedScoreBias:
    """The rectangular kernel's ``score_bias`` (ALiBi) input, which the
    session's ``step(..., score_bias=)`` routes to."""

    def _heads(self, seed, n_heads=3, t=96, d=32):
        rng = np.random.default_rng(seed)
        keys = rng.normal(size=(n_heads, t, d))
        values = rng.normal(size=(n_heads, t, d))
        q = keys[:, -3] * 2 + 0.3 * rng.normal(size=(n_heads, d))
        # ALiBi-shaped: a per-head slope times the distance to the newest
        bias = -np.outer([0.02, 0.1, 0.4][:n_heads], np.arange(t)[::-1])
        return q, keys, values, bias

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_per_head_scalar_reference(self, seed):
        """Heads are independent: each row of a biased multi-head call
        equals the single-instance call on that head, bit for bit."""
        q, keys, values, bias = self._heads(seed)
        cfg = TokenPickerConfig(threshold=2e-3, schedule="breadth")
        batched = token_picker_attention_batched(
            q, keys, values, cfg, score_bias=bias
        )
        unbiased = token_picker_attention_batched(q, keys, values, cfg)
        assert not np.array_equal(
            batched.log_denominators, unbiased.log_denominators
        )
        for h in range(q.shape[0]):
            scalar = token_picker_attention(
                q[h], keys[h], values[h], cfg, score_bias=bias[h]
            )
            TestBreadthIsBatchedRowZero.assert_row(scalar, batched, h)

    def test_session_step_passes_bias_through(self):
        from repro.core.session import TokenPickerSession

        q, keys, values, bias = self._heads(7)
        cfg = TokenPickerConfig(threshold=2e-3)
        session = TokenPickerSession(cfg)
        scales = session.observe_prompt(keys[:, :64], values[:, :64])
        stepped = session.step(q, keys, values, score_bias=bias)
        direct = token_picker_attention_batched(
            q, keys, values, cfg, score_bias=bias,
            q_scales=scales.q_scale, k_scales=scales.k_scale,
            v_scales=scales.v_scale,
        )
        assert np.array_equal(stepped.kept, direct.kept)
        assert np.array_equal(stepped.outputs, direct.outputs)
        with pytest.raises(ValueError, match="score_bias"):
            session.step(q, keys, values, score_bias=bias[:, :-1])


class TestMultiHead:
    """One batched call covers every head."""

    def test_per_head_results(self):
        rng = np.random.default_rng(30)
        H, t, d = 3, 64, 16
        q = rng.normal(size=(H, d))
        keys = rng.normal(size=(H, t, d))
        values = rng.normal(size=(H, t, d))
        r = token_picker_attention_batched(q, keys, values, TokenPickerConfig())
        assert r.kept.shape == r.probs.shape == (H, t)
        assert r.outputs.shape == (H, d)
        assert r.log_denominators.shape == (H,)
        assert r.stats().n_tokens == H * t
        assert np.allclose(r.probs.sum(axis=1), 1.0)

    def test_scores_only(self):
        rng = np.random.default_rng(31)
        q = rng.normal(size=(2, 8))
        keys = rng.normal(size=(2, 16, 8))
        r = token_picker_attention_batched(q, keys, None, TokenPickerConfig())
        assert r.outputs is None

    def test_shape_validation(self):
        for q_shape, keys_shape in [
            ((8,), (2, 4, 8)), ((2, 8), (2, 4, 6)), ((3, 8), (2, 4, 8)),
        ]:
            with pytest.raises(ValueError, match="q must be"):
                token_picker_attention_batched(
                    np.zeros(q_shape), np.zeros(keys_shape), None,
                    TokenPickerConfig(),
                )


class TestConfigValidation:
    def test_bad_threshold(self):
        with pytest.raises(ValueError):
            TokenPickerConfig(threshold=0.0)
        with pytest.raises(ValueError):
            TokenPickerConfig(threshold=1.5)

    def test_bad_order(self):
        with pytest.raises(ValueError):
            TokenPickerConfig(order="random")

    def test_bad_schedule(self):
        with pytest.raises(ValueError):
            TokenPickerConfig(schedule="widthfirst")

    def test_with_threshold_copy(self):
        cfg = TokenPickerConfig(threshold=1e-3)
        cfg2 = cfg.with_threshold(1e-2)
        assert cfg2.threshold == 1e-2 and cfg.threshold == 1e-3

    def test_log_threshold(self):
        cfg = TokenPickerConfig(threshold=1e-3)
        assert np.isclose(cfg.log_threshold, np.log(1e-3))
