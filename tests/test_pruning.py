"""End-to-end tests of the Token-Picker pruning algorithm (Sec. 3)."""

import math

import numpy as np
import pytest

from repro.core import (
    QuantConfig,
    TokenPickerConfig,
    exact_attention,
    exact_attention_probs,
    exact_threshold_pruning,
    multi_head_token_picker,
    pruning_error,
    token_picker_attention,
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


class TestBreadthIncrementalDenominator:
    """`_run_breadth` maintains ln(D) incrementally (frozen dead part +
    logaddexp over the bounds that tightened this round) instead of a
    full-array logsumexp per round; this pins the refactor against a
    reimplementation of the full recompute.

    What "identical" means here: the two schemes sum the same terms in
    different association orders, so the last float64 ulp of ln(D) can
    legitimately differ — no incremental scheme can reproduce the full
    recompute's pairwise-summation bits.  The pin is therefore (a) exact
    equality of every *decision* the denominator drives (`kept`,
    `chunks_fetched`) across a seed x threshold grid, and (b) ln(D)
    itself to 1e-12 relative.  Safety never depends on those last bits:
    any lower-bound denominator keeps the certificate sound (tested
    below), and the serving-path bit-identity contract (batched vs
    ragged kernels) is unaffected — both share one denominator
    expression."""

    def _full_recompute_reference(self, q, keys, cfg):
        from repro.core.margins import margin_pairs
        from repro.core.pruning import (
            _chunk_score_table,
            _guard_mask,
            _logsumexp_1d,
            _quantize_operands,
        )

        q_codes, k_codes, score_scale = _quantize_operands(
            q, keys, cfg.quant, None, None
        )
        ps = _chunk_score_table(q_codes, k_codes, cfg.quant)
        margins = margin_pairs(q_codes, cfg.quant)
        guard = _guard_mask(keys.shape[0], cfg.prompt_guard)
        n, n_chunks = ps.shape
        bias = np.zeros(n)
        s_min = ps * score_scale + margins.mins[1:][None, :] * score_scale + bias[:, None]
        s_max = ps * score_scale + margins.maxs[1:][None, :] * score_scale + bias[:, None]
        alive = np.ones(n, dtype=bool)
        chunks = np.zeros(n, dtype=np.int64)
        lb = np.full(n, -np.inf)
        log_den = -np.inf
        for b in range(n_chunks):
            chunks[alive] = b + 1
            lb[alive] = s_min[alive, b]
            log_den = _logsumexp_1d(lb)  # the old full recompute
            prune = alive & ((s_max[:, b] - log_den) <= cfg.log_threshold) & ~guard
            alive = alive & ~prune
            if not alive.any():
                break
        return alive, chunks, log_den

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("thr", [1e-2, 2e-3, 1e-4])
    def test_matches_full_recompute(self, seed, thr):
        q, keys, _ = _instance(seed, t=192)
        cfg = TokenPickerConfig(threshold=thr, schedule="breadth")
        r = token_picker_scores(q, keys, cfg)
        kept_ref, chunks_ref, log_den_ref = self._full_recompute_reference(
            q, keys, cfg
        )
        assert np.array_equal(r.kept, kept_ref)
        assert np.array_equal(r.chunks_fetched, chunks_ref)
        assert np.isclose(r.log_denominator, log_den_ref, rtol=1e-12, atol=0)

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
            q, keys, cfg
        )
        assert np.array_equal(r.kept, kept_ref)
        assert np.isclose(r.log_denominator, log_den_ref, rtol=1e-12, atol=0)


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
        from repro.core import token_picker_attention_batched

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
            scalar = token_picker_scores(q[h], keys[h], cfg, score_bias=bias[h])
            assert np.array_equal(batched.kept[h], scalar.kept)
            assert np.array_equal(batched.chunks_fetched[h], scalar.chunks_fetched)
            assert np.allclose(batched.scores[h], scalar.scores, rtol=1e-12)

    def test_session_step_passes_bias_through(self):
        from repro.core import token_picker_attention_batched
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


class TestExactThresholdPruning:
    def test_matches_definition(self):
        scores = np.array([0.0, 1.0, 5.0, -3.0])
        p = np.exp(scores - scores.max())
        p /= p.sum()
        kept = exact_threshold_pruning(scores, 1e-2)
        assert np.array_equal(kept, p > 1e-2)

    def test_never_empty(self):
        kept = exact_threshold_pruning(np.zeros(10), 0.5)
        assert kept.sum() == 1

    def test_empty_input(self):
        assert exact_threshold_pruning(np.zeros(0), 0.5).size == 0

    def test_upper_bounds_chunked_pruning(self):
        """Exact pruning (full K on-chip) keeps no more than chunked."""
        q, keys, _ = _instance(20, sharpness=3.0)
        cfg = TokenPickerConfig(threshold=1e-3, prompt_guard=0)
        r = token_picker_scores(q, keys, cfg)
        kept_exact = exact_threshold_pruning(r.scores, cfg.threshold)
        # chunked estimation is conservative: keeps a superset
        assert kept_exact.sum() <= r.stats.n_kept


class TestMultiHead:
    def test_per_head_results(self):
        rng = np.random.default_rng(30)
        H, t, d = 3, 64, 16
        q = rng.normal(size=(H, d))
        keys = rng.normal(size=(H, t, d))
        values = rng.normal(size=(H, t, d))
        results = multi_head_token_picker(q, keys, values, TokenPickerConfig())
        assert len(results) == H
        for r in results:
            assert r.output is not None
            assert r.stats.n_tokens == t

    def test_scores_only(self):
        rng = np.random.default_rng(31)
        q = rng.normal(size=(2, 8))
        keys = rng.normal(size=(2, 16, 8))
        results = multi_head_token_picker(q, keys, None, TokenPickerConfig())
        assert all(r.output is None for r in results)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            multi_head_token_picker(
                np.zeros(8), np.zeros((2, 4, 8)), None, TokenPickerConfig()
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


class TestTrace:
    def test_trace_collection(self, schedule):
        q, keys, _ = _instance(40)
        cfg = TokenPickerConfig(schedule=schedule)
        r = token_picker_scores(q, keys, cfg, collect_trace=True)
        ub = r.trace["log_upper_bound_first_chunk"]
        assert ub.shape == (keys.shape[0],)
        assert np.isfinite(ub).any()
