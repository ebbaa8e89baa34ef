"""The arena kernel's alive-set score rounds against the rectangular oracle.

``token_picker_attention_ragged`` fetches chunk 0 for every token and
later chunks only for undecided (head, token) pairs, switching between
dense full-width rounds and compacted pair gathers as the alive set
thins.  Its contract against independent
``token_picker_attention_batched`` calls:

* kept sets and chunks fetched are equal, and probabilities, outputs
  and log denominators are **byte-identical** (a ``-0.0`` output stays
  ``-0.0``) — pruning decisions never move;
* kept tokens' reported scores are the exact full-depth values;
* a pruned token's reported score is its certified upper bound at the
  round that pruned it (``p'' >= p``, Eq. 5) — its remaining chunks
  were never fetched, which is the whole point;
* ``round_alive`` (pairs entering each round) is what the oracle's
  ``chunks_fetched`` implies and is monotone non-increasing.

Property-swept across integer digit dtypes (int8 / int16; the pool
stores int8 for chunks of up to 7 bits), float32 and float64
accumulation (the 2**24 gate), formats up to the 52-bit float64
exactness limit (the kernel refuses wider ones), prompt-guard edges and
thresholds; plus engine-level identity under preemption and tiered
on-demand promotions.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import (
    QuantConfig,
    TokenPickerConfig,
    token_picker_attention_batched,
    token_picker_attention_ragged,
)
from repro.core import pruning
from repro.core.pruning import KernelScratch, PruneStats
from repro.kvstore import TierConfig
from repro.serving import (
    GenerationRequest,
    ServingEngine,
    replayable_step_source,
)
from repro.serving.kv_pool import freeze_scales
from test_kvstore import _assert_identical as _assert_drains_identical
from test_kvstore import (
    _assert_one_kernel_call_per_busy_step,
    _drain_collecting,
    _spy_kernel_calls,
)
from test_ragged_kernel import (
    _assert_identical,
    _build_arena,
    _make_batch,
    _run_arena,
)

#: (quant format, digit dtype) — the paper's 12-bit format in int8 (the
#: pool's width) and int16, contracted in float32; a format exact in
#: float64 only, close to the 52-bit gate (2*total_bits - 2 +
#: bit_length(head_dim - 1) <= 52: 24-bit codes at head_dim 24 give
#: 46 + 5 = 51), in its int16 width; 13-bit chunks (int16) contracted in
#: float64; plus a single-chunk format whose refinement loop is empty.
FORMATS = [
    (QuantConfig(12, 4), np.int8),
    (QuantConfig(12, 4), np.int16),
    (QuantConfig(24, 8), np.int16),
    (QuantConfig(13, 13), np.int16),
    (QuantConfig(8, 8), np.int16),
]
HEAD_DIM = 24


def _case(seed=0, n_seqs=4, n_heads=2, max_len=90):
    rng = np.random.default_rng(seed)
    qs, keys, values = _make_batch(rng, n_seqs, n_heads, HEAD_DIM, max_len)
    scales = tuple(
        rng.uniform(0.005, 0.05, size=(n_seqs, n_heads)) for _ in range(3)
    )
    return qs, keys, values, scales


def _assert_matches_batched(ragged, config, qs, keys, values, scales,
                            scores="bound"):
    """Every sequence against its own rectangular-kernel call, plus the
    per-round alive counts that oracle's ``chunks_fetched`` implies."""
    q_sc, k_sc, v_sc = scales
    n_chunks = config.quant.n_chunks
    round_alive = np.zeros(n_chunks + 1, dtype=np.int64)
    for s in range(len(keys)):
        independent = token_picker_attention_batched(
            qs[s], keys[s], values[s], config,
            q_scales=q_sc[s], k_scales=k_sc[s], v_scales=v_sc[s],
        )
        _assert_identical(ragged.results[s], independent, scores)
        for b in range(n_chunks):
            round_alive[b] += int((independent.chunks_fetched > b).sum())
        round_alive[n_chunks] += int(independent.kept.sum())
    assert np.array_equal(ragged.round_alive, round_alive)
    assert np.all(np.diff(ragged.round_alive) <= 0)


class TestRoundsVsBatchedSweep:
    @settings(
        max_examples=30,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        seed=st.integers(0, 2**31 - 1),
        n_seqs=st.integers(1, 5),
        n_heads=st.integers(1, 3),
        max_len=st.integers(1, 110),
        fmt=st.integers(0, len(FORMATS) - 1),
        guard=st.sampled_from([0, 1, 10_000]),
        thr=st.sampled_from([1e-4, 2e-3, 5e-2]),
    )
    def test_bit_identity(
        self, seed, n_seqs, n_heads, max_len, fmt, guard, thr
    ):
        quant, dtype = FORMATS[fmt]
        qs, keys, values, scales = _case(seed, n_seqs, n_heads, max_len)
        config = TokenPickerConfig(
            threshold=thr, quant=quant, prompt_guard=guard
        )
        ragged = _run_arena(
            qs, keys, values, config, *scales, dtype=dtype,
            scratch=KernelScratch(),
        )
        _assert_matches_batched(ragged, config, qs, keys, values, scales)
        # the O(1) aggregates equal the accounting of the dense arrays
        for r in ragged.results:
            n_kept = int(r.kept.sum())
            assert r.stats() == PruneStats(
                n_tokens=r.kept.size,
                n_kept=n_kept,
                k_chunks_fetched=int(r.chunks_fetched.sum()),
                v_vectors_fetched=n_kept,
                head_dim=HEAD_DIM,
                quant=quant,
            )


class TestRoundEdges:
    def test_single_chunk_format_has_empty_refinement(self):
        """n_chunks=1: the whole decision happens in the chunk-0 round."""
        qs, keys, values, scales = _case()
        config = TokenPickerConfig(threshold=2e-3, quant=QuantConfig(8, 8))
        ragged = _run_arena(qs, keys, values, config, *scales)
        _assert_matches_batched(ragged, config, qs, keys, values, scales)
        assert ragged.round_alive.shape == (2,)
        for r in ragged.results:
            assert np.all(r.chunks_fetched == 1)

    def test_guard_covering_everything_keeps_scores_exact(self):
        """With every token guarded nothing is ever pruned, so every
        refinement round runs to full depth and the *entire* score
        matrix — not just kept entries — is the oracle's."""
        qs, keys, values, scales = _case(seed=3)
        config = TokenPickerConfig(threshold=2e-3, prompt_guard=10_000)
        ragged = _run_arena(
            qs, keys, values, config, *scales, dtype=np.int8
        )
        _assert_matches_batched(
            ragged, config, qs, keys, values, scales, scores="exact"
        )
        for r in ragged.results:
            assert r.kept.all()

    def test_matches_independent_batched_calls(self):
        qs, keys, values, scales = _case(seed=11)
        config = TokenPickerConfig(threshold=2e-3)
        ragged = _run_arena(
            qs, keys, values, config, *scales, dtype=np.int8
        )
        _assert_matches_batched(ragged, config, qs, keys, values, scales)


    def test_tile_boundaries_never_move_a_bit(self, monkeypatch):
        """Dense rounds cast each segment into a float tile a bounded
        number of tokens at a time; tiles of one token and of seven
        tokens, far shorter than the segments, give the oracle's bits."""
        qs, keys, values, scales = _case(seed=13)
        config = TokenPickerConfig(threshold=2e-3, prompt_guard=0)
        n_heads = qs.shape[1]
        for tile_tokens in (1, 7):
            tile_bytes = tile_tokens * n_heads * HEAD_DIM * 4  # float32
            monkeypatch.setattr(pruning, "_TILE_BYTES", tile_bytes)
            ragged = _run_arena(
                qs, keys, values, config, *scales, dtype=np.int8
            )
            _assert_matches_batched(ragged, config, qs, keys, values, scales)


class TestScratchReuse:
    def test_round_buffers_stable_across_steps(self):
        """The round loop's scratch views (partial scores, bounds,
        denominator work arrays, the hoisted ``ld_cols``/``m_tok``/exp
        buffers), the thin rounds' pair gathers and the unpack's V rows
        must come from the same backing allocations on every same-shaped
        call — per-step allocator traffic must not creep back."""
        qs, keys, values, (q_sc, k_sc, v_sc) = _case(seed=5, max_len=80)
        config = TokenPickerConfig(threshold=5e-2)
        k_arena, v_arena, segments = _build_arena(
            keys, values, k_sc, v_sc, config.quant, np.int8
        )
        scratch = KernelScratch()

        def call():
            return token_picker_attention_ragged(
                qs, config,
                q_scales=q_sc, k_scales=k_sc,
                k_plane_arena=k_arena, v_arena=v_arena, v_scales=v_sc,
                segments=segments, scratch=scratch,
            )

        first = call()
        buffers_after_first = dict(scratch._buffers)
        for name in (
            "ld_cols", "m_tok", "ex", "m_cols", "m_fix", "den_cols",
            "lz_ps", "lz_smin", "lz_smax", "lz_mrow", "scores", "chunks",
            "lz_c0", "k_tile", "pr_h", "pr_t", "pr_hs", "pr_row", "pr_q",
            "pr_k", "pr_kf", "pr_c", "pr_ps", "pr_shift", "pr_base",
            "pr_smin", "pr_smax", "pr_margin", "pr_prune", "pr_ok",
            "v_codes", "v_rows",
        ):
            assert any(k[0] == name for k in buffers_after_first), name
        second = call()
        assert set(scratch._buffers) == set(buffers_after_first)
        for key, buf in scratch._buffers.items():
            assert buf is buffers_after_first[key], key
        # identical inputs -> identical outputs through reused scratch
        assert np.array_equal(second.round_alive, first.round_alive)
        for a, b in zip(second.results, first.results):
            _assert_identical(a, b, "exact")

    def test_results_outlive_the_scratch(self):
        """Results never view the scratch: every call's results, kept
        across later calls on growing, different batches through one
        :class:`KernelScratch`, still equal their independent oracle
        calls after the last one.  Nothing is read before then, so no
        dense array can have been cached early."""
        config = TokenPickerConfig(threshold=5e-2)
        scratch = KernelScratch()
        calls = []
        for n_seqs, seed in enumerate(range(20, 25), start=1):
            qs, keys, values, scales = _case(
                seed=seed, n_seqs=n_seqs, max_len=40 + 20 * n_seqs
            )
            ragged = _run_arena(
                qs, keys, values, config, *scales, dtype=np.int8,
                scratch=scratch,
            )
            calls.append((ragged, qs, keys, values, scales))
        for ragged, qs, keys, values, scales in calls:
            _assert_matches_batched(ragged, config, qs, keys, values, scales)


CFG = TokenPickerConfig(threshold=2e-3)
N_HEADS = 4
SAFETY_FACTOR = 1.25


def _requests(n, prompt=96, new=12, seed=0, head_dim=32):
    """Requests with recorded decode streams, so the oracle can replay
    the exact tensors the engine consumed."""
    rng = np.random.default_rng(seed)
    pairs = []
    for _ in range(n):
        source, stream = replayable_step_source(rng, N_HEADS, head_dim, new)
        pairs.append((
            GenerationRequest(
                prompt_keys=rng.normal(size=(N_HEADS, prompt, head_dim)),
                prompt_values=rng.normal(size=(N_HEADS, prompt, head_dim)),
                max_new_tokens=new,
                step_source=source,
            ),
            stream,
        ))
    return pairs


def _batched_replay(pairs):
    """Each request alone through the rectangular kernel with the scales
    the engine froze at admission — what every engine run must equal.
    Call after the drain: request ids are assigned on submit."""
    outputs = {}
    for request, stream in pairs:
        scales = freeze_scales(
            request.prompt_keys, request.prompt_values, CFG.quant,
            SAFETY_FACTOR,
        )
        keys, values = request.prompt_keys, request.prompt_values
        steps = outputs[request.request_id] = []
        for q, k, v in stream:
            keys = np.concatenate([keys, k[:, None, :]], axis=1)
            values = np.concatenate([values, v[:, None, :]], axis=1)
            r = token_picker_attention_batched(
                q, keys, values, CFG,
                q_scales=scales.q_scale, k_scales=scales.k_scale,
                v_scales=scales.v_scale,
            )
            steps.append((r.kept, r.probs, r.outputs))
    return outputs


class TestEngineMatchesBatched:
    def _engine(self, tier=None, batch=4, capacity=None, preemptible=False):
        kwargs = {}
        if preemptible:
            from repro.cluster.memory import make_memory_manager

            kwargs = dict(
                block_size=8,
                memory_manager=make_memory_manager("optimistic"),
            )
        return ServingEngine(
            CFG,
            max_batch_size=batch,
            safety_factor=SAFETY_FACTOR,
            capacity_tokens=capacity or batch * 140,
            seed=0,
            kv_tiering=tier,
            **kwargs,
        )

    def test_identical_under_preemption(self):
        """An overcommitted engine, through swap-out/swap-in, still
        produces each request's independent batched outputs step for
        step."""
        engine = self._engine(batch=4, capacity=4 * 72, preemptible=True)
        pairs = _requests(8, prompt=48, new=24, seed=5)
        drained = _drain_collecting(engine, [r for r, _ in pairs])
        assert engine.preemptions_total > 0
        _assert_drains_identical(drained, _batched_replay(pairs))

    def test_tiered_identical_through_promotions(self, monkeypatch):
        """The strongest composition: the kernel under tiered KV
        demotion (including on-demand promotions, read from the step's
        one kernel call) against the untiered rectangular oracle — still
        bit-identical."""
        tier = TierConfig(
            policy="recency", recency_window=4, hot_tail=4,
            survive_idle_steps=1,
        )
        engine = self._engine(tier=tier)
        pairs = _requests(4)
        calls, reports = _spy_kernel_calls(monkeypatch), []
        drained = _drain_collecting(engine, [r for r, _ in pairs], reports)
        _assert_drains_identical(drained, _batched_replay(pairs))
        assert engine.tiers.promotions_total > 0
        _assert_one_kernel_call_per_busy_step(calls, reports)

    def test_engine_accumulates_round_alive(self):
        engine = self._engine()
        for request, _ in _requests(4):
            engine.submit(request)
        reports = engine.run_until_drained()
        busy = [r for r in reports if r.batch_size]
        assert all(r.round_alive is not None for r in busy)
        totals = engine.round_alive_totals
        assert totals.shape == (
            engine.config.quant.n_chunks + 1,
        )
        assert totals[0] == sum(int(r.round_alive[0]) for r in busy)
        assert np.all(np.diff(totals) <= 0)
        assert totals[0] > 0
