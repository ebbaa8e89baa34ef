"""Tests for the NumPy GPT: forward/backward, KV cache, generation."""

import numpy as np
import pytest

from repro.model.config import ModelConfig, tiny_config
from repro.model.transformer import KVCache, TinyGPT

MICRO = tiny_config(
    name="micro", n_layers=2, d_model=16, n_heads=2, vocab_size=13, max_context=24
)


@pytest.fixture(scope="module")
def model():
    return TinyGPT(MICRO, seed=3)


@pytest.fixture(scope="module")
def tokens():
    return np.random.default_rng(0).integers(0, 13, size=(2, 10))


class TestForward:
    def test_logit_shape(self, model, tokens):
        logits, _ = model.forward(tokens)
        assert logits.shape == (2, 10, 13)

    def test_causality(self, model, tokens):
        """Changing a future token must not affect earlier logits."""
        logits1, _ = model.forward(tokens)
        perturbed = tokens.copy()
        perturbed[:, -1] = (perturbed[:, -1] + 1) % 13
        logits2, _ = model.forward(perturbed)
        assert np.allclose(logits1[:, :-1], logits2[:, :-1])
        assert not np.allclose(logits1[:, -1], logits2[:, -1])

    def test_token_range_validated(self, model):
        with pytest.raises(ValueError):
            model.forward(np.array([[13]]))
        with pytest.raises(ValueError):
            model.forward(np.array([[-1]]))

    def test_context_limit(self, model):
        with pytest.raises(ValueError):
            model.forward(np.zeros((1, 25), dtype=int))

    def test_1d_rejected(self, model):
        with pytest.raises(ValueError):
            model.forward(np.zeros(5, dtype=int))

    def test_param_count_positive(self, model):
        assert sum(p.size for p in model.params.values()) > 5_000


class TestGradients:
    """Full-model finite-difference checks on sampled coordinates."""

    @pytest.mark.parametrize(
        "pname",
        ["wte", "wpe", "l0.attn.wqkv", "l0.attn.wo", "l1.ffn.w1", "l1.ffn.b2",
         "l0.ln1.g", "lnf.b"],
    )
    def test_selected_parameter_grads(self, pname):
        # learned-positions config so 'wpe' exists; ALiBi covered below
        cfg = tiny_config(
            name="micro-learned", n_layers=2, d_model=16, n_heads=2,
            vocab_size=13, max_context=24,
        )
        cfg = ModelConfig(**{**cfg.__dict__, "position_scheme": "learned",
                             "learned_positions": True})
        model = TinyGPT(cfg, seed=5)
        toks = np.random.default_rng(1).integers(0, 13, size=(2, 6))
        _, grads = model.loss_and_grads(toks)
        p = model.params[pname]
        rng = np.random.default_rng(hash(pname) % 2**32)
        eps = 1e-6
        for _ in range(3):
            idx = tuple(rng.integers(0, s) for s in p.shape)
            orig = p[idx]
            p[idx] = orig + eps
            lp = model.loss(toks)
            p[idx] = orig - eps
            lm = model.loss(toks)
            p[idx] = orig
            numeric = (lp - lm) / (2 * eps)
            analytic = grads[pname][idx]
            assert numeric == pytest.approx(analytic, abs=1e-5, rel=1e-3)

    def test_grads_cover_all_params(self, model, tokens):
        _, grads = model.loss_and_grads(tokens)
        assert set(grads) == set(model.params)
        for name, g in grads.items():
            assert g.shape == model.params[name].shape
            assert np.all(np.isfinite(g))

    def test_alibi_model_grads(self):
        """Spot gradcheck on the ALiBi (default tiny) scheme."""
        model = TinyGPT(MICRO, seed=6)
        assert model.alibi is not None
        toks = np.random.default_rng(2).integers(0, 13, size=(2, 6))
        _, grads = model.loss_and_grads(toks)
        p = model.params["l0.attn.wqkv"]
        eps = 1e-6
        idx = (3, 5)
        orig = p[idx]
        p[idx] = orig + eps
        lp = model.loss(toks)
        p[idx] = orig - eps
        lm = model.loss(toks)
        p[idx] = orig
        numeric = (lp - lm) / (2 * eps)
        assert numeric == pytest.approx(grads["l0.attn.wqkv"][idx], abs=1e-5, rel=1e-3)


class TestKVCache:
    def test_incremental_matches_full(self, model):
        seq = np.random.default_rng(2).integers(0, 13, size=12)
        full, _ = model.forward(seq[None, :])
        incremental = model.sequence_logits(seq)
        assert np.allclose(full[0], incremental, atol=1e-10)

    def test_capacity_enforced(self, model):
        cache = model.new_cache(capacity=2)
        model.decode_step(1, cache)
        model.decode_step(2, cache)
        with pytest.raises(ValueError):
            model.decode_step(3, cache)

    def test_cache_shapes(self):
        cache = KVCache(n_layers=2, n_heads=3, head_dim=4, capacity=8)
        cache.append(0, np.ones((3, 4)), np.zeros((3, 4)))
        cache.append(1, np.ones((3, 4)), np.zeros((3, 4)))
        cache.advance()
        assert cache.keys(0).shape == (3, 1, 4)
        assert cache.length == 1

    def test_sequence_logits_validates_shape(self, model):
        with pytest.raises(ValueError):
            model.sequence_logits(np.zeros((2, 3), dtype=int))


class TestGeneration:
    def test_greedy_deterministic(self, model):
        prompt = np.array([1, 2, 3])
        a = model.generate(prompt, 5)
        b = model.generate(prompt, 5)
        assert np.array_equal(a, b)
        assert len(a) == 8
        assert np.array_equal(a[:3], prompt)

    def test_temperature_sampling_seeded(self, model):
        prompt = np.array([1, 2, 3])
        a = model.generate(prompt, 5, temperature=1.0, seed=4)
        b = model.generate(prompt, 5, temperature=1.0, seed=4)
        c = model.generate(prompt, 5, temperature=1.0, seed=5)
        assert np.array_equal(a, b)
        assert len(c) == 8

    def test_empty_prompt_rejected(self, model):
        with pytest.raises(ValueError):
            model.generate(np.array([], dtype=int), 3)

    def test_context_overflow_rejected(self, model):
        with pytest.raises(ValueError):
            model.generate(np.arange(5) % 13, 100)

    def test_custom_backend_used(self, model):
        calls = []

        def backend(layer, q, keys, values, bias=None):
            calls.append((layer, keys.shape[1]))
            return model.exact_backend(layer, q, keys, values, bias)

        out = model.generate(np.array([1, 2, 3]), 3, backend=backend)
        assert len(out) == 6
        # backend used only for generated positions (prompt is exact)
        assert all(t > 3 for _, t in calls)
        assert len(calls) == 2 * MICRO.n_layers  # n_new-1 steps decode


class TestModelConfigZoo:
    def test_zoo_entries_valid(self):
        from repro.model.config import MODEL_ZOO

        for name, cfg in MODEL_ZOO.items():
            assert cfg.head_dim * cfg.n_heads == cfg.d_model
            assert cfg.param_count > 0

    def test_param_counts_near_nameplates(self):
        """Parameter totals should match the models' advertised sizes."""
        from repro.model.config import get_model_config

        nameplates = {
            "gpt2-xl": 1.56e9,
            "opt-6.7b": 6.7e9,
            "opt-13b": 13e9,
            "llama-2-7b": 6.7e9,
            "llama-2-13b": 13e9,
        }
        for name, expected in nameplates.items():
            count = get_model_config(name).param_count
            assert abs(count - expected) / expected < 0.12, name

    def test_kv_bytes(self):
        from repro.model.config import get_model_config

        cfg = get_model_config("opt-6.7b")
        # 2 x 32 layers x 4096 dim x 2 bytes = 512 KiB per token
        assert cfg.kv_bytes_per_token() == 2 * 32 * 4096 * 2

    def test_unknown_model(self):
        from repro.model.config import get_model_config

        with pytest.raises(KeyError):
            get_model_config("gpt5")

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            ModelConfig(
                name="bad", n_layers=2, d_model=10, n_heads=3, vocab_size=5,
                max_context=8, ffn_hidden=16,
            )
