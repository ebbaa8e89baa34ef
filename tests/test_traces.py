"""Tests for attention-trace harvesting from the LM."""

import numpy as np
import pytest

from repro.core import TokenPickerConfig, token_picker_scores
from repro.model import TinyGPT, tiny_config
from repro.workloads.traces import (
    TraceSpec,
    harvest_instances,
    harvest_with_bias,
    harvested_dominance_profile,
)


@pytest.fixture(scope="module")
def model():
    return TinyGPT(
        tiny_config(name="trace", n_layers=2, d_model=32, n_heads=2,
                    vocab_size=16, max_context=96),
        seed=5,
    )


@pytest.fixture(scope="module")
def tokens():
    return np.random.default_rng(0).integers(0, 16, size=80)


class TestHarvest:
    def test_counts_and_shapes(self, model, tokens):
        spec = TraceSpec(positions=[40, 70])
        instances = harvest_instances(model, tokens, spec)
        # layers x heads x positions
        assert len(instances) == 2 * 2 * 2
        assert instances[0].q.shape == (16,)
        assert instances[0].keys.shape == (41, 16)
        assert instances[1].keys.shape == (71, 16)

    def test_layer_head_selection(self, model, tokens):
        spec = TraceSpec(positions=[40], layers=[1], heads=[0])
        instances = harvest_instances(model, tokens, spec)
        assert len(instances) == 1

    def test_position_validation(self, model, tokens):
        with pytest.raises(ValueError):
            harvest_instances(model, tokens, TraceSpec(positions=[0]))
        with pytest.raises(ValueError):
            harvest_instances(model, tokens, TraceSpec(positions=[500]))
        with pytest.raises(ValueError):
            harvest_instances(model, tokens[None, :], TraceSpec(positions=[4]))

    def test_instances_match_model_attention(self, model, tokens):
        """The harvested (q, K) reproduce the model's own probabilities."""
        spec = TraceSpec(positions=[60], layers=[0], heads=[1])
        (inst, bias), = harvest_with_bias(model, tokens, spec)
        scores = inst.keys @ inst.q / np.sqrt(16)
        if bias is not None:
            scores = scores + bias
        probs = np.exp(scores - scores.max())
        probs /= probs.sum()
        _, cache = model.forward(np.asarray(tokens)[None, :])
        model_probs = cache[1][0][5][0][1, 60, :61]
        assert np.allclose(probs, model_probs, atol=1e-10)

    def test_bias_present_for_alibi(self, model, tokens):
        pairs = harvest_with_bias(model, tokens, TraceSpec(positions=[30]))
        for inst, bias in pairs:
            assert bias is not None
            assert bias.shape == (31,)
            assert bias[-1] == 0.0  # newest token: zero distance

    def test_harvested_instances_prune_safely(self, model, tokens):
        pairs = harvest_with_bias(model, tokens, TraceSpec(positions=[70]))
        cfg = TokenPickerConfig(threshold=5e-3)
        for inst, bias in pairs:
            r = token_picker_scores(inst.q, inst.keys, cfg, score_bias=bias)
            p = np.exp(r.scores - r.scores.max())
            p /= p.sum()
            assert np.all(p[~r.kept] <= cfg.threshold + 1e-9)

    def test_dominance_profile(self, model, tokens):
        instances = harvest_instances(model, tokens, TraceSpec(positions=[70]))
        profile = harvested_dominance_profile(instances)
        assert profile.shape == (len(instances),)
        assert np.all((0 <= profile) & (profile <= 1))
