"""Tests for the attention backends (access accounting + outputs)."""

import numpy as np
import pytest

from repro.core.config import TokenPickerConfig
from repro.core.pruning import AccessCounter
from repro.model.attention import ExactAttentionBackend, TokenPickerBackend


@pytest.fixture
def instance():
    rng = np.random.default_rng(0)
    h, t, dh = 3, 64, 16
    keys = rng.normal(size=(h, t, dh))
    values = rng.normal(size=(h, t, dh))
    q = keys[:, -1] + keys[:, 0] + 0.5 * rng.normal(size=(h, dh))
    return q, keys, values


def exact_reference(q, keys, values):
    import math

    scores = np.einsum("htd,hd->ht", keys, q) / math.sqrt(q.shape[-1])
    m = scores.max(axis=1, keepdims=True)
    e = np.exp(scores - m)
    p = e / e.sum(axis=1, keepdims=True)
    return np.einsum("ht,htd->hd", p, values)


class TestExactBackend:
    def test_matches_reference(self, instance):
        q, keys, values = instance
        backend = ExactAttentionBackend()
        out = backend(0, q, keys, values)
        assert np.allclose(out, exact_reference(q, keys, values))

    def test_counts_full_traffic(self, instance):
        q, keys, values = instance
        backend = ExactAttentionBackend()
        backend(0, q, keys, values)
        c = backend.counter
        h, t, dh = keys.shape
        assert c.k_bits == h * t * dh * 12
        assert c.v_bits == c.k_bits
        assert c.keep_fraction == 1.0
        assert c.total_reduction == 1.0


class TestTokenPickerBackend:
    def test_requires_breadth(self):
        with pytest.raises(ValueError):
            TokenPickerBackend(TokenPickerConfig(schedule="depth"))

    def test_output_close_to_exact_at_tiny_threshold(self, instance):
        q, keys, values = instance
        backend = TokenPickerBackend(TokenPickerConfig(threshold=1e-9))
        out = backend(0, q, keys, values)
        ref = exact_reference(q, keys, values)
        assert np.linalg.norm(out - ref) < 0.05 * np.linalg.norm(ref) + 0.05

    def test_traffic_reduced_at_high_threshold(self, instance):
        q, keys, values = instance
        backend = TokenPickerBackend(TokenPickerConfig(threshold=5e-2))
        backend(0, q, keys, values)
        c = backend.counter
        assert c.v_bits < c.baseline_v_bits
        assert c.k_bits < c.baseline_k_bits
        assert c.keep_fraction < 1.0

    def test_counters_accumulate(self, instance):
        q, keys, values = instance
        backend = TokenPickerBackend(TokenPickerConfig())
        backend(0, q, keys, values)
        one = backend.counter.tokens_seen
        backend(1, q, keys, values)
        assert backend.counter.tokens_seen == 2 * one


class TestAccessCounter:
    def test_zero_division_guards(self):
        c = AccessCounter()
        assert c.total_reduction == float("inf")
        assert c.keep_fraction == 1.0

    def test_reduction_math(self):
        c = AccessCounter(k_bits=50, v_bits=25, baseline_k_bits=100,
                          baseline_v_bits=100)
        assert c.k_reduction == 2.0
        assert c.v_pruning_ratio == 4.0
        assert c.total_reduction == pytest.approx(200 / 75)
