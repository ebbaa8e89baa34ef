"""Tests for the analytic batched-serving traffic model."""

import pytest

from repro.eval.batching import measured_batch_point
from repro.model.config import get_model_config


@pytest.fixture(scope="module")
def model():
    return get_model_config("gpt2-medium")


class TestMeasuredPoint:
    def test_matches_uniform_curve_when_traffic_uniform(self, model):
        """With identical per-sequence stats the measured point reproduces
        the single sequence's reduction ratio, and the batch-shared weights
        keep the step speedup below it."""
        from repro.core import QuantConfig
        from repro.core.pruning import PruneStats

        stats = PruneStats(
            n_tokens=1024,
            n_kept=128,
            k_chunks_fetched=1500,
            v_vectors_fetched=128,
            head_dim=model.head_dim,
            quant=QuantConfig(),
        )
        point = measured_batch_point(
            model, [stats] * 8, context_length=1024, engine_heads=model.n_heads
        )
        assert point.batch_size == 8
        reduction = stats.baseline_total_bits / stats.total_bits_fetched
        assert point.kv_bytes / point.kv_bytes_pruned == pytest.approx(reduction)
        assert 1.0 < point.step_speedup < reduction
