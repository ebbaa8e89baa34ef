"""Tests for the SpAtten comparator model."""

import numpy as np
import pytest

from repro.core.config import QuantConfig
from repro.hw.spatten import (
    SpAttenConfig,
    baseline_generation_accesses,
    spatten_generation_accesses,
    topick_generation_accesses,
)


class TestSpAttenConfig:
    def test_keep_ratio_schedule(self):
        cfg = SpAttenConfig(n_layers=5, final_keep_ratio=0.4)
        assert cfg.keep_ratio(0) == 1.0
        assert np.isclose(cfg.keep_ratio(4), 0.4)
        ratios = [cfg.keep_ratio(l) for l in range(5)]
        assert all(a >= b for a, b in zip(ratios, ratios[1:]))

    def test_single_layer(self):
        assert SpAttenConfig(n_layers=1, final_keep_ratio=0.3).keep_ratio(0) == 0.3

    def test_validation(self):
        with pytest.raises(ValueError):
            SpAttenConfig(n_layers=0)
        with pytest.raises(ValueError):
            SpAttenConfig(n_layers=2, final_keep_ratio=0.0)
        with pytest.raises(ValueError):
            SpAttenConfig(n_layers=2, v_keep_ratio=1.5)
        with pytest.raises(ValueError):
            SpAttenConfig(n_layers=2).keep_ratio(2)


class TestGenerationAccessModels:
    N_LAYERS, N_HEADS, HEAD_DIM = 24, 16, 64

    def _baseline(self, a=256, b=512):
        return baseline_generation_accesses(
            a, b, self.N_LAYERS, self.N_HEADS, self.HEAD_DIM
        )

    def test_baseline_symmetry(self):
        acc = self._baseline()
        assert acc.k_bytes == acc.v_bytes

    def test_baseline_grows_with_run_length(self):
        short = self._baseline(256, 512)
        long = self._baseline(256, 1024)
        assert long.total > short.total

    def test_invalid_ranges(self):
        with pytest.raises(ValueError):
            baseline_generation_accesses(512, 512, 2, 2, 8)
        with pytest.raises(ValueError):
            spatten_generation_accesses(
                10, 5, SpAttenConfig(n_layers=2), 2, 8
            )

    def test_spatten_beats_baseline(self):
        cfg = SpAttenConfig(n_layers=self.N_LAYERS, final_keep_ratio=0.5)
        sp = spatten_generation_accesses(256, 512, cfg, self.N_HEADS, self.HEAD_DIM)
        base = self._baseline()
        assert sp.total < base.total

    def test_spatten_long_prompt_advantage(self):
        """Cascade saves more (relatively) when the prompt is long."""
        cfg = SpAttenConfig(n_layers=self.N_LAYERS, final_keep_ratio=0.4)
        short_prompt = spatten_generation_accesses(
            256, 1024, cfg, self.N_HEADS, self.HEAD_DIM
        ).total / self._baseline(256, 1024).total
        long_prompt = spatten_generation_accesses(
            768, 1024, cfg, self.N_HEADS, self.HEAD_DIM
        ).total / self._baseline(768, 1024).total
        assert long_prompt <= short_prompt

    def test_topick_model(self):
        acc = topick_generation_accesses(
            256, 512, self.N_LAYERS, self.N_HEADS, self.HEAD_DIM,
            keep_fraction=0.08, mean_chunks=2.1,
        )
        base = self._baseline()
        assert acc.k_bytes < base.k_bytes
        assert acc.v_bytes < 0.1 * base.v_bytes

    def test_topick_validation(self):
        with pytest.raises(ValueError):
            topick_generation_accesses(1, 2, 1, 1, 8, keep_fraction=0.0, mean_chunks=2)
        with pytest.raises(ValueError):
            topick_generation_accesses(1, 2, 1, 1, 8, keep_fraction=0.5, mean_chunks=9)
