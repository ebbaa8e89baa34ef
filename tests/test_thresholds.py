"""Tests for threshold calibration."""

import numpy as np
import pytest

from repro.core.thresholds import CalibrationResult, calibrate_presets, calibrate_threshold


class TestCalibrateThreshold:
    def test_monotone_metric(self):
        # metric = 10 * thr (monotone); budget 0.3 -> thr 0.03
        res = calibrate_threshold(lambda t: 10 * t, budget=0.3, iterations=30)
        assert res.metric_value <= res.budget
        assert np.isclose(res.threshold, 0.03, rtol=0.01)

    def test_budget_never_reachable(self):
        res = calibrate_threshold(lambda t: 1.0, budget=0.1)
        assert res.metric_value > res.budget
        assert res.threshold == 1e-6

    def test_high_always_feasible(self):
        res = calibrate_threshold(lambda t: 0.0, budget=0.1, high=0.05)
        assert res.metric_value <= res.budget
        assert res.threshold == 0.05
        assert res.evaluations == 2  # early exit

    def test_history_recorded(self):
        res = calibrate_threshold(lambda t: 10 * t, budget=0.3, iterations=5)
        assert len(res.history) == res.evaluations
        assert all(len(pair) == 2 for pair in res.history)

    def test_step_metric(self):
        # metric jumps at thr = 1e-3
        metric = lambda t: 0.0 if t <= 1e-3 else 1.0
        res = calibrate_threshold(metric, budget=0.5, iterations=25)
        assert res.metric_value <= res.budget
        assert 5e-4 <= res.threshold <= 1e-3

    def test_invalid_bracket(self):
        with pytest.raises(ValueError):
            calibrate_threshold(lambda t: t, budget=1.0, low=0.1, high=0.01)
        with pytest.raises(ValueError):
            calibrate_threshold(lambda t: t, budget=1.0, iterations=0)

    def test_noisy_metric_keeps_best_feasible(self):
        rng = np.random.default_rng(0)
        metric = lambda t: 10 * t + rng.normal() * 0.01
        res = calibrate_threshold(metric, budget=0.3, iterations=15, monotone_slack=0.05)
        assert res.threshold > 1e-6


class TestPresets:
    def test_all_presets_calibrated(self):
        results = calibrate_presets(lambda t: 3 * t, iterations=20)
        assert set(results) == {"topick", "topick-0.3", "topick-0.5"}
        # larger budget -> larger threshold
        assert results["topick"].threshold <= results["topick-0.3"].threshold
        assert results["topick-0.3"].threshold <= results["topick-0.5"].threshold

    def test_custom_budgets(self):
        results = calibrate_presets(lambda t: t, budgets={"a": 0.01}, iterations=10)
        assert set(results) == {"a"}
