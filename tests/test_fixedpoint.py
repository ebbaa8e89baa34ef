"""Tests for the fixed-point EXP/LN units and their safety direction."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hw.fixedpoint import (
    ConservativeExpUnit,
    FixedPointExp,
    FixedPointFormat,
    FixedPointLn,
    Pow2LUT,
)


class TestFormat:
    def test_ranges(self):
        fmt = FixedPointFormat(8, 24)
        assert fmt.total_bits == 32
        assert fmt.max_value == pytest.approx(128.0, rel=1e-6)
        assert fmt.min_value == -128.0

    def test_validation(self):
        with pytest.raises(ValueError):
            FixedPointFormat(0, 4)


class TestPow2LUT:
    def test_bounds(self):
        lut = Pow2LUT(64)
        for f in np.linspace(0, 0.999, 50):
            q30 = int(f * (1 << 30))
            down = lut.lookup(q30, "down") / (1 << 30)
            up = lut.lookup(q30, "up") / (1 << 30)
            true = 2.0**f
            assert down <= true <= up

    def test_range_validation(self):
        lut = Pow2LUT(64)
        with pytest.raises(ValueError):
            lut.lookup(1 << 30, "down")
        with pytest.raises(ValueError):
            Pow2LUT(1)


class TestFixedPointExp:
    @given(x=st.floats(-80, 80))
    @settings(max_examples=200)
    def test_directional_bounds(self, x):
        unit = FixedPointExp()
        down = unit(x, "down")
        up = unit(x, "up")
        true = math.exp(x)
        assert down <= true * (1 + 1e-12)
        assert up >= true * (1 - 1e-12)

    def test_relative_error_bounded(self):
        unit = FixedPointExp(lut_entries=256)
        step = 2.0 ** (1.0 / 256) - 1.0
        for x in np.linspace(-20, 20, 101):
            down = unit(x, "down")
            true = math.exp(x)
            assert down >= true * (1 - 2 * step) - 1e-12

    def test_monotone(self):
        unit = FixedPointExp()
        xs = np.linspace(-10, 10, 201)
        vals = [unit(float(x), "down") for x in xs]
        assert all(a <= b + 1e-15 for a, b in zip(vals, vals[1:]))

    def test_up_never_zero(self):
        unit = FixedPointExp()
        assert unit(-1000.0, "up") > 0.0

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            FixedPointExp()(float("nan"))

    def test_bad_rounding(self):
        with pytest.raises(ValueError):
            FixedPointExp()(1.0, "nearest")


class TestFixedPointLn:
    @given(y=st.floats(1e-20, 1e20))
    @settings(max_examples=200)
    def test_directional_bounds(self, y):
        unit = FixedPointLn()
        assert unit(y, "down") <= math.log(y) + 1e-12
        assert unit(y, "up") >= math.log(y) - 1e-12

    def test_positive_input_required(self):
        unit = FixedPointLn()
        with pytest.raises(ValueError):
            unit(0.0)
        with pytest.raises(ValueError):
            unit(-1.0)

    def test_monotone(self):
        unit = FixedPointLn()
        ys = np.geomspace(1e-6, 1e6, 121)
        vals = [unit(float(y), "down") for y in ys]
        assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))


class TestConservativeUnit:
    def test_certificate_direction(self):
        """Up-rounded exp(s_max) over the exp_lower sum >= true ratio:
        hardware p'' still dominates the true probability."""
        unit = ConservativeExpUnit()
        exp_up = FixedPointExp(lut_entries=unit.lut_entries)
        rng = np.random.default_rng(0)
        for _ in range(50):
            scores = rng.normal(size=10) * 3
            s_max = scores.max() + 0.5
            true_ratio = math.exp(s_max) / sum(math.exp(s) for s in scores)
            hw_den = sum(unit.exp_lower(s) for s in scores)
            hw_ratio = exp_up(s_max, "up") / hw_den
            assert hw_ratio >= true_ratio * (1 - 1e-12)

    def test_log_predicate_direction(self):
        """s_max - ln_lower(D_hw) >= s_max - ln(D): the hardware predicate
        is conservative (prunes a subset of what exact math would)."""
        unit = ConservativeExpUnit()
        rng = np.random.default_rng(1)
        for _ in range(50):
            scores = rng.normal(size=8) * 2
            d_true = sum(math.exp(s) for s in scores)
            d_hw = sum(unit.exp_lower(s) for s in scores)
            assert unit.ln_lower(d_hw) <= math.log(d_true) + 1e-12
