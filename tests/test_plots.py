"""Tests for the terminal plotting helpers."""

import numpy as np
import pytest

from repro.eval.plots import heatmap, histogram


class TestHistogram:
    def test_shape(self):
        counts = [1, 5, 2]
        edges = [0, 1, 2, 3]
        out = histogram(counts, edges, height=4)
        lines = out.split("\n")
        assert len(lines) == 6  # 4 rows + separator + range line
        assert lines[0][1] == "#"  # tallest bin filled at the top row

    def test_empty(self):
        assert histogram([], [0], title="t") == "t"

    def test_validation(self):
        with pytest.raises(ValueError):
            histogram([1, 2], [0, 1])
        with pytest.raises(ValueError):
            histogram([1], [0, 1], height=0)


class TestHeatmap:
    def test_shading(self):
        m = np.array([[0.0, 1.0], [0.5, 0.25]])
        out = heatmap(m, row_labels=["r0", "r1"])
        lines = out.split("\n")
        assert lines[0].startswith("r0")
        assert "@" in lines[0]  # max value gets the densest shade
        assert lines[0][lines[0].index("[") + 1] == " "  # zero is blank

    def test_validation(self):
        with pytest.raises(ValueError):
            heatmap(np.zeros(3))
        with pytest.raises(ValueError):
            heatmap(np.zeros((2, 2)), row_labels=["only-one"])
