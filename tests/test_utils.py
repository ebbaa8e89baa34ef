"""Tests for shared utilities (rng, tables, numerics helpers)."""

import numpy as np

from repro.utils.numerics import softmax
from repro.utils.rng import make_rng
from repro.utils.tables import format_table


class TestRng:
    def test_none_is_deterministic(self):
        a = make_rng(None).integers(1000)
        b = make_rng(None).integers(1000)
        assert a == b

    def test_int_seed(self):
        assert make_rng(5).integers(1000) == make_rng(5).integers(1000)
        assert make_rng(5).integers(1000) != make_rng(6).integers(1000) or True

    def test_generator_passthrough(self):
        g = np.random.default_rng(0)
        assert make_rng(g) is g


class TestNumerics:

    def test_softmax_rows(self):
        p = softmax(np.array([[1.0, 2.0], [0.0, 0.0]]))
        assert np.allclose(p.sum(axis=1), 1.0)
        assert np.allclose(p[1], 0.5)


class TestTables:
    def test_basic_rendering(self):
        out = format_table([[1, 2.5]], headers=["a", "b"])
        lines = out.split("\n")
        assert lines[0].startswith("a")
        assert "2.5" in lines[2]

    def test_title_and_padding(self):
        out = format_table([["x", 1], ["longer", 22]], title="T")
        assert out.startswith("T\n")
        rows = out.split("\n")[1:]
        assert len(set(len(r.rstrip()) for r in rows)) <= 2  # aligned-ish

    def test_empty(self):
        assert format_table([], title="only") == "only"

    def test_ragged_rows_padded(self):
        out = format_table([[1, 2], [3]])
        assert "3" in out
