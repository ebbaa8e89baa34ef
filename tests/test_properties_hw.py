"""Property-based tests for the hardware-side invariants."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import TokenPickerConfig
from repro.core.ooo import OoOConfig, OutOfOrderEngine
from repro.hw.dram import DRAMRequest, HBM2Model
from repro.hw.fixedpoint import ConservativeExpUnit
from repro.hw.pe_lane import DAGUnit, PartialExpCalculator


class TestDRAMProperties:
    @given(
        sizes=st.lists(st.integers(1, 4096), min_size=1, max_size=40),
        channels=st.integers(1, 8),
        latency=st.integers(0, 50),
    )
    @settings(max_examples=60, deadline=None)
    def test_conservation_and_ordering(self, sizes, channels, latency):
        """Bytes are conserved; per-channel completions are FIFO; every
        request completes no earlier than issue + latency."""
        m = HBM2Model(n_channels=channels, latency_cycles=latency)
        last_ready = {}
        for i, n in enumerate(sizes):
            ch = i % channels
            ready = m.submit(DRAMRequest(channel=ch, n_bytes=n, issue_cycle=i))
            assert ready >= i + latency
            if ch in last_ready:
                assert ready >= last_ready[ch]
            last_ready[ch] = ready
        assert m.total_bytes == sum(sizes)
        assert m.requests_served == len(sizes)


class TestDAGEquivalence:
    @given(terms=st.lists(st.floats(-30, 30), min_size=1, max_size=40))
    @settings(max_examples=60)
    def test_dag_matches_logsumexp(self, terms):
        """Aggregating exp-deltas reproduces logsumexp exactly (float mode)."""
        dag = DAGUnit()
        pec = PartialExpCalculator()
        for t in terms:
            _, delta = pec.delta(t, 0.0)
            dag.aggregate(delta)
        assert np.isclose(dag.ln_denominator, np.logaddexp.reduce(np.array(terms)),
                          atol=1e-9)

    @given(terms=st.lists(st.floats(-20, 20), min_size=1, max_size=25))
    @settings(max_examples=40)
    def test_fixed_point_dag_lower_bounds_float(self, terms):
        unit = ConservativeExpUnit()
        dag_f, dag_x = DAGUnit(), DAGUnit(unit)
        for t in terms:
            dag_f.aggregate(math.exp(t))
            dag_x.aggregate(unit.exp_lower(t))
        assert dag_x.ln_denominator <= dag_f.ln_denominator + 1e-12


class TestOoOProperties:
    @given(
        seed=st.integers(0, 2000),
        latency=st.integers(1, 30),
        entries=st.integers(1, 32),
        t=st.integers(2, 32),
    )
    @settings(max_examples=30, deadline=None)
    def test_engine_invariants(self, seed, latency, entries, t):
        """For any latency/scoreboard size: terminates, respects capacity,
        accounts requests exactly, and keeps at least the guard token."""
        rng = np.random.default_rng(seed)
        keys = rng.normal(size=(t, 8))
        q = keys[rng.integers(t)] + 0.3 * rng.normal(size=8)
        engine = OutOfOrderEngine(
            TokenPickerConfig(threshold=1e-2),
            OoOConfig(dram_latency=latency, scoreboard_entries=entries),
        )
        r = engine.run(q, keys)
        assert r.max_scoreboard_occupancy <= entries
        assert r.requests_issued == int(r.chunks_fetched.sum())
        assert r.kept[-1]  # prompt_guard default 1
        assert r.busy_cycles <= r.cycles
