"""Bench: prefill head-of-line latency when long prompts land mid-batch.

Short decode-heavy requests settle into steady decoding, then a request
with a long prompt arrives.  Under monolithic prefill the long prompt is
ingested inside one engine step, and — since prompt ingest is priced into
the modelled step latency (:meth:`repro.hw.serving.ServingSimulator.price`)
— every co-resident decode absorbs that whole transfer at once.  A finite
per-step prefill budget spreads the ingest across steps, bounding the
spike, and never changes what the kernel computes.

Everything is *modelled* (cycle-level, deterministic), so the checks
track the code and the DRAM model, not wall-clock noise.
"""

from typing import Dict, Optional

import numpy as np

from repro.core import TokenPickerConfig
from repro.hw.serving import ServingSimulator
from repro.model.config import get_model_config
from repro.serving import ServingEngine, synthetic_request

N_HEADS, HEAD_DIM = 2, 16
N_SHORT, SHORT_PROMPT, SHORT_NEW = 4, 12, 8
LONG_PROMPT, LONG_NEW, LONG_ARRIVAL = 96, 3, 3
PREFILL_BUDGET = 24
CFG = TokenPickerConfig(threshold=2e-3)


def _run_trace(prefill_budget: Optional[int], seed: int = 0):
    """Drive the short-then-long trace to drain; returns (engine, reports)."""
    rng = np.random.default_rng(seed)
    trace = [
        (0, synthetic_request(rng, N_HEADS, SHORT_PROMPT, HEAD_DIM, SHORT_NEW))
        for _ in range(N_SHORT)
    ]
    trace.append(
        (
            LONG_ARRIVAL,
            synthetic_request(rng, N_HEADS, LONG_PROMPT, HEAD_DIM, LONG_NEW),
        )
    )
    engine = ServingEngine(
        CFG,
        max_batch_size=N_SHORT + 1,
        capacity_tokens=(
            N_SHORT * (SHORT_PROMPT + SHORT_NEW + 24)
            + LONG_PROMPT + LONG_NEW + 24
        ),
        seed=seed,
        prefill_budget_tokens=prefill_budget,
    )
    reports = []
    i = 0
    while i < len(trace) or engine.n_active or engine.n_pending:
        while i < len(trace) and trace[i][0] <= engine.step_index:
            engine.submit(trace[i][1])
            i += 1
        reports.append(engine.step())
        assert len(reports) < 1_000, "trace failed to drain"
    return engine, reports


def _simulator() -> ServingSimulator:
    return ServingSimulator(
        get_model_config("gpt2-medium"), context_length=LONG_PROMPT, config=CFG
    )


def _kept_by_request(reports) -> Dict[int, list]:
    out: Dict[int, list] = {}
    for report in reports:
        for sid, view in report.per_sequence.items():
            out.setdefault(view.request_id, []).append(
                report.results[sid].kept
            )
    return out


def test_budgeted_prefill_bounds_inter_token_spike():
    """A finite prefill budget chunks the long prompt and lowers the
    slowest modelled step — the monolithic ingest step *is* the spike."""
    sim = _simulator()

    def run(budget):
        engine, reports = _run_trace(budget)
        peak = max(
            sim.price(r, engine_heads=N_HEADS).total_cycles
            for r in reports
            if r.per_sequence or r.prefill_bits
        )
        return peak, engine.prefill_chunks_total

    mono_peak, mono_chunks = run(None)
    peak, chunks = run(PREFILL_BUDGET)
    assert chunks > mono_chunks, "finite budget never chunked a prompt"
    assert peak < mono_peak


def test_chunked_prefill_outputs_bit_identical_on_trace():
    """The budget changes *when* prompt bytes land, never *what* the
    kernel computes: kept decisions match token for token."""
    _, mono_reports = _run_trace(None)
    _, chunk_reports = _run_trace(PREFILL_BUDGET)
    mono = _kept_by_request(mono_reports)
    chunked = _kept_by_request(chunk_reports)
    assert set(mono) == set(chunked)
    for rid in mono:
        assert len(mono[rid]) == len(chunked[rid])
        for a, b in zip(mono[rid], chunked[rid]):
            assert np.array_equal(a, b)


def test_prefill_traffic_priced_into_step():
    """The step that ingests a prompt chunk carries prefill cycles; pure
    decode steps carry none."""
    _, reports = _run_trace(PREFILL_BUDGET)
    sim = _simulator()
    ingest = [r for r in reports if r.prefill_bits]
    decode_only = [r for r in reports if r.per_sequence and not r.prefill_bits]
    assert ingest and decode_only
    priced = sim.price(ingest[0], engine_heads=N_HEADS)
    assert priced.prefill_cycles > 0
    assert priced.total_cycles == (
        priced.weight_cycles + priced.attention_cycles + priced.prefill_cycles
    )
    assert sim.price(decode_only[0], engine_heads=N_HEADS).prefill_cycles == 0
