"""Bench: prefill head-of-line latency on the long-prompt-burst trace.

Reproduces the stall chunked prefill fixes: decode-heavy short requests
settle into steady decoding, then requests with very long prompts land
mid-batch.  Under monolithic prefill each long prompt is ingested inside
one engine step, and — now that prompt ingest is priced into the modelled
step latency (:meth:`repro.hw.serving.ServingSimulator.price`)
— every co-resident decode's inter-token latency absorbs that whole
transfer at once.  A finite per-step prefill budget spreads the ingest
across steps, bounding the spike.

The measurements are *modelled* (cycle-level, deterministic): per-token
inter-token latency and TTFT are derived from the cumulative modelled
step times, so the recorded comparison tracks the code and the DRAM
model, not wall-clock noise.  ``python benchmarks/test_prefill_latency.py``
prints the record; ``benchmarks/test_engine_throughput.py`` embeds it as
the ``long_prompt_burst`` section of ``BENCH_engine.json``
(schema-checked by :mod:`repro.eval.bench_schema`).

Setting ``TOKENPICKER_BENCH_TINY=1`` shrinks every dimension so CI's
non-blocking benchmark-smoke job exercises the full path in seconds.
"""

import json
import os
from typing import Dict, List, Optional, Tuple

import numpy as np
import pytest

from repro.core import TokenPickerConfig
from repro.hw.serving import ServingSimulator
from repro.model.config import get_model_config
from repro.serving import ServingEngine
from repro.workloads.traces import long_prompt_burst_trace

_TINY = os.environ.get("TOKENPICKER_BENCH_TINY") == "1"
N_HEADS, HEAD_DIM = (2, 16) if _TINY else (4, 64)
N_SHORT, SHORT_PROMPT, SHORT_NEW = (4, 12, 8) if _TINY else (10, 32, 24)
# the stall regime: a prompt whose full-model KV ingest (~100 kB/token on
# gpt2-medium) rivals the step's shared weight stream — 4k tokens is the
# paper's context scale and ~2/3 of the 605 MB weight transfer
N_LONG, LONG_PROMPT, LONG_NEW = (1, 96, 3) if _TINY else (2, 4096, 4)
LONG_ARRIVAL, LONG_GAP = (3, 4) if _TINY else (4, 8)
PREFILL_BUDGET = 24 if _TINY else 256
CFG = TokenPickerConfig(threshold=2e-3)
CLOCK_HZ = 0.5e9  # the accelerator benches' 500 MHz operating point


def _trace(seed: int = 0):
    return long_prompt_burst_trace(
        np.random.default_rng(seed),
        n_heads=N_HEADS,
        head_dim=HEAD_DIM,
        n_short=N_SHORT,
        short_prompt_tokens=SHORT_PROMPT,
        short_max_new_tokens=SHORT_NEW,
        n_long=N_LONG,
        long_prompt_tokens=LONG_PROMPT,
        long_max_new_tokens=LONG_NEW,
        long_arrival_step=LONG_ARRIVAL,
        long_gap_steps=LONG_GAP,
    )


def _run_trace(prefill_budget: Optional[int], seed: int = 0):
    """Drive the trace to drain; returns (engine, reports, submit_step)."""
    capacity = (
        N_SHORT * (SHORT_PROMPT + SHORT_NEW + 24)
        + N_LONG * (LONG_PROMPT + LONG_NEW + 24)
    )
    engine = ServingEngine(
        CFG,
        max_batch_size=N_SHORT + N_LONG,
        capacity_tokens=capacity,
        seed=seed,
        prefill_budget_tokens=prefill_budget,
    )
    pending = sorted(_trace(seed), key=lambda item: item[0])
    submit_step: Dict[int, int] = {}
    reports = []
    i = 0
    while i < len(pending) or engine.n_active or engine.n_pending:
        while i < len(pending) and pending[i][0] <= engine.step_index:
            rid = engine.submit(pending[i][1])
            submit_step[rid] = engine.step_index
            i += 1
        reports.append(engine.step())
        assert len(reports) < 10_000, "trace failed to drain"
    return engine, reports, submit_step


def _modelled_latencies(
    reports, submit_step, sim: ServingSimulator
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(inter-token latencies, TTFTs, step seconds), modelled, all requests.

    Each step's modelled duration prices the measured decode traffic
    *and* the prompt chunks ingested that step; a request's token at
    step ``s`` completes at the cumulative time through ``s``.
    """
    seconds = []
    token_steps: Dict[int, List[int]] = {}
    for idx, report in enumerate(reports):
        if report.per_sequence or report.prefill_bits:
            result = sim.price(report, engine_heads=N_HEADS)
            seconds.append(result.total_cycles / CLOCK_HZ)
        else:
            seconds.append(0.0)
        for view in report.per_sequence.values():
            token_steps.setdefault(view.request_id, []).append(idx)
    # end[s] = modelled time at which step s completes
    end = np.cumsum(seconds)
    start = np.concatenate([[0.0], end[:-1]])
    inter_token: List[float] = []
    ttfts: List[float] = []
    for rid, steps in token_steps.items():
        ttfts.append(end[steps[0]] - start[submit_step[rid]])
        inter_token.extend(np.diff(end[steps]))
    return np.asarray(inter_token), np.asarray(ttfts), np.asarray(seconds)


def _latency_point(prefill_budget: Optional[int]) -> dict:
    engine, reports, submit_step = _run_trace(prefill_budget)
    sim = ServingSimulator(
        get_model_config("gpt2-medium"), context_length=LONG_PROMPT, config=CFG
    )
    inter_token, ttfts, seconds = _modelled_latencies(
        reports, submit_step, sim
    )
    return {
        "p95_inter_token_ms": round(
            1e3 * float(np.percentile(inter_token, 95)), 4
        ),
        "max_step_ms": round(1e3 * float(seconds.max()), 4),
        "p95_ttft_ms": round(1e3 * float(np.percentile(ttfts, 95)), 4),
        "mean_ttft_ms": round(1e3 * float(ttfts.mean()), 4),
        "engine_steps": len(reports),
        "prefill_chunks": engine.prefill_chunks_total,
    }


def measure_long_prompt_burst() -> dict:
    """The ``long_prompt_burst`` section of ``BENCH_engine.json``."""
    unbounded = _latency_point(None)
    budgeted = _latency_point(PREFILL_BUDGET)
    return {
        "prefill_budget_tokens": PREFILL_BUDGET,
        "n_short": N_SHORT,
        "n_long": N_LONG,
        "long_prompt_tokens": LONG_PROMPT,
        "unbounded": unbounded,
        "budgeted": budgeted,
        "p95_inter_token_improvement": round(
            unbounded["p95_inter_token_ms"] / budgeted["p95_inter_token_ms"],
            3,
        ),
    }


# --------------------------------------------------------------------- tests
def _kept_by_request(reports) -> Dict[int, list]:
    out: Dict[int, list] = {}
    for report in reports:
        for sid, view in report.per_sequence.items():
            out.setdefault(view.request_id, []).append(
                report.results[sid].kept
            )
    return out


def test_budgeted_prefill_bounds_inter_token_spike():
    """Acceptance: a finite prefill budget bounds the head-of-line stall
    a monolithic prefill inflicts on co-resident decodes.

    The slowest modelled step strictly improves at any workload size
    (the monolithic ingest step *is* the spike); p95 inter-token latency
    improves at the full size, where the long prompt's ingest traffic is
    material next to the shared weight stream — at tiny smoke sizes the
    spike is too small to move a percentile, so the p95 check is gated.
    """
    record = measure_long_prompt_burst()
    assert record["budgeted"]["prefill_chunks"] > record["unbounded"][
        "prefill_chunks"
    ], "finite budget never chunked a prompt; the trace is too easy"
    assert (
        record["budgeted"]["max_step_ms"]
        < record["unbounded"]["max_step_ms"]
    ), record
    if not _TINY:
        assert (
            record["budgeted"]["p95_inter_token_ms"]
            < record["unbounded"]["p95_inter_token_ms"]
        ), record
        assert record["p95_inter_token_improvement"] > 1.0


def test_chunked_prefill_outputs_bit_identical_on_trace():
    """The budget changes *when* prompt bytes land, never *what* the
    kernel computes: kept decisions match token for token."""
    _, mono_reports, _ = _run_trace(None)
    _, chunk_reports, _ = _run_trace(PREFILL_BUDGET)
    mono, chunked = _kept_by_request(mono_reports), _kept_by_request(
        chunk_reports
    )
    assert set(mono) == set(chunked)
    for rid in mono:
        assert len(mono[rid]) == len(chunked[rid])
        for a, b in zip(mono[rid], chunked[rid]):
            assert np.array_equal(a, b)


def test_prefill_traffic_priced_into_step():
    """The step that ingests a prompt chunk carries prefill cycles; pure
    decode steps carry none."""
    _, reports, _ = _run_trace(PREFILL_BUDGET)
    sim = ServingSimulator(
        get_model_config("gpt2-medium"), context_length=LONG_PROMPT, config=CFG
    )
    ingest = [r for r in reports if r.prefill_bits]
    decode_only = [r for r in reports if r.per_sequence and not r.prefill_bits]
    assert ingest and decode_only
    priced = sim.price(ingest[0], engine_heads=N_HEADS)
    assert priced.prefill_cycles > 0
    assert priced.total_cycles == (
        priced.weight_cycles + priced.attention_cycles + priced.prefill_cycles
    )
    assert (
        sim.price(decode_only[0], engine_heads=N_HEADS)
        .prefill_cycles
        == 0
    )


def test_record_satisfies_bench_schema():
    from repro.eval.bench_schema import _validate_long_burst

    _validate_long_burst(measure_long_prompt_burst(), "long_prompt_burst")


@pytest.mark.skipif(_TINY, reason="trace too small for a stable margin")
def test_recorded_improvement_is_substantial():
    """Deterministic modelled margin at the full workload size (the
    recorded value is ~1.35x: the 4k prompt's ingest is ~2/3 of the step's
    weight stream, and the budget removes essentially all of it)."""
    record = measure_long_prompt_burst()
    assert record["p95_inter_token_improvement"] > 1.2, record


def main() -> None:
    print(json.dumps(measure_long_prompt_burst(), indent=2))


if __name__ == "__main__":
    main()
