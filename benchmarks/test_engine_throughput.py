"""Bench: serving-engine decode throughput at batch 1 / 8 / 32.

Measures the fused continuous-batching hot path the way a deployment
would: tokens generated per second of wall-clock engine stepping, plus
the fused-step speedup over looping per-sequence sessions across the same
sequences (same streams, bit-identical pruning decisions), plus the
engine's per-step phase breakdown (pack / score / prune / unpack) from
the arena fast path.  The score phase is further split into the lazy
kernel's sub-phases — the one full-width chunk-0 pass vs the alive-set
refinement rounds — and each point records the per-round alive-fraction
profile (``alive_fraction_per_round``), i.e. what fraction of
(head, token) pairs was still undecided entering each chunk round.
``python benchmarks/test_engine_throughput.py`` records the same
measurements to ``BENCH_engine.json`` so later PRs have a perf
trajectory to diff against.

Setting ``TOKENPICKER_BENCH_TINY=1`` shrinks every dimension so CI's
non-blocking benchmark-smoke job can surface kernel-shape regressions in
seconds without timing anything meaningful.
"""

import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core import TokenPickerConfig
from repro.core.session import TokenPickerSession
from repro.serving import (
    GenerationRequest,
    ServingEngine,
    replayable_step_source,
)

_TINY = os.environ.get("TOKENPICKER_BENCH_TINY") == "1"
BATCH_SIZES = (1, 2) if _TINY else (1, 8, 32)
N_HEADS, HEAD_DIM = (2, 16) if _TINY else (4, 64)
PROMPT_TOKENS, MAX_NEW = (24, 3) if _TINY else (256, 16)
CFG = TokenPickerConfig(threshold=2e-3)
PHASES = ("pack", "score", "prune", "unpack")
SCORE_SUBPHASES = ("score_chunk0", "score_refine")


def _replayable_requests(batch: int, seed: int = 0):
    rng = np.random.default_rng(seed)
    pairs = []
    for _ in range(batch):
        prompt = PROMPT_TOKENS + int(rng.integers(-32, 33))
        keys = rng.normal(size=(N_HEADS, prompt, HEAD_DIM))
        values = rng.normal(size=(N_HEADS, prompt, HEAD_DIM))
        source, stream = replayable_step_source(rng, N_HEADS, HEAD_DIM, MAX_NEW)
        request = GenerationRequest(
            prompt_keys=keys,
            prompt_values=values,
            max_new_tokens=MAX_NEW,
            step_source=source,
        )
        pairs.append((request, stream))
    return pairs


def _fresh_engine(batch: int, seed: int = 0) -> ServingEngine:
    engine = ServingEngine(
        CFG,
        max_batch_size=batch,
        capacity_tokens=batch * (PROMPT_TOKENS + MAX_NEW + 64),
        seed=seed,
    )
    for request, _ in _replayable_requests(batch, seed):
        engine.submit(request)
    return engine


def _drain_timed(engine: ServingEngine) -> float:
    start = time.perf_counter()
    engine.run_until_drained()
    return time.perf_counter() - start


def _loop_sessions_timed(pairs) -> float:
    start = time.perf_counter()
    for request, stream in pairs:
        session = TokenPickerSession(CFG)
        session.observe_prompt(request.prompt_keys, request.prompt_values)
        keys, values = request.prompt_keys, request.prompt_values
        for q, k, v in stream:
            keys = np.concatenate([keys, k[:, None, :]], axis=1)
            values = np.concatenate([values, v[:, None, :]], axis=1)
            session.step(q, keys, values)
    return time.perf_counter() - start


def _phase_breakdown(batch: int, seed: int = 0):
    """Per-step mean ms by phase (with the lazy score sub-phases) and
    the per-round alive-fraction profile, from one untimed drain."""
    engine = _fresh_engine(batch, seed)
    totals = {phase: 0.0 for phase in PHASES + SCORE_SUBPHASES}
    busy = 0
    for report in engine.run_until_drained():
        if report.batch_size:
            busy += 1
            for phase in totals:
                totals[phase] += report.phase_seconds.get(phase, 0.0)
    phases = {
        phase: round(1e3 * seconds / max(busy, 1), 4)
        for phase, seconds in totals.items()
    }
    rounds = engine.round_alive_totals
    if rounds is not None and rounds[0] > 0:
        alive_fractions = [
            round(float(count) / float(rounds[0]), 4) for count in rounds
        ]
        alive_fractions[0] = 1.0
    else:
        alive_fractions = []
    return phases, alive_fractions


@pytest.mark.parametrize("batch", BATCH_SIZES)
def test_engine_drain_throughput(benchmark, batch):
    """Tokens/sec of the fused engine serving `batch` sequences."""
    result = benchmark.pedantic(
        lambda: _drain_timed(_fresh_engine(batch)), rounds=3, iterations=1
    )
    tokens = batch * MAX_NEW
    assert tokens / result > 0


def test_step_reports_phase_breakdown():
    """Every busy step reports wall-clock for all four hot-path phases,
    and the lazy kernel splits score into chunk-0 vs refinement."""
    engine = _fresh_engine(min(BATCH_SIZES[-1], 4))
    busy = [r for r in engine.run_until_drained() if r.batch_size]
    assert busy
    for report in busy:
        for phase in PHASES + SCORE_SUBPHASES:
            assert report.phase_seconds.get(phase, 0.0) >= 0.0
        assert set(PHASES) <= set(report.phase_seconds)
        assert set(SCORE_SUBPHASES) <= set(report.phase_seconds)
        subtotal = sum(report.phase_seconds[p] for p in SCORE_SUBPHASES)
        assert subtotal <= report.phase_seconds["score"] + 1e-9


@pytest.mark.skipif(
    _TINY, reason="timing assertions are meaningless at smoke sizes"
)
def test_batch32_throughput_floor():
    """Regression guard: batch-32 fused decode must clear a committed
    absolute floor.  The floor is set far below the recorded trajectory
    (see ``BENCH_engine.json``) so shared-runner noise cannot trip it,
    but a lazy-kernel regression that doubles score cost will.
    """
    floor_tokens_per_sec = 1200.0
    batch = 32
    best = min(_drain_timed(_fresh_engine(batch, seed=s)) for s in range(3))
    rate = batch * MAX_NEW / best
    assert rate >= floor_tokens_per_sec, (
        f"batch-32 fused decode at {rate:.0f} tok/s fell below the "
        f"committed floor of {floor_tokens_per_sec:.0f} tok/s"
    )


@pytest.mark.skipif(
    _TINY, reason="timing assertions are meaningless at smoke sizes"
)
def test_fused_step_beats_looped_sessions():
    """Acceptance: one fused step across 32 sequences is faster than 32
    per-sequence session steps — with identical pruning decisions.

    Min-of-3 on both sides; the 1.1 slack absorbs shared-runner
    scheduling noise (the true margin is ~1.4-1.9x, see
    ``BENCH_engine.json``), so only a real regression trips this.
    """
    batch = 32
    fused = min(_drain_timed(_fresh_engine(batch, seed=s)) for s in range(3))
    looped = min(
        _loop_sessions_timed(_replayable_requests(batch, seed=s))
        for s in range(3)
    )
    assert fused < looped * 1.1, (
        f"fused {fused:.3f}s not faster than looped {looped:.3f}s"
    )


def measure(repeats: int = 3) -> dict:
    """Record tokens/sec, fused-vs-looped speedup and KV reduction.

    Best-of-``repeats`` wall-clock on both sides, so the recorded
    trajectory tracks the code, not scheduler noise.
    """
    points = []
    for batch in BATCH_SIZES:
        engine = _fresh_engine(batch)
        fused_s = _drain_timed(engine)
        for _ in range(repeats - 1):
            fused_s = min(fused_s, _drain_timed(_fresh_engine(batch)))
        looped_s = min(
            _loop_sessions_timed(_replayable_requests(batch))
            for _ in range(repeats)
        )
        tokens = batch * MAX_NEW
        phases, alive_fractions = _phase_breakdown(batch)
        points.append(
            {
                "batch_size": batch,
                "tokens_generated": tokens,
                "fused_tokens_per_sec": round(tokens / fused_s, 1),
                "looped_tokens_per_sec": round(tokens / looped_s, 1),
                "fused_speedup": round(looped_s / fused_s, 3),
                "kv_bit_reduction": round(engine.counter.total_reduction, 3),
                "keep_fraction": round(engine.counter.keep_fraction, 4),
                "phase_ms_per_step": phases,
                "alive_fraction_per_round": alive_fractions,
            }
        )
    # the chunked-prefill latency comparison and the tracing-cost rungs
    # live in their own modules; their records ride along as the
    # artifact's long_prompt_burst / trace_overhead / trace_streaming
    # sections (all required by the bench schema for BENCH_engine.json)
    from test_prefill_latency import measure_long_prompt_burst
    from test_trace_overhead import (
        measure_trace_overhead,
        measure_trace_streaming,
    )

    return {
        "config": {
            "threshold": CFG.threshold,
            "n_heads": N_HEADS,
            "head_dim": HEAD_DIM,
            "prompt_tokens": PROMPT_TOKENS,
            "max_new_tokens": MAX_NEW,
        },
        "points": points,
        "long_prompt_burst": measure_long_prompt_burst(),
        "trace_overhead": measure_trace_overhead(),
        "trace_streaming": measure_trace_streaming(),
    }


def main() -> None:
    out = Path(__file__).resolve().parent.parent / "BENCH_engine.json"
    record = measure()
    out.write_text(json.dumps(record, indent=2) + "\n")
    print(json.dumps(record, indent=2))


if __name__ == "__main__":
    main()
