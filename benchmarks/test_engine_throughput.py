"""Bench: serving-engine decode drain at batch 1 / 8 / 32.

Times (via pytest-benchmark, no floor asserted) the fused
continuous-batching hot path draining ``batch`` sequences, and checks the
engine's per-step phase breakdown (pack / score / prune / unpack) from
the arena fast path, with score further split into the lazy kernel's
sub-phases — the one full-width chunk-0 pass vs the alive-set refinement
rounds.  Throughput claims come from ``benchmarks/e2e/run.py`` only.
"""

import numpy as np
import pytest

from repro.core import TokenPickerConfig
from repro.serving import ServingEngine, synthetic_request

N_HEADS, HEAD_DIM = 2, 16
PROMPT_TOKENS, MAX_NEW = 24, 3
CFG = TokenPickerConfig(threshold=2e-3)
PHASES = ("pack", "score", "prune", "unpack")
SCORE_SUBPHASES = ("score_chunk0", "score_refine")


def _fresh_engine(batch: int, seed: int = 0) -> ServingEngine:
    engine = ServingEngine(
        CFG,
        max_batch_size=batch,
        capacity_tokens=batch * (PROMPT_TOKENS + MAX_NEW + 64),
        seed=seed,
    )
    rng = np.random.default_rng(seed)
    for _ in range(batch):
        prompt = PROMPT_TOKENS + int(rng.integers(-8, 9))
        engine.submit(
            synthetic_request(rng, N_HEADS, prompt, HEAD_DIM, MAX_NEW)
        )
    return engine


def _drain(batch: int) -> int:
    engine = _fresh_engine(batch)
    engine.run_until_drained()
    return sum(c.stats.generated_tokens for c in engine.completed)


@pytest.mark.parametrize("batch", (1, 8, 32))
def test_engine_drain_throughput(benchmark, batch):
    """The fused engine serving `batch` sequences generates every
    requested token."""
    tokens = benchmark.pedantic(_drain, args=(batch,), rounds=1, iterations=1)
    assert tokens == batch * MAX_NEW


def test_step_reports_phase_breakdown():
    """Every busy step reports wall-clock for all four hot-path phases,
    and the lazy kernel splits score into chunk-0 vs refinement."""
    engine = _fresh_engine(4)
    busy = [r for r in engine.run_until_drained() if r.batch_size]
    assert busy
    for report in busy:
        assert set(PHASES + SCORE_SUBPHASES) <= set(report.phase_seconds)
        assert all(v >= 0.0 for v in report.phase_seconds.values())
        subtotal = sum(report.phase_seconds[p] for p in SCORE_SUBPHASES)
        assert subtotal <= report.phase_seconds["score"] + 1e-9
