"""Continuous-batching serving: N sequences, one fused decode step.

Demonstrates the `repro.serving` subsystem end to end:

1. requests with ragged prompt lengths stream into the engine over time;
2. the scheduler admits them whenever a batch slot and KV-pool headroom
   exist, and retires them as they finish — the batch re-fills
   continuously instead of draining in lockstep;
3. every step runs ONE fused ragged-batch Token-Picker kernel across all
   active sequences, with pruning decisions bit-identical to stepping
   each sequence alone (verified below against per-sequence sessions);
4. the measured per-sequence traffic feeds the hardware model, closing
   the paper's Fig. 2 -> Fig. 10 loop with real ragged traffic;
5. chunked prefill (``prefill_budget_tokens``, the CLI's
   ``--prefill-budget``) bounds each step's token work — decode first,
   leftover budget to prompt chunks — so a long prompt no longer stalls
   co-resident decodes for one monolithic ingest, while outputs stay
   bit-identical (scales freeze from the full prompt before chunk one).

Run:  python examples/continuous_batching.py
"""

import time

import numpy as np

from repro.core import TokenPickerConfig
from repro.core.session import TokenPickerSession
from repro.eval.batching import measured_batch_point
from repro.hw.serving import ServingSimulator, tokens_per_second
from repro.model.config import get_model_config
from repro.serving import (
    GenerationRequest,
    ServingEngine,
    replayable_step_source,
)

N_HEADS, HEAD_DIM = 4, 64


def make_request(rng: np.random.Generator, prompt_tokens: int, max_new: int):
    """A request with a replayable decode stream (so sessions can replay it)."""
    keys = rng.normal(size=(N_HEADS, prompt_tokens, HEAD_DIM))
    values = rng.normal(size=(N_HEADS, prompt_tokens, HEAD_DIM))
    source, stream = replayable_step_source(rng, N_HEADS, HEAD_DIM, max_new)
    request = GenerationRequest(
        prompt_keys=keys,
        prompt_values=values,
        max_new_tokens=max_new,
        step_source=source,
    )
    return request, stream


def replay_with_sessions(config, requests_and_streams):
    """Reference: one per-sequence session per request, stepped in a loop."""
    sessions = []
    for request, stream in requests_and_streams:
        session = TokenPickerSession(config)
        session.observe_prompt(request.prompt_keys, request.prompt_values)
        keys, values = request.prompt_keys, request.prompt_values
        for q, k, v in stream:
            keys = np.concatenate([keys, k[:, None, :]], axis=1)
            values = np.concatenate([values, v[:, None, :]], axis=1)
            session.step(q, keys, values)
        sessions.append(session)
    return sessions


def main() -> None:
    rng = np.random.default_rng(0)
    config = TokenPickerConfig(threshold=2e-3)
    engine = ServingEngine(
        config, max_batch_size=8, capacity_tokens=4096, seed=0
    )

    print("=== continuous admission / retirement ===")
    pairs = []
    for i in range(16):
        prompt = int(rng.integers(64, 160))
        pair = make_request(rng, prompt, max_new=int(rng.integers(4, 10)))
        pairs.append(pair)
        engine.submit(pair[0])
    reports = engine.run_until_drained()
    for report in reports:
        marks = []
        if report.admitted:
            marks.append(f"+{len(report.admitted)} admitted")
        if report.retired:
            marks.append(f"-{len(report.retired)} retired")
        print(
            f"step {report.step_index:2d}: batch={report.batch_size:2d} "
            f"pack-util={report.ragged_utilization:.2f} "
            + " ".join(marks)
        )
    print(
        f"\n{len(engine.completed)} requests served in {len(reports)} steps, "
        f"peak concurrency {engine.peak_concurrency}, "
        f"KV-bit reduction {engine.counter.total_reduction:.2f}x"
    )

    print("\n=== arena fast path: per-step phase breakdown ===")
    busy = [r for r in reports if r.batch_size]
    for phase in ("pack", "score", "prune", "unpack"):
        mean_ms = 1e3 * sum(
            r.phase_seconds.get(phase, 0.0) for r in busy
        ) / len(busy)
        print(f"  {phase:<6} {mean_ms:6.3f} ms/step")

    print("\n=== fused step == looped sessions (bit-identical) ===")
    t0 = time.perf_counter()
    sessions = replay_with_sessions(config, pairs)
    looped = time.perf_counter() - t0
    for (request, _), session in zip(pairs, sessions):
        done = next(
            c for c in engine.completed if c.request_id == request.request_id
        )
        assert done.stats.counter.k_bits == session.counter.k_bits
        assert done.stats.counter.v_bits == session.counter.v_bits
        # clip accounting differs by design: the pooled engine checks each
        # element once at cache entry, the session rescans the full K/V
        assert done.stats.clip_events <= session.clip_events
    print(
        f"per-request traffic identical; looped sessions took {looped:.2f}s "
        "for what the engine fused into one kernel call per step"
    )

    print("\n=== measured traffic -> hardware model ===")
    model = get_model_config("gpt2-medium")
    sim = ServingSimulator(model, context_length=160, config=config)
    full = max(reports, key=lambda r: r.batch_size)
    ours = sim.price(full, engine_heads=N_HEADS)
    base = sim.price(full, "baseline", engine_heads=N_HEADS)
    point = measured_batch_point(
        model,
        [v.stats for v in full.per_sequence.values()],
        context_length=160,
        engine_heads=N_HEADS,
    )
    print(
        f"B={full.batch_size} decode step: {base.total_cycles} -> "
        f"{ours.total_cycles} cycles "
        f"({base.total_cycles / ours.total_cycles:.2f}x), "
        f"{tokens_per_second(ours):,.0f} tokens/s"
    )
    print(
        f"traffic-limited speedup {point.step_speedup:.2f}x at "
        f"KV fraction {point.kv_fraction:.2f}"
    )

    print("\n=== chunked prefill: --prefill-budget bounds the stall ===")
    # a long prompt lands while short requests are decoding; compare the
    # worst single-step prompt ingest with and without a budget
    for budget in (None, 48):
        rng2 = np.random.default_rng(7)
        engine2 = ServingEngine(
            config,
            max_batch_size=8,
            capacity_tokens=4096,
            seed=7,
            prefill_budget_tokens=budget,
        )
        for _ in range(4):
            engine2.submit(make_request(rng2, int(rng2.integers(24, 48)), 10)[0])
        for _ in range(2):  # shorts settle into steady decode
            engine2.step()
        engine2.submit(make_request(rng2, 512, 2)[0])  # the stall-maker
        reports2 = []
        while engine2.n_pending or engine2.n_active:
            reports2.append(engine2.step())
        worst = max(r.prefill_tokens for r in reports2)
        label = "unbounded" if budget is None else f"budget {budget}"
        print(
            f"  {label:>10}: worst step ingested {worst:3d} prompt tokens "
            f"in one go ({engine2.prefill_chunks_total} chunks total, "
            f"TTFT measured at the first *decoded* token)"
        )


if __name__ == "__main__":
    main()
