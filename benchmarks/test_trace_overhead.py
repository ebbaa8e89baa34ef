"""Bench: the serving engine's three tracing rungs on one workload.

* **off** — ``tracer=None``: every instrumentation site holds the falsy
  ``NULL_TRACER`` and the step pays one truthiness check.
* **sampled** — ``Tracer(sample_steps=8)``: request lifecycle spans are
  complete but only every 8th engine step span is recorded.
* **full** — ``Tracer()``: every step span plus its phase breakdown.

The checks are structural, not timed: the off rung records nothing, the
sampled rung records strictly fewer step spans than the full one, and a
step the sampler rejects never builds its attribute payload.
"""

import numpy as np

from repro.core import TokenPickerConfig
from repro.obs import NULL_TRACER, Tracer
from repro.serving import ServingEngine, synthetic_request

BATCH = 4
N_HEADS, HEAD_DIM = 2, 16
PROMPT_TOKENS, MAX_NEW = 24, 3
SAMPLE_STEPS = 8
CFG = TokenPickerConfig(threshold=2e-3)


def _fresh_engine(tracer, seed: int = 0) -> ServingEngine:
    engine = ServingEngine(
        CFG,
        max_batch_size=BATCH,
        capacity_tokens=BATCH * (PROMPT_TOKENS + MAX_NEW + 64),
        seed=seed,
        tracer=tracer,
    )
    rng = np.random.default_rng(seed)
    for _ in range(BATCH):
        prompt = PROMPT_TOKENS + int(rng.integers(-16, 17))
        engine.submit(
            synthetic_request(rng, N_HEADS, prompt, HEAD_DIM, MAX_NEW)
        )
    return engine


def test_tracing_off_is_null_tracer():
    """The disabled path installs the falsy singleton end to end."""
    engine = _fresh_engine(None)
    assert engine.tracer is NULL_TRACER
    assert not engine.tracer
    engine.run_until_drained()  # nothing recorded, nothing to record


def test_full_trace_records_sampled_trace_skips():
    full, sampled = Tracer(), Tracer(sample_steps=SAMPLE_STEPS)
    _fresh_engine(full).run_until_drained()
    _fresh_engine(sampled).run_until_drained()

    def count(tracer):
        return sum(1 for e in tracer.events if e.name == "engine_step")

    assert 0 < count(sampled) < count(full)
    assert full.errors == [] and sampled.errors == []


def test_sampling_skips_payload_build_entirely():
    """Sampling must reject a step *before* the per-round alive/tier
    attribute payload is assembled — the rejected steps' cost is one
    modulo check, not a discarded dict build."""
    off = _fresh_engine(None)
    off.run_until_drained()
    assert off.trace_payloads_built == 0

    full = _fresh_engine(Tracer())
    full.run_until_drained()
    sampled = _fresh_engine(Tracer(sample_steps=SAMPLE_STEPS))
    sampled.run_until_drained()
    assert 0 < sampled.trace_payloads_built < full.trace_payloads_built
