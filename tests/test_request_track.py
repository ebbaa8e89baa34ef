"""The request track, pinned event for event.

Every ``req<id>`` track event of two seeded runs — ``(ph, process,
thread, name, args)`` in emission order, timestamps left out — must
equal the list in ``data/request_track.json``:

* **engines**: one tracer over two engines, covering a mid-prefill
  preemption, an export from one engine adopted by the other, and a
  cancel;
* **faults**: a 3-replica :class:`~repro.cluster.faults.FaultInjector`
  run whose kills harvest queued, swapped-out and arena-resident
  sequences, one of which swap-resumes on a survivor.

The structural trace tests check nesting and terminal states; this one
checks that no span, mark or argument moves.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.cluster import ClusterRouter, FaultInjector, fault_schedule
from repro.core import TokenPickerConfig
from repro.obs import Tracer
from repro.serving import ServingEngine, synthetic_request
from repro.workloads import failover_trace

EXPECTED = Path(__file__).parent / "data" / "request_track.json"
N_HEADS, HEAD_DIM = 2, 8
#: a seed whose kills harvest all three kinds of record: queued,
#: swapped out (one swap-resume) and arena-resident (re-prefilled)
SWAP_SEED = 10


def _request_track(tracer):
    """The ``req*`` events as JSON-shaped lists, without timestamps."""
    return [
        [e.ph, e.process, e.thread, e.name, e.args]
        for e in tracer.events
        if e.thread.startswith("req")
    ]


def _engines_run():
    tracer = Tracer()
    config = TokenPickerConfig(threshold=2e-3)
    donor = ServingEngine(
        config, max_batch_size=3, capacity_tokens=2048,
        prefill_budget_tokens=12, seed=3, tracer=tracer, trace_label="donor",
    )
    adopter = ServingEngine(
        config, max_batch_size=3, capacity_tokens=2048, seed=4,
        tracer=tracer, trace_label="adopter",
    )
    rng = np.random.default_rng(8)
    ids = [
        donor.submit(synthetic_request(rng, N_HEADS, 20, HEAD_DIM, 6))
        for _ in range(4)
    ]
    donor.step()  # three admitted; the budget reaches only part of them
    mid_prefill = [
        rec for rec in donor._active.values()
        if rec.prefilling and rec.prefill_pos > 0
    ]
    assert mid_prefill, "no sequence is mid-prefill after one step"
    donor.preempt(mid_prefill[0].seq_id)
    donor.step()
    decoding = [rec for rec in donor._active.values() if not rec.prefilling]
    assert decoding, "no sequence is decoding after two steps"
    donor.preempt(decoding[0].seq_id)
    adopter.adopt_preempted(
        donor.export_preempted(decoding[0].request.request_id)
    )
    donor.cancel(ids[3])
    donor.run_until_drained()
    adopter.run_until_drained()
    assert donor.preemptions_total == 2 and adopter.adopted_total == 1
    return tracer


def _faults_run():
    tracer = Tracer()
    router = ClusterRouter(
        3, max_batch_size=3, capacity_tokens=80, seed=13, tracer=tracer
    )
    injector = FaultInjector(
        router, fault_schedule(SWAP_SEED, 3, n_kills=2, revive_after=4)
    )
    injector.run_trace(
        failover_trace(
            np.random.default_rng(SWAP_SEED), n_heads=N_HEADS,
            head_dim=HEAD_DIM, n_requests=6, prompt_tokens=10,
            max_new_tokens=30, prompt_jitter=6, new_token_jitter=6,
        )
    )
    stats = injector.stats
    assert stats.kills == 2 and stats.swap_resumes == 1
    assert stats.re_prefills >= 1 and stats.requeues >= 1
    return tracer


RUNS = {"engines": _engines_run, "faults": _faults_run}


@pytest.mark.parametrize("run", sorted(RUNS))
def test_request_track_is_pinned(run):
    tracer = RUNS[run]()
    assert tracer.errors == [] and tracer.open_span_count == 0
    expected = json.loads(EXPECTED.read_text())[run]
    assert _request_track(tracer) == expected
