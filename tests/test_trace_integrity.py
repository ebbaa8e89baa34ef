"""Trace integrity under adversity.

The tracing layer's structural contract: after any drained run —
including runs with preemption, swap-resume, mid-prefill cancellation,
cross-engine adoption and injected replica kills — every span opened was
closed exactly once (``tracer.errors`` empty, ``open_span_count`` zero),
request spans carry a terminal state, and both export formats satisfy
their schema (in particular Perfetto span *nesting* per track).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import ClusterRouter, FaultInjector, fault_schedule
from repro.core import TokenPickerConfig
from repro.obs import Tracer, validate_span_log, validate_trace
from repro.serving import RequestState, ServingEngine, synthetic_request
from repro.workloads import failover_trace

N_HEADS, HEAD_DIM = 2, 8

#: every value a closed request span's ``state`` arg may take
TERMINAL_STATES = {
    "finished", "cancelled", "timed_out", "withdrawn", "exported", "lost",
}


def _engine(tracer, **kw):
    kw.setdefault("max_batch_size", 2)
    kw.setdefault("capacity_tokens", 512)
    kw.setdefault("seed", 3)
    return ServingEngine(
        TokenPickerConfig(threshold=2e-3), tracer=tracer, **kw
    )


def _submit(engine, rng, n, prompt_tokens=10, max_new=8):
    return [
        engine.submit(
            synthetic_request(rng, N_HEADS, prompt_tokens, HEAD_DIM, max_new)
        )
        for _ in range(n)
    ]


def _assert_sound(tracer):
    """The invariants every drained traced run must satisfy."""
    assert tracer.errors == []
    assert tracer.open_span_count == 0, tracer.open_spans()
    validate_trace(tracer.to_trace_events())
    import json

    lines = [json.dumps(r) for r in tracer.to_span_records()]
    assert validate_span_log(lines) == len(tracer.events)
    requests = [
        e for e in tracer.events if e.ph == "X" and e.name == "request"
    ]
    assert requests, "run produced no request spans"
    for span in requests:
        assert (span.args or {}).get("state") in TERMINAL_STATES, span
    return requests


class TestSingleEngineIntegrity:
    def test_plain_drain(self):
        tracer = Tracer()
        engine = _engine(tracer)
        _submit(engine, np.random.default_rng(0), 5)
        engine.run_until_drained()
        requests = _assert_sound(tracer)
        assert len(requests) == 5
        assert all(s.args["state"] == "finished" for s in requests)

    def test_preempt_and_resume_spans_nest(self):
        tracer = Tracer()
        engine = _engine(tracer, max_batch_size=2)
        _submit(engine, np.random.default_rng(1), 3, max_new=10)
        for _ in range(3):
            engine.step()
        engine.preempt(next(iter(engine._active)))
        engine.run_until_drained()
        _assert_sound(tracer)
        preempted = [e for e in tracer.events if e.name == "preempted"]
        assert preempted
        # each preempted interval sits inside its request span
        by_track = {
            (e.process, e.thread): e
            for e in tracer.events
            if e.ph == "X" and e.name == "request"
        }
        for span in preempted:
            request = by_track[(span.process, span.thread)]
            assert span.ts_s >= request.ts_s - 1e-9
            assert (
                span.ts_s + span.dur_s
                <= request.ts_s + request.dur_s + 1e-9
            )

    def test_mid_prefill_cancellation(self):
        tracer = Tracer()
        engine = _engine(
            tracer, max_batch_size=4, capacity_tokens=2048,
            prefill_budget_tokens=8,
        )
        ids = _submit(
            engine, np.random.default_rng(2), 3, prompt_tokens=40, max_new=4
        )
        engine.step()  # partial prefill under the tight budget
        done = engine.cancel(ids[0])
        assert done.state == RequestState.CANCELLED
        engine.cancel(ids[1], timed_out=True)
        engine.run_until_drained()
        requests = _assert_sound(tracer)
        states = sorted((s.args or {}).get("state") for s in requests)
        assert states == ["cancelled", "finished", "timed_out"]

    def test_withdraw_pending(self):
        tracer = Tracer()
        engine = _engine(tracer, max_batch_size=1)
        _submit(engine, np.random.default_rng(3), 3)
        engine.step()  # admits one, leaves the rest queued
        withdrawn = engine.withdraw_pending()
        assert withdrawn
        engine.run_until_drained()
        requests = _assert_sound(tracer)
        states = [(s.args or {}).get("state") for s in requests]
        assert states.count("withdrawn") == len(withdrawn)

    def test_export_adopt_across_engines(self):
        tracer = Tracer()
        donor = _engine(tracer, seed=1)
        _submit(donor, np.random.default_rng(5), 1, max_new=8)
        for _ in range(3):
            donor.step()
        rid = next(iter(donor._active))
        request_id = donor._active[rid].request.request_id
        donor.preempt(rid)
        export = donor.export_preempted(request_id)
        adoptee = _engine(tracer, seed=1, trace_label="adoptee")
        adoptee.adopt_preempted(export)
        adoptee.run_until_drained()
        _assert_sound(tracer)
        by_state = {}
        for e in tracer.events:
            if e.ph == "X" and e.name == "request":
                state = (e.args or {}).get("state")
                by_state[state] = by_state.get(state, 0) + 1
        assert by_state == {"exported": 1, "finished": 1}
        adopted = [
            e
            for e in tracer.events
            if e.ph == "X"
            and e.name == "request"
            and (e.args or {}).get("adopted")
        ]
        assert len(adopted) == 1 and adopted[0].process == "adoptee"

    def test_adopting_a_sequence_before_its_first_chunk(self):
        """A sequence preempted after admission but before any prompt
        chunk landed reopens its ``queued`` span on the adopting engine,
        so the first chunk there closes it like on the donor."""
        tracer = Tracer()
        donor = _engine(
            tracer, max_batch_size=2, capacity_tokens=2048,
            prefill_budget_tokens=8,
        )
        _submit(donor, np.random.default_rng(6), 2, prompt_tokens=40, max_new=4)
        donor.step()  # both admitted; the budget reaches only the first
        waiting = [
            rec for rec in donor._active.values()
            if rec.stats.prefill_start_wall < 0
        ]
        assert len(waiting) == 1
        donor.preempt(waiting[0].seq_id)
        export = donor.export_preempted(waiting[0].request.request_id)
        adoptee = _engine(tracer, seed=1, trace_label="adoptee")
        adoptee.adopt_preempted(export)
        adoptee.run_until_drained()
        donor.run_until_drained()
        _assert_sound(tracer)
        reopened = {
            e.name for e in tracer.events
            if e.ph == "X" and e.process == "adoptee"
        }
        assert {"queued", "prefill", "decode", "preempted"} <= reopened

    def test_sampled_steps_keep_request_spans_complete(self):
        tracer = Tracer(sample_steps=4)
        engine = _engine(tracer)
        _submit(engine, np.random.default_rng(7), 4)
        reports = engine.run_until_drained()
        requests = _assert_sound(tracer)
        assert len(requests) == 4
        steps = [e for e in tracer.events if e.name == "engine_step"]
        assert 0 < len(steps) < len(reports)


class TestClusterIntegrity:
    @settings(max_examples=8, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        n_kills=st.integers(min_value=1, max_value=3),
    )
    def test_faulted_runs_trace_soundly(self, seed, n_kills):
        """Hypothesis sweep: seeded kills/revives (reusing the
        chaos harness's own schedules) never unbalance the trace."""
        tracer = Tracer()
        router = ClusterRouter(
            3,
            max_batch_size=2,
            capacity_tokens=256,
            seed=13,
            tracer=tracer,
        )
        injector = FaultInjector(
            router,
            fault_schedule(seed, 3, n_kills=n_kills, revive_after=4),
        )
        injector.run_trace(
            failover_trace(
                np.random.default_rng(seed % 97),
                n_heads=N_HEADS,
                head_dim=HEAD_DIM,
                n_requests=6,
                arrivals_per_step=1,
                prompt_tokens=10,
                max_new_tokens=8,
                prompt_jitter=6,
                new_token_jitter=6,
            )
        )
        requests = _assert_sound(tracer)
        # all six logical requests finish somewhere; kills may add
        # harvested/lost span instances on the dead incarnation
        finished = sum(
            1 for s in requests if s.args.get("state") == "finished"
        )
        assert finished >= 6
        if injector.stats.kills:
            marks = {e.name for e in tracer.events if e.ph == "i"}
            assert "replica_kill" in marks

    def test_revived_replica_gets_fresh_track(self):
        """A revive must not reuse the dead incarnation's process label:
        adopted spans are anchored in the past and would otherwise
        overlap its closed request spans."""
        tracer = Tracer()
        router = ClusterRouter(
            2, max_batch_size=2, capacity_tokens=256, seed=13, tracer=tracer
        )
        router.kill_replica(0)
        router.revive_replica(0)
        revived = router.replicas[0]
        assert revived.trace_label == "r0+1"
        _submit(revived, np.random.default_rng(11), 2)
        revived.run_until_drained()
        _assert_sound(tracer)
        processes = {e.process for e in tracer.events if e.ph == "X"}
        assert "r0+1" in processes and "r0" not in processes
        # a second revive gets its own incarnation label too
        router.kill_replica(0)
        router.revive_replica(0)
        assert router.replicas[0].trace_label == "r0+2"
