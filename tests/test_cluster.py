"""Tests for the multi-replica cluster layer (router, memory, metrics)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import (
    ClusterRouter,
    Histogram,
    MetricsRegistry,
    OptimisticMemory,
    bursty_trace,
    make_memory_manager,
)
from repro.core import TokenPickerConfig
from repro.core.session import TokenPickerSession
from repro.kvstore import RadixKVCache, TierConfig
from repro.serving import (
    GenerationRequest,
    RequestState,
    ServingEngine,
    VictimCandidate,
    replayable_step_source,
    synthetic_request,
)
from repro.workloads import shared_prefix_trace

CFG = TokenPickerConfig(threshold=2e-3)


def _optimistic_engine(**kw):
    defaults = dict(
        max_batch_size=8,
        capacity_tokens=256,
        block_size=16,
        seed=0,
        memory_manager=OptimisticMemory(),
    )
    defaults.update(kw)
    return ServingEngine(CFG, **defaults)


def _replayable_request(rng, n_heads=2, prompt=40, head_dim=16, max_new=8):
    keys = rng.normal(size=(n_heads, prompt, head_dim))
    values = rng.normal(size=(n_heads, prompt, head_dim))
    source, stream = replayable_step_source(rng, n_heads, head_dim, max_new)
    request = GenerationRequest(
        prompt_keys=keys,
        prompt_values=values,
        max_new_tokens=max_new,
        step_source=source,
    )
    return request, stream


# --------------------------------------------------------------------- metrics
class TestMetrics:
    def test_counter_and_gauge(self):
        reg = MetricsRegistry()
        reg.counter("req", replica=0).inc()
        reg.counter("req", replica=0).inc(2)
        reg.counter("req", replica=1).inc()
        reg.gauge("depth", replica=0).set(7)
        assert reg.counter("req", replica=0).value == 3
        assert reg.counter("req", replica=1).value == 1
        assert reg.gauge("depth", replica=0).value == 7
        with pytest.raises(ValueError):
            reg.counter("req", replica=0).inc(-1)

    def test_name_bound_to_one_type(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(TypeError):
            reg.gauge("x")

    def test_histogram_percentiles_close_to_exact(self):
        rng = np.random.default_rng(0)
        values = rng.lognormal(mean=-6.0, sigma=1.0, size=4000)
        hist = Histogram()
        for v in values:
            hist.observe(float(v))
        for q in (50, 95, 99):
            exact = float(np.percentile(values, q))
            approx = hist.percentile(q)
            assert abs(approx - exact) / exact < 0.08, (q, exact, approx)
        assert hist.count == 4000
        assert hist.min == values.min() and hist.max == values.max()

    def test_histogram_order_independent(self):
        values = [0.004, 0.001, 0.2, 0.0, 0.05, 0.001]
        a, b = Histogram(), Histogram()
        for v in values:
            a.observe(v)
        for v in reversed(values):
            b.observe(v)
        assert a.summary() == b.summary()

    def test_empty_state_behaviour(self):
        """Empty metrics: counters read 0, histogram percentiles are nan
        (consistently — not 0.0, not an exception), summaries stay
        count-only."""
        import math

        from repro.cluster.metrics import Counter, Gauge

        assert Counter().value == 0.0
        assert Gauge().value == 0.0
        hist = Histogram()
        assert hist.count == 0
        assert hist.mean == 0.0
        for q in (0.0, 50.0, 99.0, 100.0):
            assert math.isnan(hist.percentile(q))
        assert hist.summary() == {"count": 0}
        # bounds still validated on an empty histogram
        with pytest.raises(ValueError):
            hist.percentile(-0.1)
        # one observation flips every percentile to a real number
        hist.observe(0.25)
        assert hist.percentile(50.0) == 0.25

    def test_histogram_edge_cases(self):
        hist = Histogram()
        assert hist.summary() == {"count": 0}
        hist.observe(0.003)
        s = hist.summary()
        assert s["p50"] == s["p99"] == 0.003  # clamped to observed range
        hist.observe(0.01, n=3)
        assert hist.count == 4
        with pytest.raises(ValueError):
            hist.observe(-1.0)
        with pytest.raises(ValueError):
            hist.observe(1.0, n=0)
        with pytest.raises(ValueError):
            hist.percentile(101)

    def test_snapshot_and_render(self):
        reg = MetricsRegistry()
        reg.counter("done", replica=0).inc(5)
        reg.histogram("lat", replica=0).observe(0.01)
        snap = reg.snapshot()
        assert snap["done"][0]["value"] == 5
        assert snap["lat"][0]["summary"]["count"] == 1
        text = reg.render()
        assert "done{replica=0} 5" in text
        assert "lat{replica=0}" in text


# ---------------------------------------------------------------------- memory
class TestMemoryPolicy:
    def test_factory(self):
        assert make_memory_manager("conservative") is None
        assert isinstance(make_memory_manager("optimistic"), OptimisticMemory)
        with pytest.raises(ValueError):
            make_memory_manager("greedy")

    def test_footprints(self):
        rng = np.random.default_rng(0)
        request = synthetic_request(rng, 2, 32, 16, max_new_tokens=100)
        optimistic = OptimisticMemory(margin_blocks=1)
        assert optimistic.admission_tokens(request, 16) == 48  # + 1 block
        assert optimistic.admission_tokens(request, 32) == 64
        assert optimistic.reserve_tokens(request) == 32
        short = synthetic_request(rng, 2, 32, 16, max_new_tokens=2)
        assert optimistic.admission_tokens(short, 16) == 34  # capped

    def test_margin_is_counted_in_the_engines_blocks(self):
        """On 32-token blocks the one-block margin is 32 tokens: with two
        blocks free, a 40-token prompt (needing 72) waits; a 16-token
        margin would have admitted it."""
        engine = _optimistic_engine(capacity_tokens=96, block_size=32)
        rng = np.random.default_rng(0)
        first = engine.submit(synthetic_request(rng, 2, 32, 16, 8))
        engine.submit(synthetic_request(rng, 2, 40, 16, 48))
        assert engine.step().admitted == [first]
        assert engine.n_pending == 1

    def test_victim_selection_prefers_lowest_mass_then_lifo(self):
        def cand(seq_id, mass, admitted):
            return VictimCandidate(
                seq_id=seq_id,
                request_id=seq_id,
                retained_mass=mass,
                admitted_step=admitted,
                context_length=10,
                remaining_tokens=5,
            )

        policy = OptimisticMemory()
        assert policy.select_victim([]) is None
        picked = policy.select_victim(
            [cand(1, 0.9, 0), cand(2, 0.4, 1), cand(3, 0.7, 2)]
        )
        assert picked == 2  # lowest retained mass
        picked = policy.select_victim(
            [cand(1, 1.0, 0), cand(2, 1.0, 5), cand(3, 1.0, 5)]
        )
        assert picked == 3  # tie: latest admission, then higher seq id


# ------------------------------------------------------- engine preempt/resume
class TestPreemption:
    def test_optimistic_preempts_and_drains(self):
        rng = np.random.default_rng(0)
        engine = _optimistic_engine()
        for _ in range(6):
            engine.submit(synthetic_request(rng, 2, 40, 16, max_new_tokens=30))
        reports = engine.run_until_drained()
        assert len(engine.completed) == 6
        assert engine.preemptions_total > 0
        assert engine.resumes_total == engine.preemptions_total
        assert engine.pool.blocks_in_use == 0
        assert engine.pool.swaps_out_total == engine.preemptions_total
        preempted = [r for r in reports if r.preempted]
        resumed = [r for r in reports if r.resumed]
        assert preempted and resumed
        stats = [c.stats for c in engine.completed]
        assert any(s.preemptions for s in stats)
        assert any(s.preempted_steps > 0 for s in stats)
        # every request ended FINISHED and with a sane retained-mass mean
        for s in stats:
            assert 0.0 <= s.mean_retained_mass <= 1.0
            assert s.retained_mass_steps == s.generated_tokens

    def test_request_state_lifecycle(self):
        rng = np.random.default_rng(1)
        engine = _optimistic_engine(max_batch_size=4, capacity_tokens=128)
        requests = [
            synthetic_request(rng, 2, 30, 16, max_new_tokens=25)
            for _ in range(4)
        ]
        for r in requests:
            engine.submit(r)
            assert r.state is RequestState.QUEUED
        engine.step()
        assert any(r.state is RequestState.RUNNING for r in requests)
        seen_preempted = False
        for _ in range(200):
            if not (engine.n_pending or engine.n_active or engine.n_preempted):
                break
            engine.step()
            seen_preempted = seen_preempted or any(
                r.state is RequestState.PREEMPTED for r in requests
            )
        assert seen_preempted
        assert all(r.state is RequestState.FINISHED for r in requests)

    def test_conservative_default_never_preempts(self):
        rng = np.random.default_rng(2)
        engine = ServingEngine(
            CFG, max_batch_size=8, capacity_tokens=256, block_size=16, seed=0
        )
        for _ in range(6):
            engine.submit(synthetic_request(rng, 2, 40, 16, max_new_tokens=30))
        engine.run_until_drained()
        assert engine.preemptions_total == 0
        assert len(engine.completed) == 6

    def test_preempt_resume_bit_identical_to_sessions(self):
        """Acceptance: preempted-and-resumed sequences reproduce, bit for
        bit, the pruning decisions, outputs and traffic of per-sequence
        sessions that never experienced memory pressure."""
        rng = np.random.default_rng(3)
        engine = _optimistic_engine(capacity_tokens=224)
        pairs = [
            _replayable_request(
                rng, prompt=int(rng.integers(24, 56)), max_new=12
            )
            for _ in range(5)
        ]
        for request, _ in pairs:
            engine.submit(request)
        per_request = {}
        for report in engine.run_until_drained():
            for sid, view in report.per_sequence.items():
                per_request.setdefault(view.request_id, []).append(
                    (report.results[sid].kept, report.results[sid].outputs)
                )
        assert engine.preemptions_total > 0, "pool never pressured; weak test"
        for request, stream in pairs:
            session = TokenPickerSession(CFG)
            session.observe_prompt(request.prompt_keys, request.prompt_values)
            keys, values = request.prompt_keys, request.prompt_values
            engine_steps = per_request[request.request_id]
            assert len(engine_steps) == len(stream)
            for (kept, outputs), (q, k, v) in zip(engine_steps, stream):
                keys = np.concatenate([keys, k[:, None, :]], axis=1)
                values = np.concatenate([values, v[:, None, :]], axis=1)
                result = session.step(q, keys, values)
                assert np.array_equal(kept, result.kept)
                assert np.array_equal(outputs, result.outputs)
            done = next(
                c
                for c in engine.completed
                if c.request_id == request.request_id
            )
            assert done.stats.counter.k_bits == session.counter.k_bits
            assert done.stats.counter.v_bits == session.counter.v_bits

    @settings(max_examples=8, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        capacity_blocks=st.integers(12, 20),
        max_new=st.integers(6, 20),
    )
    def test_preemption_property_zero_divergence(
        self, seed, capacity_blocks, max_new
    ):
        """Property: for any seed / pool size / decode length, optimistic
        admission (with whatever preemptions it triggers) keeps every
        sequence's kept-token decisions identical to a pressure-free
        conservative engine fed the same streams."""
        rng = np.random.default_rng(seed)
        pairs = [
            _replayable_request(
                rng, prompt=int(rng.integers(16, 48)), max_new=max_new
            )
            for _ in range(4)
        ]

        def kept_by_request(engine):
            out = {}
            for report in engine.run_until_drained():
                for sid, view in report.per_sequence.items():
                    out.setdefault(view.request_id, []).append(
                        report.results[sid].kept
                    )
            return out

        tight = _optimistic_engine(capacity_tokens=capacity_blocks * 16)
        roomy = ServingEngine(
            CFG, max_batch_size=8, capacity_tokens=8192, seed=0
        )
        id_map = {}
        for request, stream in pairs:
            tight_id = tight.submit(request)
            clone = GenerationRequest(
                prompt_keys=request.prompt_keys.copy(),
                prompt_values=request.prompt_values.copy(),
                max_new_tokens=request.max_new_tokens,
                step_source=request.step_source,
            )
            id_map[tight_id] = roomy.submit(clone)
        tight_kept = kept_by_request(tight)
        roomy_kept = kept_by_request(roomy)
        for tight_id, roomy_id in id_map.items():
            a, b = tight_kept[tight_id], roomy_kept[roomy_id]
            assert len(a) == len(b)
            for ka, kb in zip(a, b):
                assert np.array_equal(ka, kb)

    def test_optimistic_higher_occupancy_than_conservative(self):
        """Acceptance: on a bursty trace, optimistic admission sustains
        strictly higher mean batch occupancy than the conservative rule."""

        def run(admission):
            router = ClusterRouter(
                1,
                CFG,
                admission=admission,
                max_batch_size=8,
                capacity_tokens=320,
                block_size=16,
                seed=7,
            )
            trace = bursty_trace(
                np.random.default_rng(7),
                10,
                n_heads=2,
                head_dim=16,
                prompt_tokens=32,
                max_new_tokens=24,
                burst_size=5,
                gap_steps=2,
            )
            router.run_trace(trace)
            assert router.summary()["requests_completed"] == 10
            return router

        optimistic = run("optimistic")
        conservative = run("conservative")
        assert optimistic.summary()["preemptions"] > 0
        assert conservative.summary()["preemptions"] == 0
        assert (
            optimistic.mean_batch_occupancy(0)
            > conservative.mean_batch_occupancy(0)
        )


# ---------------------------------------------------------------------- router
class TestRouter:
    def test_round_robin_spreads_requests(self):
        rng = np.random.default_rng(0)
        router = ClusterRouter(
            3, CFG, policy="round-robin", max_batch_size=4,
            capacity_tokens=1024, seed=0,
        )
        placements = [
            router.submit(synthetic_request(rng, 2, 24, 16, 4))[0]
            for _ in range(6)
        ]
        assert placements == [0, 1, 2, 0, 1, 2]

    def test_refused_submit_keeps_the_round_robin_turn(self):
        """Regression: the turn advanced before the replica's submit could
        refuse the request, so a refused request cost the next replica
        its turn and two good requests in a row landed on replica 0."""
        rng = np.random.default_rng(3)
        router = ClusterRouter(
            2, CFG, policy="round-robin", max_batch_size=4,
            capacity_tokens=1024, seed=0,
        )
        first, _ = router.submit(synthetic_request(rng, 2, 24, 16, 4))
        bad = synthetic_request(rng, 2, 24, 16, 4)
        bad.prompt_keys[0, 0, 0] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            router.submit(bad)
        second, _ = router.submit(synthetic_request(rng, 2, 24, 16, 4))
        third, _ = router.submit(synthetic_request(rng, 2, 24, 16, 4))
        assert [first, second, third] == [0, 1, 0]

    def test_revive_keeps_the_aborted_history(self):
        """Regression: a revive archived only the old engine's finished
        requests, so its cancelled and timed-out ones vanished from
        ``cancelled`` and from the summary's ``requests_cancelled``."""
        rng = np.random.default_rng(4)
        router = ClusterRouter(
            2, CFG, policy="round-robin", max_batch_size=4,
            capacity_tokens=1024, seed=0,
        )
        rid, request_id = router.submit(synthetic_request(rng, 2, 24, 16, 4))
        router.replicas[rid].cancel(request_id)
        assert len(router.cancelled) == 1
        router.kill_replica(rid)
        router.revive_replica(rid)
        assert [(r, done.request_id) for r, done in router.cancelled] == [
            (rid, request_id)
        ]
        assert router.summary()["requests_cancelled"] == 1

    def test_least_loaded_prefers_idle_replica(self):
        rng = np.random.default_rng(1)
        router = ClusterRouter(
            2, CFG, policy="least-loaded", max_batch_size=4,
            capacity_tokens=1024, seed=0,
        )
        first, _ = router.submit(synthetic_request(rng, 2, 64, 16, 8))
        second, _ = router.submit(synthetic_request(rng, 2, 24, 16, 4))
        assert first == 0 and second == 1  # backlog pushed it to the peer

    def test_drain_rebalances_queued_requests(self):
        rng = np.random.default_rng(2)
        router = ClusterRouter(
            2, CFG, policy="round-robin", max_batch_size=2,
            capacity_tokens=2048, seed=0,
        )
        for _ in range(8):
            router.submit(synthetic_request(rng, 2, 24, 16, 4))
        assert router.replicas[0].n_pending == 4
        moved = router.drain(0)
        assert moved == 4
        assert router.replicas[0].n_pending == 0
        assert router.replicas[1].n_pending == 8
        assert router.routable() == [1]
        # draining the last routable replica is refused
        with pytest.raises(RuntimeError):
            router.drain(1)
        router.undrain(0)
        assert router.routable() == [0, 1]
        router.run_until_drained()
        assert router.summary()["requests_completed"] == 8

    def test_validation(self):
        with pytest.raises(ValueError):
            ClusterRouter(0, CFG)
        with pytest.raises(ValueError):
            ClusterRouter(1, CFG, policy="random")
        with pytest.raises(ValueError):
            ClusterRouter(1, CFG, admission="bogus")
        router = ClusterRouter(1, CFG)
        with pytest.raises(ValueError):
            router.drain(5)

    def test_metrics_recorded_per_replica(self):
        router = ClusterRouter(
            2, CFG, max_batch_size=4, capacity_tokens=1024, seed=3
        )
        trace = bursty_trace(
            np.random.default_rng(3), 6, n_heads=2, head_dim=16,
            prompt_tokens=24, max_new_tokens=4, burst_size=3, gap_steps=1,
        )
        router.run_trace(trace)
        for rid in range(2):
            ttft = router.metrics.histogram("ttft_seconds", replica=rid)
            lat = router.metrics.histogram(
                "token_latency_seconds", replica=rid
            )
            assert ttft.count == len(router.replicas[rid].completed)
            assert lat.count == sum(
                c.stats.generated_tokens
                for c in router.replicas[rid].completed
            )
            for s in (ttft.summary(), lat.summary()):
                assert 0 < s["p50"] <= s["p95"] <= s["p99"]
            assert (
                router.metrics.counter("requests_completed", replica=rid).value
                == len(router.replicas[rid].completed)
            )

    def test_summary_deterministic_across_runs(self):
        """Same seed, same trace -> bit-identical cluster summaries."""

        def run():
            router = ClusterRouter(
                2,
                CFG,
                admission="optimistic",
                max_batch_size=4,
                capacity_tokens=384,
                seed=11,
            )
            trace = bursty_trace(
                np.random.default_rng(11), 8, n_heads=2, head_dim=16,
                prompt_tokens=32, max_new_tokens=10, burst_size=4,
                gap_steps=2,
            )
            router.run_trace(trace)
            return router.summary()

        assert run() == run()

    def test_timing_summary_included_on_request(self):
        router = ClusterRouter(1, CFG, max_batch_size=2, seed=0)
        rng = np.random.default_rng(0)
        router.submit(synthetic_request(rng, 2, 24, 16, 3))
        router.run_until_drained()
        assert "timing" not in router.summary()
        timed = router.summary(include_timing=True)
        assert "ttft_seconds" in timed["timing"]


# ------------------------------------------------------------ hw aggregation
class TestClusterHardwareModel:
    def test_cluster_span_is_its_straggler_replica(self):
        """The ``cluster`` track summarises the replicas' own ``cycles``
        spans: its ``modelled_step`` is exactly the slowest replica's.  It
        used to be priced without ``engine_heads`` (cheaper than either
        replica), and then one-tier on a tiered cluster, whose replicas
        price their slow-tier bits on the slow stream."""
        from repro.hw.serving import ServingSimulator
        from repro.model.config import get_model_config
        from repro.obs import Tracer

        tiered = TierConfig(
            hot_budget_tokens=32, hot_tail=8, min_seen=1, survive_idle_steps=1
        )
        for kv_tiering in (None, tiered):
            tracer = Tracer()
            router = ClusterRouter(
                2, CFG, max_batch_size=4, capacity_tokens=1024, seed=5,
                tracer=tracer, kv_tiering=kv_tiering,
                cycle_sim=ServingSimulator(
                    get_model_config("gpt2-medium"), 64, config=CFG
                ),
            )
            rng = np.random.default_rng(5)
            for _ in range(8):
                router.submit(synthetic_request(rng, 4, 64, 16, 4))
            router.run_until_drained()
            steps = [
                e for e in tracer.events
                if e.name == "modelled_step" and e.ph == "X"
            ]
            cluster = [e for e in steps if e.process == "cluster"]
            assert cluster
            for span in cluster:
                replicas = [
                    e.args
                    for e in steps
                    if e.process != "cluster"
                    and span.ts_s <= e.ts_s <= span.ts_s + span.dur_s
                ]
                cycles = [args["total_cycles"] for args in replicas]
                assert span.args["n_replicas"] == len(replicas)
                assert span.args["total_cycles"] == max(cycles)
                assert span.args["cluster_total_cycles"] == sum(cycles)
                straggler = replicas[cycles.index(max(cycles))]
                assert span.args["variant"] == straggler["variant"]
            if kv_tiering is not None:
                assert any(e.args.get("slow_bytes") for e in cluster)

    @staticmethod
    def _traced_run(tracer, revive=False):
        """Eight requests on a traced two-replica router with a cycle
        model; ``revive`` kills and revives replica 1 after one idle
        tick, so its step count restarts one behind the router's."""
        from repro.hw.serving import ServingSimulator
        from repro.model.config import get_model_config

        router = ClusterRouter(
            2, CFG, max_batch_size=4, capacity_tokens=1024, seed=5,
            tracer=tracer,
            cycle_sim=ServingSimulator(
                get_model_config("gpt2-medium"), 64, config=CFG
            ),
        )
        if revive:
            router.step()
            router.kill_replica(1)
            router.revive_replica(1)
        rng = np.random.default_rng(5)
        for _ in range(8):
            router.submit(synthetic_request(rng, 4, 64, 16, 4))
        router.run_until_drained()
        spans = [e for e in tracer.events if e.ph == "X"]
        modelled = [e for e in spans if e.name == "modelled_step"]
        return (
            spans,
            [e for e in modelled if e.process != "cluster"],
            [e for e in modelled if e.process == "cluster"],
        )

    def test_sampled_fleet_spans_after_a_revive(self):
        """A revived replica samples by its restarted step index, so
        under step sampling its spans fall on other ticks than its
        peer's.  Every replica ``modelled_step`` still has its
        ``engine_step`` twin, and each fleet span aggregates exactly the
        replica spans drawn under it."""
        from repro.obs import Tracer

        spans, replica, fleet = self._traced_run(
            Tracer(sample_steps=2), revive=True
        )
        steps = {(e.process, e.ts_s) for e in spans if e.name == "engine_step"}
        assert {e.process for e in replica} == {"r0", "r1+1"}
        assert all((e.process, e.ts_s) in steps for e in replica)
        assert fleet
        for span in fleet:
            drawn = [
                e.args["total_cycles"]
                for e in replica
                if span.ts_s <= e.ts_s <= span.ts_s + span.dur_s
            ]
            assert span.args["n_replicas"] == len(drawn)
            assert span.args["total_cycles"] == max(drawn)
            assert span.args["cluster_total_cycles"] == sum(drawn)
        assert sum(span.args["n_replicas"] for span in fleet) == len(replica)

    def test_each_drawn_replica_step_is_priced_once(self, monkeypatch):
        """The router is the one pricer: one ``price`` call per replica
        ``modelled_step``, none for steps the sampler skipped."""
        from repro.hw.serving import ServingSimulator
        from repro.obs import Tracer

        priced = []
        price = ServingSimulator.price

        def counting(self, report, *args, **kw):
            priced.append(report)
            return price(self, report, *args, **kw)

        monkeypatch.setattr(ServingSimulator, "price", counting)
        _, replica, fleet = self._traced_run(Tracer(sample_steps=2))
        assert replica and fleet
        assert len(priced) == len(replica)
        assert len({id(r) for r in priced}) == len(priced)


# ------------------------------------------------------ mid-prefill preemption
class TestMidPrefillPreemption:
    def _kept_and_outputs(self, engine, max_steps=100_000):
        out = {}
        for report in engine.run_until_drained(max_steps):
            for sid, view in report.per_sequence.items():
                out.setdefault(view.request_id, []).append(
                    (report.results[sid].kept, report.results[sid].outputs)
                )
        return out

    def test_forced_preempt_half_ingested_prompt_resumes_bit_identical(self):
        """Preempt a sequence whose prompt is half-ingested, resume it,
        and require bit-identical output vs uninterrupted monolithic
        prefill."""
        rng = np.random.default_rng(50)
        request, stream = _replayable_request(rng, prompt=48, max_new=6)
        clone = GenerationRequest(
            prompt_keys=request.prompt_keys.copy(),
            prompt_values=request.prompt_values.copy(),
            max_new_tokens=request.max_new_tokens,
            step_source=request.step_source,
        )
        engine = _optimistic_engine(
            capacity_tokens=512, prefill_budget_tokens=16
        )
        rid = engine.submit(request)
        engine.step()  # 16 of 48 prompt tokens ingested
        (seq_id,) = [
            e.seq_id for e in engine._active.values() if e.prefilling
        ]
        assert engine.pool.length(seq_id) == 16
        engine.preempt(seq_id)
        assert request.state is RequestState.PREEMPTED
        assert engine.n_preempted == 1
        kept = self._kept_and_outputs(engine)
        assert request.state is RequestState.FINISHED
        stats = engine.completed[0].stats
        assert stats.preemptions == 1
        assert stats.prefill_chunks >= 3  # resumed mid-prompt, kept chunking

        roomy = ServingEngine(CFG, max_batch_size=8, capacity_tokens=8192)
        ref_id = roomy.submit(clone)
        ref = self._kept_and_outputs(roomy)
        assert len(kept[rid]) == len(ref[ref_id]) == 6
        for (ka, oa), (kb, ob) in zip(kept[rid], ref[ref_id]):
            assert np.array_equal(ka, kb)
            assert np.array_equal(oa, ob)

    def test_victim_policy_accounts_for_prefilling_candidates(self):
        from repro.serving import VictimCandidate

        def cand(seq_id, mass, admitted, prefilling=False):
            return VictimCandidate(
                seq_id=seq_id,
                request_id=seq_id,
                retained_mass=mass,
                admitted_step=admitted,
                context_length=10,
                remaining_tokens=5,
                prefilling=prefilling,
            )

        policy = OptimisticMemory()
        # equal mass: the mid-prefill candidate is preferred even though
        # an equally fresh decoding candidate exists
        picked = policy.select_victim(
            [cand(1, 1.0, 5), cand(2, 1.0, 5, prefilling=True), cand(3, 1.0, 5)]
        )
        assert picked == 2
        # decode evidence still dominates: lower retained mass wins
        picked = policy.select_victim(
            [cand(1, 0.2, 0), cand(2, 1.0, 5, prefilling=True)]
        )
        assert picked == 1

    @settings(max_examples=6, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        capacity_blocks=st.integers(12, 20),
        budget=st.integers(8, 48),
    )
    def test_chunked_prefill_preemption_property_zero_divergence(
        self, seed, capacity_blocks, budget
    ):
        """Property: chunked prefill + optimistic preemption (including
        sequences preempted mid-prefill) never diverges from a roomy
        monolithic engine fed the same streams."""
        rng = np.random.default_rng(seed)
        pairs = [
            _replayable_request(
                rng, prompt=int(rng.integers(16, 48)), max_new=10
            )
            for _ in range(4)
        ]

        def kept_by_request(engine):
            out = {}
            for report in engine.run_until_drained():
                for sid, view in report.per_sequence.items():
                    out.setdefault(view.request_id, []).append(
                        report.results[sid].kept
                    )
            return out

        tight = _optimistic_engine(
            capacity_tokens=capacity_blocks * 16,
            prefill_budget_tokens=budget,
        )
        roomy = ServingEngine(
            CFG, max_batch_size=8, capacity_tokens=8192, seed=0
        )
        id_map = {}
        for request, _ in pairs:
            tight_id = tight.submit(request)
            clone = GenerationRequest(
                prompt_keys=request.prompt_keys.copy(),
                prompt_values=request.prompt_values.copy(),
                max_new_tokens=request.max_new_tokens,
                step_source=request.step_source,
            )
            id_map[tight_id] = roomy.submit(clone)
        tight_kept = kept_by_request(tight)
        roomy_kept = kept_by_request(roomy)
        for tight_id, roomy_id in id_map.items():
            a, b = tight_kept[tight_id], roomy_kept[roomy_id]
            assert len(a) == len(b)
            for ka, kb in zip(a, b):
                assert np.array_equal(ka, kb)


# ------------------------------------------------------------ zero-work edges
class TestZeroWorkEdges:
    def test_idle_cluster_drain_with_zero_steps_returns_empty(self):
        router = ClusterRouter(2, CFG)
        assert router.run_until_drained(max_steps=0) == []
        assert router.run_until_drained() == []

    def test_idle_engine_drain_with_zero_steps_returns_empty(self):
        engine = ServingEngine(CFG)
        assert engine.run_until_drained(max_steps=0) == []

    def test_zero_step_replica_summary_and_occupancy(self):
        """A replica that never stepped: occupancy 0.0, summary complete
        and JSON-serialisable (no inf kv_bit_reduction)."""
        import json

        router = ClusterRouter(2, CFG)
        assert router.mean_batch_occupancy(0) == 0.0
        assert router.mean_batch_occupancy(1) == 0.0
        summary = router.summary()
        json.dumps(summary, allow_nan=False)  # must not raise
        for rep in summary["per_replica"]:
            assert rep["kv_bit_reduction"] == 1.0
            assert rep["mean_batch_occupancy"] == 0.0
            assert rep["steps"] == 0

    def test_unknown_replica_id_is_a_value_error(self):
        router = ClusterRouter(2, CFG)
        with pytest.raises(ValueError, match="unknown replica"):
            router.mean_batch_occupancy(2)
        with pytest.raises(ValueError, match="unknown replica"):
            router.mean_batch_occupancy(-1)

    def test_one_busy_one_idle_replica_summary(self):
        """Mixed fleet: the idle replica's zero-traffic fields stay sane
        next to a busy peer's real numbers."""
        import json

        router = ClusterRouter(
            2, CFG, policy="round-robin", max_batch_size=4,
            capacity_tokens=1024, seed=0,
        )
        rng = np.random.default_rng(0)
        router.submit(synthetic_request(rng, 2, 24, 16, 3))  # replica 0
        router.run_until_drained()
        summary = router.summary()
        json.dumps(summary, allow_nan=False)
        busy, idle = summary["per_replica"]
        assert busy["requests_completed"] == 1
        assert busy["kv_bit_reduction"] > 1.0
        assert idle["requests_completed"] == 0
        assert idle["kv_bit_reduction"] == 1.0
        assert idle["mean_batch_occupancy"] == 0.0


class TestSplitLatencyHistograms:
    def test_queue_wait_and_prefill_histograms_recorded(self):
        """The TTFT histogram splits: queue wait + prefill are recorded
        per finished request from the split stamps, and TTFT still runs
        submit -> first decoded token."""
        router = ClusterRouter(
            1, CFG, max_batch_size=4, capacity_tokens=2048,
            prefill_budget_tokens=16, seed=3,
        )
        trace = bursty_trace(
            np.random.default_rng(3), 6, n_heads=2, head_dim=16,
            prompt_tokens=24, max_new_tokens=4, burst_size=3, gap_steps=1,
        )
        router.run_trace(trace)
        done = router.replicas[0].completed
        assert len(done) == 6
        ttft = router.metrics.histogram("ttft_seconds", replica=0)
        wait = router.metrics.histogram("queue_wait_seconds", replica=0)
        pre = router.metrics.histogram("prefill_seconds", replica=0)
        assert ttft.count == wait.count == pre.count == 6
        for c in done:
            assert c.stats.prefill_chunks >= 2  # 24-token prompts, 16/step
            assert c.stats.ttft_seconds == pytest.approx(
                c.stats.queue_wait_seconds + c.stats.prefill_seconds
            )
        assert (
            router.metrics.counter("prefill_tokens", replica=0).value
            == sum(c.stats.prompt_tokens for c in done)
        )


# ----------------------------------------- a one-replica router is an engine
ONE_REPLICA_CONFIGS = {
    "plain": {},
    "chunked_prefill": dict(prefill_budget_tokens=16),
    "tiered_prefix_cache": dict(kv_tiering=TierConfig(), prefix_cache=True),
    "sharded": dict(shards=2),
    "optimistic_preemption": dict(admission="optimistic", capacity_tokens=160),
}


class TestOneReplicaRouter:
    @pytest.mark.parametrize("name", sorted(ONE_REPLICA_CONFIGS))
    def test_bit_identical_to_a_bare_engine(self, name):
        """``ClusterRouter(1, ...)`` serves bit for bit like a bare
        ``ServingEngine`` with the same knobs — why the frontend and the
        CLI drive only the router: per-request K/V traffic and token
        counts, and every step's kept-token counts, match."""
        kw = dict(max_batch_size=4, capacity_tokens=2048, seed=0)
        kw.update(ONE_REPLICA_CONFIGS[name])
        admission = kw.pop("admission", "conservative")
        prefix_cache = kw.pop("prefix_cache", False)
        router = ClusterRouter(
            1, CFG, admission=admission, prefix_cache=prefix_cache, **kw
        )
        engine = ServingEngine(
            CFG,
            memory_manager=make_memory_manager(admission),
            prefix_cache=RadixKVCache(capacity_tokens=0) if prefix_cache else None,
            **kw,
        )

        def serve(submit, run):
            trace = shared_prefix_trace(
                np.random.default_rng(4), 8, n_heads=2, head_dim=16,
                prefix_tokens=24, suffix_tokens=8, max_new_tokens=8,
                n_groups=2,
            )
            for _, request in trace:
                submit(request)
            return [
                {v.request_id: v.kept_tokens for v in r.per_sequence.values()}
                for r in run()
            ]

        def traffic(completed):
            return sorted(
                (
                    done.request_id,
                    done.stats.counter.k_bits,
                    done.stats.counter.v_bits,
                    done.stats.generated_tokens,
                )
                for done in completed
            )

        via_router = serve(
            router.submit,
            lambda: [r.per_replica[0] for r in router.run_until_drained()],
        )
        bare = serve(engine.submit, engine.run_until_drained)
        replica = router.replicas[0]
        assert via_router == bare
        assert traffic(replica.completed) == traffic(engine.completed)
        assert len(engine.completed) == 8
        assert replica.preemptions_total == engine.preemptions_total
        if admission == "optimistic":
            assert engine.preemptions_total > 0, "pool never pressured"
        if prefix_cache:
            assert engine.prefix_cache.hit_rate > 0
