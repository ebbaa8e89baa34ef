"""Async streaming frontend: streams, deadlines, overload control.

Covers the :mod:`repro.serving.frontend` layer over a
:class:`~repro.cluster.router.ClusterRouter` (one replica unless a test
needs more): per-token streaming with ordered events, explicit
cancellation and wall-clock deadlines that release KV mid-flight (on
draining replicas too), SLO pricing from the router's hardware model,
the degrade-then-shed overload controller (threshold ladder, hysteresis,
retry-after shed errors) and the metrics counters the ``--profile`` flag
exports.
"""

import asyncio
import math

import numpy as np
import pytest

from repro.cluster import ClusterRouter, MetricsRegistry
from repro.core import TokenPickerConfig
from repro.hw.serving import ServingSimulator
from repro.model.config import get_model_config
from repro.obs import Tracer
from repro.serving import (
    AsyncStreamingFrontend,
    OverloadController,
    RequestState,
    SLOConfig,
    ShedError,
    synthetic_request,
)

N_HEADS, HEAD_DIM = 2, 8


def _router(n_replicas=1, **kw) -> ClusterRouter:
    kw.setdefault("admission", "conservative")
    kw.setdefault("max_batch_size", 4)
    kw.setdefault("capacity_tokens", 2048)
    kw.setdefault("seed", 3)
    return ClusterRouter(n_replicas, **kw)


def _sim() -> ServingSimulator:
    return ServingSimulator(
        get_model_config("gpt2-medium"), 64, config=TokenPickerConfig()
    )


def _request(rng, prompt=12, max_new=8):
    return synthetic_request(rng, N_HEADS, prompt, HEAD_DIM, max_new)


def _run(coro):
    return asyncio.run(coro)


class TestStreaming:
    def test_tokens_stream_in_order_then_terminal(self):
        async def scenario():
            rng = np.random.default_rng(0)
            frontend = AsyncStreamingFrontend(_router())
            async with frontend:
                stream = await frontend.submit(_request(rng, max_new=6))
                events = [event async for event in stream]
            return events, stream.result

        events, result = _run(scenario())
        assert [e.ordinal for e in events] == list(range(6))
        # context grows by one token per event
        lengths = [e.context_length for e in events]
        assert lengths == sorted(lengths)
        assert result.state == RequestState.FINISHED
        assert result.stats.generated_tokens == 6

    def test_concurrent_streams_complete(self):
        async def scenario():
            rng = np.random.default_rng(1)
            frontend = AsyncStreamingFrontend(_router(max_batch_size=2))
            async with frontend:
                streams = [
                    await frontend.submit(_request(rng, max_new=5))
                    for _ in range(5)
                ]
                results = [await s.drain() for s in streams]
            return results

        results = _run(scenario())
        assert len(results) == 5
        assert all(r.state == RequestState.FINISHED for r in results)
        assert all(r.stats.generated_tokens == 5 for r in results)

    def test_cluster_backend_streams(self):
        async def scenario():
            rng = np.random.default_rng(2)
            router = _router(2, max_batch_size=2, capacity_tokens=512, seed=5)
            frontend = AsyncStreamingFrontend(router)
            async with frontend:
                streams = [
                    await frontend.submit(_request(rng, max_new=4))
                    for _ in range(4)
                ]
                results = [await s.drain() for s in streams]
            return router, results

        router, results = _run(scenario())
        assert all(r.state == RequestState.FINISHED for r in results)
        assert router.summary()["requests_completed"] == 4


class TestCancellationAndDeadlines:
    def test_cancel_before_start_releases_and_reports(self):
        async def scenario():
            rng = np.random.default_rng(3)
            router = _router(max_batch_size=1)
            frontend = AsyncStreamingFrontend(router)
            keep = await frontend.submit(_request(rng, max_new=6))
            victim = await frontend.submit(_request(rng, max_new=6))
            victim.cancel()
            victim.cancel()  # idempotent once terminal
            frontend.start()
            done_keep = await keep.drain()
            done_victim = await victim.drain()
            await frontend.close()
            return router.replicas[0], frontend, done_keep, done_victim

        engine, frontend, done_keep, done_victim = _run(scenario())
        assert done_keep.state == RequestState.FINISHED
        assert done_victim.state == RequestState.CANCELLED
        assert done_victim.stats.generated_tokens == 0
        assert engine.pool.blocks_in_use == 0
        assert (
            frontend.registry.counter("requests_cancelled").value == 1
        )

    def test_deadline_times_out_and_frees(self):
        async def scenario():
            rng = np.random.default_rng(4)
            router = _router(max_batch_size=1)
            # a fake clock far past any deadline: expiry is deterministic
            frontend = AsyncStreamingFrontend(router, clock=lambda: 1e9)
            async with frontend:
                doomed = await frontend.submit(
                    _request(rng, max_new=64), deadline_ms=1.0
                )
                result = await doomed.drain()
            return router.replicas[0], frontend, result

        engine, frontend, result = _run(scenario())
        assert result.state == RequestState.TIMED_OUT
        assert engine.timed_out_total == 1
        assert engine.pool is None or engine.pool.blocks_in_use == 0
        assert (
            frontend.registry.counter("requests_timed_out").value == 1
        )

    def test_submit_after_close_raises(self):
        async def scenario():
            rng = np.random.default_rng(5)
            frontend = AsyncStreamingFrontend(_router())
            async with frontend:
                pass
            with pytest.raises(RuntimeError):
                await frontend.submit(_request(rng))

        _run(scenario())


class TestOverloadController:
    SLO = dict(
        p95_inter_token_ms=10.0,
        window_steps=4,
        degrade_factor=5.0,
        max_degrade_level=2,
        hysteresis_windows=2,
    )

    def test_degrades_then_sheds_then_recovers(self):
        controller = OverloadController(1e-3, SLOConfig(**self.SLO))
        hot, calm = 0.020, 0.002
        for step in range(12):  # 3 hot windows
            controller.observe_step(step, hot)
        assert controller.level == 2 and controller.shedding
        assert not controller.admit()
        assert controller.threshold == pytest.approx(1e-3 * 25)
        for step in range(12, 12 + 4 * 8):  # calm windows
            controller.observe_step(step, calm)
        assert controller.level == 0 and not controller.shedding
        assert controller.threshold == pytest.approx(1e-3)
        # shedding stopped before any rung unwound
        sheds = [s.shedding for s in controller.timeline]
        levels = [s.level for s in controller.timeline]
        assert sheds.index(False, sheds.index(True)) <= levels.index(
            1, levels.index(2)
        )

    def test_threshold_ladder_capped(self):
        slo = SLOConfig(max_threshold=0.05, **{
            k: v for k, v in self.SLO.items() if k != "p95_inter_token_ms"
        }, p95_inter_token_ms=10.0)
        controller = OverloadController(1e-2, slo)
        for step in range(8):
            controller.observe_step(step, 1.0)
        assert controller.level == 2
        assert controller.threshold == 0.05  # capped below 1e-2 * 25

    def test_hysteresis_requires_consecutive_calm(self):
        controller = OverloadController(1e-3, SLOConfig(**self.SLO))
        for step in range(4):
            controller.observe_step(step, 0.020)
        assert controller.level == 1
        # calm, then borderline (between recover and breach), then calm:
        # the borderline window resets the streak, so no recovery yet
        for step in range(4, 8):
            controller.observe_step(step, 0.002)
        for step in range(8, 12):
            controller.observe_step(step, 0.009)
        for step in range(12, 16):
            controller.observe_step(step, 0.002)
        assert controller.level == 1
        for step in range(16, 20):
            controller.observe_step(step, 0.002)
        assert controller.level == 0

    def test_empty_window_is_skipped_gracefully(self):
        controller = OverloadController(1e-3, SLOConfig(**self.SLO))
        sample = None
        for step in range(4):
            sample = controller.observe_step(step, 0.0)
        assert sample is not None
        assert not math.isnan(sample.p95_ms)

    def test_shed_error_carries_retry_hint(self):
        async def scenario():
            rng = np.random.default_rng(6)
            slo = SLOConfig(retry_after_steps=17, **self.SLO)
            frontend = AsyncStreamingFrontend(_router(), slo=slo)
            frontend.controller.shedding = True
            with pytest.raises(ShedError) as exc:
                await frontend.submit(_request(rng))
            assert exc.value.retry_after_steps == 17
            assert (
                frontend.registry.counter("requests_shed").value == 1
            )

        _run(scenario())

    def test_frontend_actuates_threshold(self):
        """A frontend with a hot synthetic cost model must tighten the
        engine's live keep threshold."""

        async def scenario():
            rng = np.random.default_rng(7)
            router = _router(max_batch_size=2)
            slo = SLOConfig(
                p95_inter_token_ms=1e-6,  # everything breaches
                window_steps=2,
                degrade_factor=5.0,
                max_degrade_level=2,
            )
            frontend = AsyncStreamingFrontend(router, slo=slo)
            async with frontend:
                streams = [
                    await frontend.submit(_request(rng, max_new=16))
                    for _ in range(3)
                ]
                for stream in streams:
                    try:
                        await stream.drain()
                    except ShedError:  # pragma: no cover
                        pass
            return router.replicas[0], frontend

        engine, frontend = _run(scenario())
        assert frontend.controller.level == 2
        assert engine.config.threshold == pytest.approx(1e-3 * 25)
        assert (
            frontend.registry.gauge("keep_threshold_degrade_level").value
            == 2
        )

    def test_registry_exports_all_counters(self):
        frontend = AsyncStreamingFrontend(
            _router(), slo=SLOConfig(), registry=MetricsRegistry()
        )
        snapshot = frontend.registry.snapshot()
        for name in (
            "requests_cancelled",
            "requests_timed_out",
            "requests_shed",
            "keep_threshold_degrade_level",
            "overload_shedding",
        ):
            assert name in snapshot, name

    def test_slo_config_validation(self):
        with pytest.raises(ValueError):
            SLOConfig(p95_inter_token_ms=0.0)
        with pytest.raises(ValueError):
            SLOConfig(degrade_factor=1.0)
        with pytest.raises(ValueError):
            SLOConfig(max_threshold=1.0)
        with pytest.raises(ValueError):
            SLOConfig(recover_ratio=0.0)
        with pytest.raises(ValueError):
            OverloadController(0.0, SLOConfig())
        # a cap below the base would lower the threshold with no breach
        with pytest.raises(ValueError, match="max_threshold"):
            OverloadController(0.3, SLOConfig(p95_inter_token_ms=1.0))


def _recorded_steps(router) -> list:
    """Wrap ``router.step`` on the instance (the frontend steps through
    it) and return the list its reports land in."""
    reports, step = [], router.step

    def recorded():
        reports.append(step())
        return reports[-1]

    router.step = recorded
    return reports


class TestRouterBackend:
    def test_idle_tick_costs_nothing(self):
        """The last live request times out just before a tick: that tick
        steps an idle fleet, which the router's hardware model cannot
        price (it used to raise "idle step"/"every replica is idle").
        It costs 0 s; every busy tick is the modelled fleet step."""
        sim = _sim()
        router = _router(cycle_sim=sim)
        reports = _recorded_steps(router)
        now = [0.0]

        async def scenario():
            rng = np.random.default_rng(8)
            frontend = AsyncStreamingFrontend(router, clock=lambda: now[0])
            async with frontend:
                stream = await frontend.submit(
                    _request(rng, max_new=64), deadline_ms=1.0
                )
                for _ in range(3):
                    await stream.__anext__()
                now[0] = 1e9  # past the deadline from here on
                result = await stream.drain()
            return frontend, result

        frontend, result = _run(scenario())
        assert result.state == RequestState.TIMED_OUT
        worked = [
            any(e.per_sequence or e.prefill_bits for e in r.per_replica.values())
            for r in reports
        ]
        assert not all(worked), "no idle tick; weak test"
        expected = sum(
            sim.price_fleet(r.per_replica.values()).seconds
            for r, did in zip(reports, worked)
            if did
        )
        assert expected > 0
        assert frontend.model_time_s == pytest.approx(expected, rel=1e-12)

    def test_deadlines_and_thresholds_reach_draining_replicas(self):
        """A drained replica still decodes its active sequences, so it
        must still expire their deadlines and run the degraded keep
        threshold (both used to skip every replica that was not live)."""
        router = _router(2, policy="round-robin", max_batch_size=2)
        now = [0.0]

        async def scenario():
            rng = np.random.default_rng(9)
            frontend = AsyncStreamingFrontend(router, clock=lambda: now[0])
            async with frontend:
                drained, live = [
                    await frontend.submit(
                        _request(rng, max_new=64), deadline_ms=1.0
                    )
                    for _ in range(2)
                ]
                await drained.__anext__()
                await live.__anext__()
                router.drain(0)
                now[0] = 1e9
                return await drained.drain(), await live.drain()

        on_drained, on_live = _run(scenario())
        assert router.replica_status(0) == "draining"
        assert on_drained.state == RequestState.TIMED_OUT
        assert on_live.state == RequestState.TIMED_OUT
        assert on_drained.stats.generated_tokens < 64
        router.set_threshold(0.05)
        assert [e.config.threshold for e in router.replicas] == [0.05, 0.05]

    def test_traced_fleet_prices_every_replica_step(self):
        """The router owns the one hardware model: every ``engine_step``
        that did work on r0/r1 has its ``modelled_step`` twin, each token
        event carries the modelled fleet step it came from, and the
        overload marks land on the router's tracer."""
        tracer, sim = Tracer(), _sim()
        router = _router(
            2, max_batch_size=2, capacity_tokens=512, tracer=tracer,
            cycle_sim=sim,
        )
        reports = _recorded_steps(router)
        slo = SLOConfig(p95_inter_token_ms=1e-6, window_steps=2)

        async def scenario():
            rng = np.random.default_rng(10)
            async with AsyncStreamingFrontend(router, slo=slo) as frontend:
                streams = [
                    await frontend.submit(_request(rng, max_new=4))
                    for _ in range(4)
                ]
                return [[e async for e in s] for s in streams]

        events = [e for stream in _run(scenario()) for e in stream]
        spans = [e for e in tracer.events if e.ph == "X"]
        worked = [
            (e.process, e.ts_s) for e in spans
            if e.name == "engine_step" and e.process in ("r0", "r1")
            and (e.args["tokens"] or e.args["prefill_tokens"])
        ]
        modelled = {
            (e.process, e.ts_s) for e in spans if e.name == "modelled_step"
        }
        assert {p for p, _ in worked} == {"r0", "r1"}
        assert all(key in modelled for key in worked)
        priced = {
            r.step_index: sim.price_fleet(r.per_replica.values()).seconds
            for r in reports
        }
        assert len(events) == 16
        assert all(e.step_seconds == priced[e.step_index] for e in events)
        marks = [e for e in tracer.events if e.name == "overload_window"]
        assert marks and all(e.process == "frontend" for e in marks)
