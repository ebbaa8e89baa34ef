"""Async streaming frontend: admission, deadlines, SLO-aware overload control.

The engine (:class:`~repro.serving.engine.ServingEngine`) is a
synchronous step loop; real serving is not.  This module puts an
``asyncio`` event-driven layer in front of it (or in front of a
:class:`~repro.cluster.router.ClusterRouter`):

* :meth:`AsyncStreamingFrontend.submit` accepts requests continuously
  and returns a :class:`RequestStream` — an async iterator that yields
  one :class:`TokenEvent` per generated token as the background step
  loop produces them, then ends with the request's terminal
  :class:`~repro.serving.request.CompletedRequest`.
* Each request may carry a **deadline**; the loop expires overdue
  requests before every step, releasing their KV (arena blocks, tier
  rows, radix refcounts) mid-flight — even mid-prefill.  Streams can
  also be **cancelled** explicitly, with the same byte-exact release.
* An :class:`OverloadController` watches the *modelled* p95 inter-token
  latency over fixed step windows.  When it breaches the SLO the
  controller first **degrades** — tightening the Token-Picker keep
  threshold one ladder rung at a time, trading a little certified
  attention mass for cheaper steps — and only once fully degraded does
  it **shed** new admissions (rejected with a retry-after hint).
  Recovery walks the same ladder down, gated by hysteresis so one calm
  window does not flap the policy.

The degradation actuator is the paper's own knob: a higher threshold
prunes more tokens under the same Eq. 5 certificate, so the quality
story stays bounded while DRAM traffic — and hence modelled step
latency — drops.  Everything the controller observes is modelled
(cycles at a fixed clock), so controller decisions are deterministic
and replayable; only the asyncio interleaving is wall-clock.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.cluster.metrics import Histogram, MetricsRegistry
from repro.obs.trace import NULL_TRACER
from repro.serving.engine import EngineStepReport, ServingEngine
from repro.serving.request import (
    CompletedRequest,
    GenerationRequest,
    RequestState,
)


class ShedError(RuntimeError):
    """Raised by :meth:`AsyncStreamingFrontend.submit` while shedding.

    Carries ``retry_after_steps`` — the client-visible hint for how many
    engine steps to back off before retrying.
    """

    def __init__(self, retry_after_steps: int) -> None:
        super().__init__(
            f"overloaded: shedding new admissions, retry after "
            f"~{retry_after_steps} steps"
        )
        self.retry_after_steps = retry_after_steps


@dataclass(frozen=True)
class SLOConfig:
    """Overload-control policy knobs.

    Attributes:
        p95_inter_token_ms: the SLO — modelled p95 inter-token latency
            (milliseconds) the controller defends.
        window_steps: control window length in engine steps; the
            controller acts once per window on that window's p95.
        degrade_factor: keep-threshold multiplier per degradation rung
            (level ``k`` runs at ``base * factor**k``, capped at
            ``max_threshold``).
        max_degrade_level: rungs available before shedding starts.
        max_threshold: hard cap on the degraded keep threshold (stays
            well inside the certificate's (0, 1) domain).
        recover_ratio: a window counts as *calm* when its p95 is below
            ``recover_ratio * p95_inter_token_ms``.
        hysteresis_windows: consecutive calm windows required per
            recovery step (shedding stops first, then rungs unwind).
        retry_after_steps: back-off hint attached to :class:`ShedError`.
    """

    p95_inter_token_ms: float = 40.0
    window_steps: int = 8
    degrade_factor: float = 5.0
    max_degrade_level: int = 3
    max_threshold: float = 0.2
    recover_ratio: float = 0.7
    hysteresis_windows: int = 2
    retry_after_steps: int = 8

    def __post_init__(self) -> None:
        if self.p95_inter_token_ms <= 0:
            raise ValueError("p95_inter_token_ms must be > 0")
        if self.window_steps < 1 or self.max_degrade_level < 0:
            raise ValueError(
                "window_steps must be >= 1 and max_degrade_level >= 0"
            )
        if self.degrade_factor <= 1.0:
            raise ValueError("degrade_factor must be > 1")
        if not 0.0 < self.max_threshold < 1.0:
            raise ValueError("max_threshold must be in (0, 1)")
        if not 0.0 < self.recover_ratio < 1.0:
            raise ValueError("recover_ratio must be in (0, 1)")
        if self.hysteresis_windows < 1 or self.retry_after_steps < 1:
            raise ValueError(
                "hysteresis_windows and retry_after_steps must be >= 1"
            )


@dataclass(frozen=True)
class ControlSample:
    """One control-window decision, for timelines and benches."""

    step: int
    p95_ms: float
    level: int
    shedding: bool


class OverloadController:
    """Degrade-then-shed policy over windowed modelled p95 latency.

    Feed it every step via :meth:`observe_step`; read the actuator via
    :attr:`threshold` (the keep threshold the engines should run) and
    :meth:`admit` (whether new requests may enter).  The full decision
    history lands in :attr:`timeline`.
    """

    def __init__(
        self,
        base_threshold: float,
        slo: SLOConfig,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        if not 0.0 < base_threshold < 1.0:
            raise ValueError("base_threshold must be in (0, 1)")
        self.base_threshold = base_threshold
        self.slo = slo
        self.registry = registry
        self.level = 0
        self.shedding = False
        self.timeline: List[ControlSample] = []
        self._window = Histogram()
        self._steps_in_window = 0
        self._calm_windows = 0
        self._set_gauge()

    def _set_gauge(self) -> None:
        if self.registry is not None:
            self.registry.gauge("keep_threshold_degrade_level").set(
                self.level
            )
            self.registry.gauge("overload_shedding").set(
                1.0 if self.shedding else 0.0
            )

    @property
    def threshold(self) -> float:
        """Keep threshold in force at the current degradation level."""
        return min(
            self.base_threshold * self.slo.degrade_factor**self.level,
            self.slo.max_threshold,
        )

    def admit(self) -> bool:
        return not self.shedding

    def observe_step(
        self, step_index: int, seconds: float, tokens: int = 1
    ) -> Optional[ControlSample]:
        """Record one step's modelled latency (weighted by the tokens it
        produced, approximating per-token latency); when this closes a
        control window, act and return the decision."""
        self._window.observe(seconds, n=max(1, tokens))
        self._steps_in_window += 1
        if self._steps_in_window < self.slo.window_steps:
            return None
        p95_ms = self._window.percentile(95.0) * 1e3
        breach = p95_ms > self.slo.p95_inter_token_ms
        calm = p95_ms < self.slo.recover_ratio * self.slo.p95_inter_token_ms
        if breach:
            self._calm_windows = 0
            if self.level < self.slo.max_degrade_level:
                self.level += 1
            else:
                self.shedding = True
        elif calm:
            self._calm_windows += 1
            if self._calm_windows >= self.slo.hysteresis_windows:
                self._calm_windows = 0
                if self.shedding:
                    self.shedding = False
                elif self.level > 0:
                    self.level -= 1
        else:
            self._calm_windows = 0
        self._window.reset()
        self._steps_in_window = 0
        self._set_gauge()
        sample = ControlSample(
            step=step_index,
            p95_ms=p95_ms,
            level=self.level,
            shedding=self.shedding,
        )
        self.timeline.append(sample)
        return sample


@dataclass(frozen=True)
class TokenEvent:
    """One streamed token: which request, which ordinal, at what cost."""

    request_id: int
    ordinal: int  # 0-based index of this generated token
    step_index: int
    context_length: int
    kept_tokens: int
    #: modelled seconds of the engine step that produced the token
    #: (0.0 when the frontend has no cost model attached)
    step_seconds: float = 0.0


class RequestStream:
    """Async view of one in-flight request.

    Iterate to receive :class:`TokenEvent`\\ s; iteration ends when the
    request reaches a terminal state, after which :attr:`result` holds
    the :class:`CompletedRequest` (its ``state`` distinguishes finished
    / cancelled / timed-out).  :meth:`cancel` aborts mid-flight — the
    engine releases the request's KV immediately, even mid-prefill.
    """

    def __init__(
        self, frontend: "AsyncStreamingFrontend", key, request_id: int
    ) -> None:
        self._frontend = frontend
        self._key = key
        self.request_id = request_id
        self.result: Optional[CompletedRequest] = None
        self._queue: asyncio.Queue = asyncio.Queue()

    def __aiter__(self) -> "RequestStream":
        return self

    async def __anext__(self) -> TokenEvent:
        if self.result is not None and self._queue.empty():
            raise StopAsyncIteration
        kind, payload = await self._queue.get()
        if kind == "end":
            raise StopAsyncIteration
        return payload

    @property
    def done(self) -> bool:
        return self.result is not None

    @property
    def state(self) -> Optional[RequestState]:
        return None if self.result is None else self.result.state

    def cancel(self) -> None:
        """Abort this request now (no-op if already terminal)."""
        if self.result is None:
            self._frontend._cancel(self._key)

    async def drain(self) -> CompletedRequest:
        """Consume remaining tokens and return the terminal record."""
        async for _ in self:
            pass
        assert self.result is not None
        return self.result

    # producer side (frontend only)
    def _push_token(self, event: TokenEvent) -> None:
        self._queue.put_nowait(("token", event))

    def _finish(self, done: CompletedRequest) -> None:
        self.result = done
        self._queue.put_nowait(("end", done))


class _EngineBackend:
    """Single-engine backend: stream keys are plain request ids."""

    def __init__(self, engine: ServingEngine) -> None:
        self.engine = engine

    @property
    def busy(self) -> bool:
        return (
            self.engine.n_pending
            + self.engine.n_active
            + self.engine.n_preempted
        ) > 0

    @property
    def base_threshold(self) -> float:
        return self.engine.config.threshold

    def submit(self, request: GenerationRequest):
        return self.engine.submit(request)

    def expire(self, now: Optional[float]):
        return [
            (done.request_id, done)
            for done in self.engine.expire_deadlines(now)
        ]

    def cancel(self, key) -> CompletedRequest:
        return self.engine.cancel(key)

    def set_threshold(self, threshold: float) -> None:
        self.engine.set_threshold(threshold)

    def note_degrade_level(self, level: int) -> None:
        pass  # one engine: no placement to bias

    def step(self) -> List[Tuple[object, EngineStepReport]]:
        return [(None, self.engine.step())]

    def stream_key(self, replica, request_id: int):
        return request_id

    def modelled_seconds(self, simulator, reports) -> float:
        return simulator.price(reports[0][1]).seconds


class _ClusterBackend:
    """Cluster backend: stream keys are ``(replica, request_id)``."""

    def __init__(self, router) -> None:
        self.router = router

    @property
    def busy(self) -> bool:
        return self.router.busy

    @property
    def base_threshold(self) -> float:
        return self.router.replicas[0].config.threshold

    def _live_engines(self):
        for rid, engine in enumerate(self.router.replicas):
            if self.router.replica_status(rid) == "live":
                yield rid, engine

    def submit(self, request: GenerationRequest):
        return self.router.submit(request)  # (rid, request_id)

    def expire(self, now: Optional[float]):
        out = []
        for rid, engine in self._live_engines():
            for done in engine.expire_deadlines(now):
                out.append(((rid, done.request_id), done))
        return out

    def cancel(self, key) -> CompletedRequest:
        rid, request_id = key
        return self.router.replicas[rid].cancel(request_id)

    def set_threshold(self, threshold: float) -> None:
        for _, engine in self._live_engines():
            engine.set_threshold(threshold)

    def note_degrade_level(self, level: int) -> None:
        # degraded replicas prune harder, so the router should treat
        # them as higher-capacity when placing new requests
        self.router.note_degrade_level(level)

    def step(self) -> List[Tuple[object, EngineStepReport]]:
        report = self.router.step()
        return sorted(report.per_replica.items())

    def stream_key(self, replica, request_id: int):
        return (replica, request_id)

    def modelled_seconds(self, simulator, reports) -> float:
        return simulator.price_fleet([r for _, r in reports]).seconds


class AsyncStreamingFrontend:
    """Event-driven serving loop over an engine or a cluster router.

    ``target`` is a :class:`ServingEngine` or a
    :class:`~repro.cluster.router.ClusterRouter` (detected by its
    ``replicas`` attribute).  Passing an :class:`SLOConfig` arms the
    overload controller; passing a
    :class:`~repro.hw.serving.ServingSimulator` gives the controller a
    deterministic modelled cost per step (otherwise it observes the
    engine's measured wall-clock phase seconds — fine interactively,
    not replayable).  ``clock`` overrides the deadline clock for tests.

    Use as::

        frontend = AsyncStreamingFrontend(engine, slo=SLOConfig())
        async with frontend:                # starts the step loop
            stream = await frontend.submit(request, deadline_ms=500)
            async for event in stream: ...
            done = stream.result
    """

    def __init__(
        self,
        target,
        *,
        slo: Optional[SLOConfig] = None,
        simulator=None,
        registry: Optional[MetricsRegistry] = None,
        clock: Optional[Callable[[], float]] = None,
        tracer=None,
    ) -> None:
        self.backend = (
            _ClusterBackend(target)
            if hasattr(target, "replicas")
            else _EngineBackend(target)
        )
        self.registry = registry if registry is not None else MetricsRegistry()
        # admission-control marks ("shed", overload windows) trace under
        # the "frontend" process; request/step spans come from the target
        # engine or router, which carries its own tracer reference
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.simulator = simulator
        # the frontend already owns a hardware model for SLO pricing —
        # when the target traces but has no cycle model of its own,
        # reuse it so step spans carry the dual-clock ``cycles`` track
        if (
            simulator is not None
            and getattr(target, "tracer", None)
            and getattr(target, "cycle_sim", None) is None
        ):
            target.cycle_sim = simulator
        self.clock = clock
        self.controller = (
            OverloadController(
                self.backend.base_threshold, slo, registry=self.registry
            )
            if slo is not None
            else None
        )
        self._streams: Dict[object, RequestStream] = {}
        self._token_counts: Dict[object, int] = {}
        self._wake = asyncio.Event()
        self._closed = False
        self._task: Optional[asyncio.Task] = None
        self.steps_run = 0
        self.model_time_s = 0.0
        for name in (
            "requests_cancelled",
            "requests_timed_out",
            "requests_shed",
            "requests_streamed",
        ):
            self.registry.counter(name)

    # -------------------------------------------------------------- lifecycle
    async def __aenter__(self) -> "AsyncStreamingFrontend":
        self.start()
        return self

    async def __aexit__(self, *exc) -> None:
        await self.close()

    def start(self) -> None:
        if self._task is None:
            self._task = asyncio.get_running_loop().create_task(self._run())

    async def close(self) -> None:
        """Let in-flight work drain, then stop the loop."""
        self._closed = True
        self._wake.set()
        if self._task is not None:
            await self._task
            self._task = None

    # -------------------------------------------------------------- admission
    async def submit(
        self,
        request: GenerationRequest,
        *,
        deadline_ms: Optional[float] = None,
    ) -> RequestStream:
        """Admit a request and return its token stream.

        Raises :class:`ShedError` while the overload controller sheds;
        the error carries the retry-after hint.  ``deadline_ms``
        overrides the request's own deadline field.
        """
        if self._closed:
            raise RuntimeError("frontend is closed")
        if self.controller is not None and not self.controller.admit():
            self.registry.counter("requests_shed").inc()
            if self.tracer:
                self.tracer.instant(
                    "frontend",
                    "control",
                    "shed",
                    args={
                        "level": self.controller.level,
                        "retry_after_steps":
                            self.controller.slo.retry_after_steps,
                    },
                )
            raise ShedError(self.controller.slo.retry_after_steps)
        if deadline_ms is not None:
            request.deadline_ms = deadline_ms
        placed = self.backend.submit(request)
        if isinstance(placed, tuple):
            key = self.backend.stream_key(placed[0], placed[1])
            request_id = placed[1]
        else:
            key = self.backend.stream_key(None, placed)
            request_id = placed
        stream = RequestStream(self, key, request_id)
        self._streams[key] = stream
        self._token_counts[key] = 0
        self._wake.set()
        return stream

    def _cancel(self, key) -> None:
        done = self.backend.cancel(key)
        self.registry.counter("requests_cancelled").inc()
        self._finish(key, done)

    def _finish(self, key, done: CompletedRequest) -> None:
        stream = self._streams.pop(key, None)
        self._token_counts.pop(key, None)
        if stream is not None:
            stream._finish(done)

    # -------------------------------------------------------------- step loop
    def _now(self) -> Optional[float]:
        return self.clock() if self.clock is not None else None

    def _step_once(self) -> None:
        """One synchronous frontend tick: expire, step, stream, control."""
        for key, done in self.backend.expire(self._now()):
            self.registry.counter("requests_timed_out").inc()
            self._finish(key, done)
        reports = self.backend.step()
        self.steps_run += 1
        seconds = 0.0
        if self.simulator is not None:
            seconds = self.backend.modelled_seconds(self.simulator, reports)
        else:
            seconds = sum(
                sum(r.phase_seconds.values()) for _, r in reports
            )
        self.model_time_s += seconds
        tokens = 0
        for replica, report in reports:
            for view in report.per_sequence.values():
                if view.request_id is None:
                    continue
                key = self.backend.stream_key(replica, view.request_id)
                stream = self._streams.get(key)
                if stream is None:
                    continue
                ordinal = self._token_counts.get(key, 0)
                self._token_counts[key] = ordinal + 1
                tokens += 1
                stream._push_token(
                    TokenEvent(
                        request_id=view.request_id,
                        ordinal=ordinal,
                        step_index=report.step_index,
                        context_length=view.context_length,
                        kept_tokens=view.kept_tokens,
                        step_seconds=seconds,
                    )
                )
                self.registry.counter("requests_streamed").inc()
            for done in report.retired:
                key = self.backend.stream_key(replica, done.request_id)
                self._finish(key, done)
        if self.controller is not None:
            sample = self.controller.observe_step(
                self.steps_run, seconds, tokens=tokens
            )
            if sample is not None and self.tracer:
                self.tracer.instant(
                    "frontend",
                    "control",
                    "overload_window",
                    args={
                        "step": sample.step,
                        "p95_ms": sample.p95_ms,
                        "level": sample.level,
                        "shedding": sample.shedding,
                        "threshold": self.controller.threshold,
                    },
                )
            self.backend.set_threshold(self.controller.threshold)
            self.backend.note_degrade_level(self.controller.level)

    async def _run(self) -> None:
        while True:
            if not self.backend.busy:
                if self._closed:
                    break
                self._wake.clear()
                try:
                    await asyncio.wait_for(self._wake.wait(), timeout=0.05)
                except asyncio.TimeoutError:
                    pass
                continue
            self._step_once()
            # hand the loop back so submitters/consumers interleave
            await asyncio.sleep(0)
        # terminal: fail any stream still open (should be none)
        for key in list(self._streams):
            stream = self._streams.pop(key)
            if stream.result is None and stream._queue.empty():
                stream._queue.put_nowait(("end", None))


def run_frontend(coro):
    """Tiny helper: run an async frontend scenario from sync code."""
    return asyncio.run(coro)
