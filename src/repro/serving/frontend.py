"""Async streaming frontend: admission, deadlines, SLO-aware overload control.

The serving stack — a :class:`~repro.cluster.router.ClusterRouter` of
one or more :class:`~repro.serving.engine.ServingEngine` replicas — is a
synchronous step loop; real serving is not.  This module puts an
``asyncio`` event-driven layer in front of the router:

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
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.cluster.metrics import Histogram, MetricsRegistry
from repro.obs.trace import PHASE_ORDER
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
            well inside the certificate's (0, 1) domain); at least the
            controller's base threshold.
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
        if slo.max_threshold < base_threshold:
            # the cap would *lower* the threshold at level 0 and turn
            # every degrade rung into a no-op
            raise ValueError(
                f"slo.max_threshold ({slo.max_threshold}) must be >= "
                f"base_threshold ({base_threshold})"
            )
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
    #: modelled seconds of the fleet step that produced the token (the
    #: engines' measured phase seconds when the router has no
    #: ``cycle_sim``)
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
        self, frontend: "AsyncStreamingFrontend", key: Tuple[int, int]
    ) -> None:
        self._frontend = frontend
        self._key = key  # (replica, request_id)
        self.request_id = key[1]
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


class AsyncStreamingFrontend:
    """Event-driven serving loop over a cluster router.

    ``router`` is a :class:`~repro.cluster.router.ClusterRouter` (one
    replica serves like a bare engine, bit for bit), held as
    :attr:`backend`; stream keys are its ``(replica, request_id)``
    placements.  Passing an :class:`SLOConfig` arms the overload
    controller.  The controller prices each step with the router's
    ``cycle_sim`` (a :class:`~repro.hw.serving.ServingSimulator`: a
    deterministic modelled fleet cost, 0 s for an idle tick); without
    one it observes the engines' measured wall-clock phase seconds —
    fine interactively, not replayable.  Control marks go to the
    router's tracer.  ``clock`` overrides the deadline clock for tests.

    Use as::

        frontend = AsyncStreamingFrontend(router, slo=SLOConfig())
        async with frontend:                # starts the step loop
            stream = await frontend.submit(request, deadline_ms=500)
            async for event in stream: ...
            done = stream.result
    """

    def __init__(
        self,
        router,
        *,
        slo: Optional[SLOConfig] = None,
        registry: Optional[MetricsRegistry] = None,
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        # submit/step are looked up on the instance every call, so a
        # caller may wrap them there to observe placements and reports
        self.backend = router
        self.registry = registry if registry is not None else MetricsRegistry()
        self.clock = clock
        self.controller = (
            OverloadController(
                router.replicas[0].config.threshold, slo, registry=self.registry
            )
            if slo is not None
            else None
        )
        self._streams: Dict[Tuple[int, int], RequestStream] = {}
        self._token_counts: Dict[Tuple[int, int], int] = {}
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
            tracer = self.backend.tracer
            if tracer:
                tracer.instant(
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
        key = self.backend.submit(request)
        stream = RequestStream(self, key)
        self._streams[key] = stream
        self._token_counts[key] = 0
        self._wake.set()
        return stream

    def _cancel(self, key: Tuple[int, int]) -> None:
        done = self.backend.cancel(*key)
        self.registry.counter("requests_cancelled").inc()
        self._finish(key, done)

    def _finish(self, key: Tuple[int, int], done: CompletedRequest) -> None:
        stream = self._streams.pop(key, None)
        self._token_counts.pop(key, None)
        if stream is not None:
            stream._finish(done)

    # -------------------------------------------------------------- step loop
    def _now(self) -> Optional[float]:
        return self.clock() if self.clock is not None else None

    def _seconds(self, reports) -> float:
        """The step's cost as the controller sees it: the modelled fleet
        step when the router holds a hardware model (an idle tick — every
        request expired or cancelled — costs 0 s), else measured
        wall-clock phase seconds."""
        sim = self.backend.cycle_sim
        if sim is None:
            return sum(
                r.phase_seconds.get(phase, 0.0)
                for r in reports
                for phase in PHASE_ORDER
            )
        if not any(r.per_sequence or r.prefill_bits for r in reports):
            return 0.0
        return sim.price_fleet(reports).seconds

    def _step_once(self) -> None:
        """One synchronous frontend tick: expire, step, stream, control."""
        for replica, done in self.backend.expire_deadlines(self._now()):
            self.registry.counter("requests_timed_out").inc()
            self._finish((replica, done.request_id), done)
        per_replica = self.backend.step().per_replica
        self.steps_run += 1
        seconds = self._seconds(per_replica.values())
        self.model_time_s += seconds
        tokens = 0
        for replica, report in per_replica.items():
            for view in report.per_sequence.values():
                if view.request_id is None:
                    continue
                key = (replica, view.request_id)
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
                self._finish((replica, done.request_id), done)
        if self.controller is not None:
            sample = self.controller.observe_step(
                self.steps_run, seconds, tokens=tokens
            )
            tracer = self.backend.tracer
            if sample is not None and tracer:
                tracer.instant(
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
