"""Stack construction and the timed drive loops.

The program under test receives only ``GenerationRequest`` objects whose
step sources replay pre-drawn tensors.  Arrivals are step-indexed:
request *i* is submitted before engine step ``arrival_step(i)``, an open
loop in step time with zero generator lateness by construction, so batch
composition, pruning decisions and every modelled number repeat exactly.
Everything runs in one process on one thread.

This module imports ``repro``; the set-up probe starts its clock before
importing it.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.cluster.router import ClusterRouter
from repro.core.config import TokenPickerConfig
from repro.kvstore.tiers import TierConfig
from repro.serving.engine import EngineStepReport, ServingEngine
from repro.serving.frontend import AsyncStreamingFrontend
from repro.serving.request import GenerationRequest, RequestState

from e2e_inputs import THRESHOLD, RequestInputs, WorkloadSpec

CONFIG = TokenPickerConfig(threshold=THRESHOLD)
#: headroom on the frozen quantisation scales; passed to every stack and
#: used again by the verifier when it requantises from first principles
SAFETY_FACTOR = 1.25

#: ``(replica id or None, engine request id)`` — how step reports name a
#: request; the drive maps it back to the workload's request index
RequestKey = Tuple[Optional[int], int]
#: called after every step with the stack and that step's
#: ``(replica, report)`` pairs
StepObserver = Callable[
    ["Stack", Sequence[Tuple[Optional[int], EngineStepReport]]], None
]


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (0.0 for no samples)."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    return ordered[max(1, int(-(-len(ordered) * q // 100))) - 1]


def make_request(inputs: RequestInputs, spec: WorkloadSpec) -> GenerationRequest:
    stream = inputs.stream
    return GenerationRequest(
        prompt_keys=inputs.prompt_keys,
        prompt_values=inputs.prompt_values,
        max_new_tokens=spec.new_tokens,
        queries=inputs.queries,
        step_source=stream.__getitem__,
    )


def build_engine(spec: WorkloadSpec) -> ServingEngine:
    return ServingEngine(
        CONFIG,
        max_batch_size=spec.max_batch_size,
        safety_factor=SAFETY_FACTOR,
        capacity_tokens=spec.capacity_tokens,
        prefill_budget_tokens=spec.prefill_budget,
    )


def build_router(spec: WorkloadSpec) -> ClusterRouter:
    return ClusterRouter(
        2,
        CONFIG,
        shards=2,
        admission="tiered",
        kv_tiering=TierConfig(),
        prefix_cache=True,
        prefill_budget_tokens=spec.prefill_budget,
        max_batch_size=spec.max_batch_size,
        safety_factor=SAFETY_FACTOR,
        capacity_tokens=spec.capacity_tokens,
    )


@dataclass
class Stack:
    """The constructed program plus the drive's request-key bookkeeping."""

    spec: WorkloadSpec
    engines: List[ServingEngine]
    router: Optional[ClusterRouter] = None
    frontend: Optional[AsyncStreamingFrontend] = None
    index_of: Dict[RequestKey, int] = field(default_factory=dict)
    streams: list = field(default_factory=list)


@dataclass
class RepeatStats:
    """Scalars of one drained repeat (no report is retained, so peak RSS
    measures the program, not the harness).  The trace is deterministic,
    so position *j* of ``segments_s`` and position *k* of ``itl_s[i]``
    name the same step and the same token gap in every repeat."""

    wall_s: float
    cpu_s: float
    steps: int
    tokens: int
    #: wall between consecutive step returns (the first from the start of
    #: the repeat), plus one closing segment; they sum to ``wall_s``
    segments_s: List[float]
    #: per request: gaps between its consecutive tokens
    itl_s: List[List[float]]
    #: per request: submit call to first decoded token
    ttft_s: List[float]
    #: request indices that did not end FINISHED with every token
    unfinished: List[int]


def _unfinished(stack: Stack, n_requests: int) -> List[int]:
    """Request indices not FINISHED with ``new_tokens`` outputs."""
    want = stack.spec.new_tokens
    done = set()
    replicas = [None] if stack.router is None else range(len(stack.engines))
    for replica, engine in zip(replicas, stack.engines):
        for record in engine.completed:
            if (
                record.state is RequestState.FINISHED
                and record.generated_tokens == want
            ):
                done.add(stack.index_of[(replica, record.request_id)])
    return [i for i in range(n_requests) if i not in done]


def drive_engine(
    spec: WorkloadSpec,
    requests: Sequence[RequestInputs],
    observer: Optional[StepObserver] = None,
) -> Tuple[RepeatStats, Stack]:
    """Fresh engine, replay the trace to drain.  The driver stamps each
    token after ``step()`` returns: TTFT runs from the submit call, an
    inter-token gap between a request's consecutive stamps (steps spent
    preempted included)."""
    n = len(requests)
    engine = build_engine(spec)
    stack = Stack(spec=spec, engines=[engine])
    submitted = [0.0] * n
    last = [0.0] * n
    segments: List[float] = []
    itl: List[List[float]] = [[] for _ in range(n)]
    ttft = [0.0] * n
    clock = time.perf_counter
    i = step = tokens = 0
    cpu0 = time.process_time()
    t0 = mark = clock()
    while i < n or engine.n_pending or engine.n_active or engine.n_preempted:
        while i < n and requests[i].arrival_step <= step:
            request = make_request(requests[i], spec)
            submitted[i] = clock()
            if engine.submit(request) != i:
                raise RuntimeError("engine request ids are not sequential")
            stack.index_of[(None, i)] = i
            i += 1
        report = engine.step()
        now = clock()
        segments.append(now - mark)
        mark = now
        step += 1
        for view in report.per_sequence.values():
            r = view.request_id
            if last[r]:
                itl[r].append(now - last[r])
            else:
                ttft[r] = now - submitted[r]
            last[r] = now
        tokens += report.tokens_generated
        if observer is not None:
            observer(stack, [(None, report)])
    end = clock()
    cpu = time.process_time() - cpu0
    segments.append(end - mark)
    return (
        RepeatStats(
            end - t0, cpu, step, tokens, segments, itl, ttft,
            _unfinished(stack, n),
        ),
        stack,
    )


def drive_cluster(
    spec: WorkloadSpec,
    requests: Sequence[RequestInputs],
    observer: Optional[StepObserver] = None,
    until_first_token: bool = False,
) -> Tuple[RepeatStats, Stack]:
    """Fresh frontend + router.  A driver coroutine submits request *i*
    once ``frontend.steps_run`` reaches its arrival step; the frontend's
    loop and the driver alternate through ``sleep(0)``, with no clock in
    the schedule, so the step at which each request enters repeats
    exactly.  One consumer per stream stamps tokens as they are received
    — the latency a streaming client sees."""
    n = len(requests)
    router = build_router(spec)
    stack = Stack(spec=spec, engines=router.replicas, router=router)
    inner_step = router.step
    stamps: List[float] = []
    clock = time.perf_counter

    def observed_step():
        report = inner_step()
        stamps.append(clock())
        if observer is not None:
            observer(stack, sorted(report.per_replica.items()))
        return report

    router.step = observed_step
    # the router names a request (replica, request id); catch that name
    # where the public submit returns it
    inner_submit = router.submit
    submitting = [0]

    def observed_submit(request):
        placed = inner_submit(request)
        stack.index_of[placed] = submitting[0]
        return placed

    router.submit = observed_submit
    submitted = [0.0] * n
    itl: List[List[float]] = [[] for _ in range(n)]
    ttft = [0.0] * n

    async def consume(index: int, stream) -> None:
        last = 0.0
        async for _ in stream:
            now = clock()
            if last:
                itl[index].append(now - last)
            else:
                ttft[index] = now - submitted[index]
                if until_first_token:
                    return
            last = now

    async def serve() -> AsyncStreamingFrontend:
        frontend = AsyncStreamingFrontend(router, slo=None)
        stack.frontend = frontend
        consumers = []
        async with frontend:
            i = 0
            while i < n:
                # an idle backend does not tick, so its step count cannot
                # reach the next arrival: submit at once in that case
                while i < n and (
                    requests[i].arrival_step <= frontend.steps_run
                    or not frontend.backend.busy
                ):
                    request = make_request(requests[i], spec)
                    submitting[0] = i
                    submitted[i] = clock()
                    stream = await frontend.submit(request)
                    stack.streams.append(stream)
                    consumers.append(
                        asyncio.ensure_future(consume(i, stream))
                    )
                    i += 1
                await asyncio.sleep(0)
            await asyncio.gather(*consumers)
            if until_first_token:
                for stream in stack.streams:
                    stream.cancel()
        return frontend

    cpu0 = time.process_time()
    t0 = clock()
    frontend = asyncio.run(serve())
    end = clock()
    cpu = time.process_time() - cpu0
    edges = [t0, *stamps, end]
    segments = [b - a for a, b in zip(edges, edges[1:])]
    tokens = sum(len(gaps) + 1 for gaps, first in zip(itl, ttft) if first)
    return (
        RepeatStats(
            end - t0, cpu, frontend.steps_run, tokens, segments, itl, ttft,
            _unfinished(stack, n),
        ),
        stack,
    )


def run_repeat(
    spec: WorkloadSpec,
    requests: Sequence[RequestInputs],
    observer: Optional[StepObserver] = None,
) -> Tuple[RepeatStats, Stack]:
    drive = drive_cluster if spec.stack == "cluster" else drive_engine
    return drive(spec, requests, observer)


def first_token(spec: WorkloadSpec, first: RequestInputs) -> None:
    """The set-up probe's body: build the stack, submit the workload's
    first request, run until its first decoded token."""
    if spec.stack == "cluster":
        drive_cluster(spec, [first], until_first_token=True)
        return
    engine = build_engine(spec)
    engine.submit(make_request(first, spec))
    while not engine.step().per_sequence:
        pass
