"""Deterministic fault injection for the cluster: kills, revives, spikes.

A production fleet loses replicas; the property worth testing is that it
loses *nothing else*.  This module drives a
:class:`~repro.cluster.router.ClusterRouter` through a seeded schedule of
:class:`FaultEvent`\\ s — replica kills, revivals, and per-step modelled
latency spikes — and re-places every in-flight request of a dead replica
on the survivors with capped exponential backoff:

* **swap-resume**: a sequence that was swapped out of the dead arena has
  a byte-exact host-memory copy
  (:class:`~repro.serving.engine.PreemptedExport`); a survivor adopts it
  and decode continues from the exact token it stopped at.
* **re-prefill**: a sequence resident in the dead arena lost its KV; its
  request resubmits from scratch.  Decode streams replay from the
  request's ``seed``, and per-sequence kernel results are independent of
  batch composition, so the re-run's outputs are **bit-identical** to a
  fault-free run — the property the fault-recovery bench and the
  hypothesis sweep in ``tests/test_faults.py`` pin.

Everything is deterministic: the schedule is a pure function of its
seed, events fire on router step indices (never wall-clock), and latency
spikes are *modelled* seconds the benches price via
:func:`repro.hw.serving.step_seconds` on top of the step's priced
:class:`~repro.hw.serving.StepCost` — injecting a fault never perturbs
the engines' arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.cluster.router import ClusterRouter, ClusterStepReport
from repro.serving.engine import PreemptedExport
from repro.serving.request import CompletedRequest, GenerationRequest

FAULT_ACTIONS = ("kill", "revive", "spike")


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault, keyed to a router step index."""

    step: int
    action: str
    replica: int
    #: modelled latency penalty of a ``"spike"`` (seconds added to the
    #: replica's step when benches price it); 0 for kill/revive
    spike_seconds: float = 0.0

    def __post_init__(self) -> None:
        if self.action not in FAULT_ACTIONS:
            raise ValueError(
                f"unknown action {self.action!r} (expected {FAULT_ACTIONS})"
            )
        if self.step < 0 or self.replica < 0:
            raise ValueError("step and replica must be >= 0")
        if self.action == "spike" and self.spike_seconds <= 0:
            raise ValueError("a spike needs spike_seconds > 0")


def _event_order(event: FaultEvent) -> Tuple[int, int, int]:
    # revives before kills within a step, so a schedule may revive one
    # replica and kill another on the same tick without going unroutable
    return (event.step, 0 if event.action == "revive" else 1, event.replica)


def fault_schedule(
    seed: int,
    n_replicas: int,
    *,
    n_kills: int = 2,
    revive_after: int = 6,
    first_kill_step: int = 2,
    n_spikes: int = 2,
    spike_seconds: float = 4e-3,
    spike_span: int = 32,
) -> List[FaultEvent]:
    """A valid deterministic schedule: ``n_kills`` kill/revive pairs plus
    ``n_spikes`` latency spikes.

    Kill windows are strided ``revive_after + 2`` apart so at most one
    replica is ever dead at a time — the schedule can never strand the
    router with nothing routable, even on a 2-replica fleet.  Pure
    function of ``(seed, n_replicas, knobs)``.
    """
    if n_replicas < 2:
        raise ValueError("fault injection needs >= 2 replicas")
    if n_kills < 0 or n_spikes < 0 or revive_after < 1:
        raise ValueError("n_kills/n_spikes >= 0 and revive_after >= 1")
    rng = np.random.default_rng([seed, n_replicas, n_kills])
    events: List[FaultEvent] = []
    stride = revive_after + 2
    dead_until: Dict[int, int] = {}
    for j in range(n_kills):
        step = first_kill_step + j * stride + int(rng.integers(0, 2))
        alive = [
            r for r in range(n_replicas) if dead_until.get(r, -1) <= step
        ]
        replica = int(alive[int(rng.integers(len(alive)))])
        events.append(FaultEvent(step=step, action="kill", replica=replica))
        events.append(
            FaultEvent(
                step=step + revive_after, action="revive", replica=replica
            )
        )
        dead_until[replica] = step + revive_after
    for _ in range(n_spikes):
        events.append(
            FaultEvent(
                step=int(rng.integers(1, max(spike_span, 2))),
                action="spike",
                replica=int(rng.integers(n_replicas)),
                spike_seconds=spike_seconds,
            )
        )
    return sorted(events, key=_event_order)


@dataclass
class _RetryItem:
    """One harvested request waiting out its backoff."""

    key: object
    due_step: int
    attempt: int
    #: "requeued" (never prefilled), "lost" (arena KV gone, must
    #: re-prefill) or "swapped" (host copy available, try swap-resume)
    kind: str = "requeued"
    request: Optional[GenerationRequest] = None
    export: Optional[PreemptedExport] = None


@dataclass
class FaultInjectorStats:
    """Roll-up the fault-recovery bench records."""

    kills: int = 0
    revives: int = 0
    spikes: int = 0
    retries: int = 0
    swap_resumes: int = 0
    re_prefills: int = 0
    requeues: int = 0
    backoff_deferrals: int = 0
    events_skipped: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "kills": self.kills,
            "revives": self.revives,
            "spikes": self.spikes,
            "retries": self.retries,
            "swap_resumes": self.swap_resumes,
            "re_prefills": self.re_prefills,
            "requeues": self.requeues,
            "backoff_deferrals": self.backoff_deferrals,
            "events_skipped": self.events_skipped,
        }


class FaultInjector:
    """Drives a router through a fault schedule with tracked recovery.

    Wrap every submission in :meth:`submit` (or use :meth:`run_trace`)
    so the injector can follow each request across replicas: requests
    keep a caller-chosen stable ``key`` even as kills move them, and
    their terminal :class:`CompletedRequest` records land in
    :attr:`outputs` keyed by it — the mapping the bit-identity
    comparison needs, since per-replica request ids are reassigned on
    every resubmission.
    """

    def __init__(
        self,
        router: ClusterRouter,
        schedule: Sequence[FaultEvent],
        *,
        retry_base_steps: int = 1,
        retry_cap_steps: int = 8,
    ) -> None:
        if retry_base_steps < 1 or retry_cap_steps < retry_base_steps:
            raise ValueError(
                "need retry_cap_steps >= retry_base_steps >= 1"
            )
        self.router = router
        self.schedule = sorted(schedule, key=_event_order)
        self.retry_base_steps = retry_base_steps
        self.retry_cap_steps = retry_cap_steps
        self.stats = FaultInjectorStats()
        self.outputs: Dict[object, CompletedRequest] = {}
        self._next_event = 0
        self._retry: List[_RetryItem] = []
        self._keys: Dict[Tuple[int, int], object] = {}  # (rid, req) -> key
        self._spikes: Dict[Tuple[int, int], float] = {}
        self._auto_key = 0

    # ------------------------------------------------------------ submission
    def submit(
        self, request: GenerationRequest, key: Optional[object] = None
    ) -> Tuple[int, int]:
        """Route a request, remembering ``key`` across any failovers."""
        if key is None:
            key = ("auto", self._auto_key)
            self._auto_key += 1
        rid, request_id = self.router.submit(request)
        self._keys[(rid, request_id)] = key
        return rid, request_id

    def _backoff(self, attempt: int) -> int:
        return min(
            self.retry_base_steps * (2 ** (attempt - 1)),
            self.retry_cap_steps,
        )

    # ---------------------------------------------------------------- events
    def _apply(self, event: FaultEvent) -> None:
        if event.action == "spike":
            self._spikes[(event.step, event.replica)] = event.spike_seconds
            self.stats.spikes += 1
            if self.router.tracer:
                self.router.tracer.instant(
                    "cluster",
                    "faults",
                    "latency_spike",
                    args={
                        "replica": event.replica,
                        "step": event.step,
                        "spike_seconds": event.spike_seconds,
                    },
                )
            return
        if event.action == "revive":
            try:
                self.router.revive_replica(event.replica)
            except ValueError:
                self.stats.events_skipped += 1
                return
            self.stats.revives += 1
            return
        # kill: harvest the dead replica's in-flight requests and queue
        # them for resubmission after their backoff
        try:
            harvest = self.router.kill_replica(event.replica)
        except (ValueError, RuntimeError):
            self.stats.events_skipped += 1
            return
        self.stats.kills += 1
        now = self.router.step_index
        due = now + self._backoff(1)
        items: List[_RetryItem] = []
        for request in harvest.queued:
            items.append(
                _RetryItem(
                    key=self._pop_key(event.replica, request.request_id),
                    due_step=due,
                    attempt=1,
                    kind="requeued",
                    request=request,
                )
            )
        for export in harvest.swapped:
            items.append(
                _RetryItem(
                    key=self._pop_key(
                        event.replica, export.request.request_id
                    ),
                    due_step=due,
                    attempt=1,
                    kind="swapped",
                    export=export,
                )
            )
        for request in harvest.lost:
            items.append(
                _RetryItem(
                    key=self._pop_key(event.replica, request.request_id),
                    due_step=due,
                    attempt=1,
                    kind="lost",
                    request=request,
                )
            )
        self._retry.extend(items)

    def _pop_key(self, rid: int, request_id: Optional[int]) -> object:
        key = self._keys.pop((rid, request_id), None)
        if key is None:
            key = ("orphan", rid, request_id)
        return key

    def _drain_retries(self, now: int) -> None:
        still_waiting: List[_RetryItem] = []
        for item in self._retry:
            if item.due_step > now:
                still_waiting.append(item)
                continue
            try:
                if item.export is not None:
                    rid, request_id, how = self.router.adopt_export(
                        item.export
                    )
                    if how == "swap_resume":
                        self.stats.swap_resumes += 1
                    else:
                        self.stats.re_prefills += 1
                elif item.request.state.terminal:
                    continue  # cancelled while waiting out the backoff
                else:
                    rid, request_id = self.router.submit(item.request)
                    if item.kind == "requeued":
                        self.stats.requeues += 1
                    else:
                        self.stats.re_prefills += 1
            except RuntimeError:
                # nowhere to route yet: back off harder, capped
                item.attempt += 1
                item.due_step = now + self._backoff(item.attempt)
                self.stats.backoff_deferrals += 1
                still_waiting.append(item)
                continue
            self.stats.retries += 1
            self.router.metrics.counter("requests_retried").inc()
            if self.router.tracer:
                self.router.tracer.instant(
                    "cluster",
                    "faults",
                    "fault_retry",
                    args={"replica": rid, "kind": item.kind, "step": now},
                )
            self._keys[(rid, request_id)] = item.key
        self._retry = still_waiting

    def tick(self) -> None:
        """Apply every event due at the current router step, then retry
        harvested requests whose backoff has elapsed.  Call once before
        each :meth:`ClusterRouter.step` (or use :meth:`step`)."""
        now = self.router.step_index
        while (
            self._next_event < len(self.schedule)
            and self.schedule[self._next_event].step <= now
        ):
            event = self.schedule[self._next_event]
            self._next_event += 1
            self._apply(event)
        self._drain_retries(now)

    # ----------------------------------------------------------------- steps
    def step(self) -> ClusterStepReport:
        """One fault-aware cluster tick: events, retries, step, harvest
        of terminal records into :attr:`outputs`."""
        self.tick()
        report = self.router.step()
        for rid, engine_report in report.per_replica.items():
            for done in engine_report.retired:
                key = self._keys.pop((rid, done.request_id), None)
                if key is not None:
                    self.outputs[key] = done
        return report

    @property
    def pending_retries(self) -> int:
        return len(self._retry)

    def spike_seconds(self, step: int, replica: int) -> float:
        """Modelled latency penalty injected at ``(step, replica)``."""
        return self._spikes.get((step, replica), 0.0)

    def run_trace(
        self,
        trace: Sequence[Tuple[int, GenerationRequest]],
        max_steps: int = 100_000,
    ) -> List[ClusterStepReport]:
        """Drive an arrival trace under faults until everything resolves.

        Requests are keyed by their index in ``trace`` (the stable
        identity :attr:`outputs` uses), arrivals land before the step
        they are due, and the loop runs until the trace is exhausted,
        the router drains, *and* no harvested request is still waiting
        out a backoff.
        """
        order = sorted(
            range(len(trace)), key=lambda idx: (trace[idx][0], idx)
        )
        reports: List[ClusterStepReport] = []
        i = 0
        while (
            i < len(order) or self.router.busy or self._retry
        ) and len(reports) < max_steps:
            while (
                i < len(order)
                and trace[order[i]][0] <= self.router.step_index
            ):
                idx = order[i]
                self.submit(trace[idx][1], key=idx)
                i += 1
            reports.append(self.step())
        if i < len(order) or self.router.busy or self._retry:
            raise RuntimeError(
                f"faulted cluster not drained after {max_steps} steps"
            )
        return reports
