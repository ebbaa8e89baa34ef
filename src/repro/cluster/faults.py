"""Deterministic fault injection for the cluster: kills and revives.

A production fleet loses replicas; the property worth testing is that it
loses *nothing else*.  This module drives a
:class:`~repro.cluster.router.ClusterRouter` through a seeded schedule of
:class:`FaultEvent`\\ s — replica kills and revivals — and re-places
every in-flight request of a dead replica on the survivors with capped
exponential backoff.  A kill harvests the dead engine's
:class:`~repro.serving.engine.SequenceRecord`\\ s, and each record says
how it recovers:

* **requeue**: a record that was never admitted (``seq_id`` -1)
  resubmits untouched.
* **swap-resume**: a record swapped out of the dead arena (``swapped``
  set) holds a byte-exact host-memory copy; a survivor adopts it and
  decode continues from the exact token it stopped at.
* **re-prefill**: any other record was resident in the dead arena and
  lost its KV; its request resubmits from scratch.  Decode streams
  replay from the request's ``seed``, and per-sequence kernel results
  are independent of batch composition, so the re-run's outputs are
  **bit-identical** to a fault-free run — the property the hypothesis
  sweep in ``tests/test_faults.py`` pins.

Everything is deterministic: the schedule is a pure function of its
seed, events fire on router step indices (never wall-clock), and
injecting a fault never perturbs the engines' arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.cluster.router import ClusterRouter, ClusterStepReport
from repro.serving.engine import SequenceRecord
from repro.serving.request import CompletedRequest, GenerationRequest

FAULT_ACTIONS = ("kill", "revive")


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault, keyed to a router step index."""

    step: int
    action: str
    replica: int

    def __post_init__(self) -> None:
        if self.action not in FAULT_ACTIONS:
            raise ValueError(
                f"unknown action {self.action!r} (expected {FAULT_ACTIONS})"
            )
        if self.step < 0 or self.replica < 0:
            raise ValueError("step and replica must be >= 0")


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
) -> List[FaultEvent]:
    """A valid deterministic schedule: ``n_kills`` kill/revive pairs.

    Kill windows are strided ``revive_after + 2`` apart so at most one
    replica is ever dead at a time — the schedule can never strand the
    router with nothing routable, even on a 2-replica fleet.  Pure
    function of ``(seed, n_replicas, knobs)``.
    """
    if n_replicas < 2:
        raise ValueError("fault injection needs >= 2 replicas")
    if n_kills < 0 or revive_after < 1:
        raise ValueError("n_kills >= 0 and revive_after >= 1")
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
    return sorted(events, key=_event_order)


@dataclass
class _RetryItem:
    """One harvested record waiting out its backoff."""

    key: object
    due_step: int
    attempt: int
    rec: SequenceRecord

    @property
    def kind(self) -> str:
        """"swapped" (host copy: try swap-resume), "requeued" (never
        admitted) or "lost" (arena KV gone: re-prefill)."""
        if self.rec.swapped is not None:
            return "swapped"
        return "requeued" if self.rec.seq_id < 0 else "lost"


@dataclass
class FaultInjectorStats:
    """Roll-up of what the injector applied and how requests recovered."""

    kills: int = 0
    revives: int = 0
    retries: int = 0
    swap_resumes: int = 0
    re_prefills: int = 0
    requeues: int = 0
    backoff_deferrals: int = 0
    events_skipped: int = 0


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
        due = self.router.step_index + self._backoff(1)
        self._retry.extend(
            _RetryItem(
                self._pop_key(event.replica, rec.request.request_id),
                due, 1, rec,
            )
            for rec in harvest
        )

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
            kind, request = item.kind, item.rec.request
            try:
                if kind == "swapped":
                    rid, request_id, how = self.router.adopt_export(item.rec)
                    if how == "swap_resume":
                        self.stats.swap_resumes += 1
                    else:
                        self.stats.re_prefills += 1
                elif request.state.terminal:
                    continue  # cancelled while waiting out the backoff
                else:
                    rid, request_id = self.router.submit(request)
                    if kind == "requeued":
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
                    args={"replica": rid, "kind": kind, "step": now},
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
