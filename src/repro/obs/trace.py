"""Request- and engine-scoped tracing: the repo's span substrate.

A :class:`Tracer` records **spans** (named intervals on a ``(process,
thread)`` track) and **instants** (point events) with ``time.perf_counter``
timestamps, then exports two artifacts from the same event list:

* Chrome/Perfetto **trace-event JSON** (:meth:`Tracer.to_trace_events` /
  :meth:`Tracer.write_trace`): ``{"traceEvents": [...]}`` with complete
  ("X") events in microseconds — drop the file into https://ui.perfetto.dev
  or ``chrome://tracing`` and the serving timeline renders per replica
  (process) and per request (thread).
* a **JSONL span log** (:meth:`Tracer.write_span_log`): one JSON object
  per event with exact float *seconds*, the lossless form
  :mod:`repro.obs.analyze` prefers.

Track convention: ``process`` is the engine's trace label (``"engine"``
standalone, ``"r0"``/``"r1"``... under a cluster router, ``"cluster"``
for router-level marks, ``"frontend"`` for admission control); ``thread``
is ``"req<id>"`` for request lifecycles, ``"steps"``/``"phases"`` for
engine step spans, and short literals (``"router"``, ``"faults"``,
``"control"``) for operational marks.

Spans on a track are opened with :meth:`begin` and closed with
:meth:`end` (innermost-matching by name) or :meth:`close_track` (closes
everything still open — the terminal-transition path: finish, cancel,
export, harvest).  The tracer enforces exactly-once closure: a second
``end`` or an ``end`` without a ``begin`` lands in :attr:`errors`
instead of emitting a bogus event, and :attr:`open_span_count` must be 0
after a drained run — the invariants the trace-integrity tests pin.

When tracing is off, every instrumentation site holds the
:data:`NULL_TRACER` singleton, whose ``__bool__`` is ``False`` — the hot
loop pays one truthiness check and nothing else.

Where closed spans *go* is pluggable (:mod:`repro.obs.sinks`): the
default :class:`~repro.obs.sinks.BufferedSink` keeps the in-memory event
list the exporters read; a :class:`~repro.obs.sinks.JsonlStreamingSink`
writes each event to the span log the moment it closes, so a long run's
resident tracer state is bounded by the *open* span count
(:attr:`Tracer.peak_open_spans` records the high-water mark).
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.obs.sinks import BufferedSink, SpanSink, span_record

__all__ = [
    "TraceEvent",
    "Tracer",
    "NULL_TRACER",
    "span_records_to_perfetto",
]

#: layout order of an engine step's phase child spans (score sub-phases
#: nest inside "score")
_PHASE_ORDER = ("pack", "score", "prune", "unpack")
_SCORE_SUBPHASES = ("score_chunk0", "score_refine")


@dataclass
class TraceEvent:
    """One recorded event, timestamps in exact float seconds."""

    name: str
    cat: str
    ph: str  # "X" complete span, "i" instant
    process: str
    thread: str
    ts_s: float
    dur_s: float = 0.0
    args: Optional[Dict[str, object]] = None


class _NullTracer:
    """Falsy no-op stand-in installed when tracing is disabled.

    Instrumentation sites guard with ``if self.tracer:`` so the disabled
    path never builds an args dict or takes a timestamp; the methods
    exist only so unguarded calls cannot crash.
    """

    enabled = False
    sample_steps = 0

    def __bool__(self) -> bool:
        return False

    def want_step(self, step_index: int) -> bool:
        return False

    def begin(self, *a, **kw) -> None:
        pass

    def end(self, *a, **kw) -> None:
        pass

    def instant(self, *a, **kw) -> None:
        pass

    def complete(self, *a, **kw) -> None:
        pass

    def close_track(self, *a, **kw) -> None:
        pass

    def step_span(self, *a, **kw) -> None:
        pass

    def cycle_span(self, *a, **kw) -> None:
        pass

    def close(self) -> None:
        pass


NULL_TRACER = _NullTracer()


class Tracer:
    """In-memory span recorder with Perfetto and JSONL exporters.

    ``sample_steps=k`` keeps every *k*-th engine step span (request
    lifecycle spans and instants are always recorded) — the middle rung
    the trace-overhead bench prices between "off" and "full".
    """

    enabled = True

    def __init__(
        self, *, sample_steps: int = 1, sink: Optional[SpanSink] = None
    ) -> None:
        if sample_steps < 1:
            raise ValueError(f"sample_steps must be >= 1, got {sample_steps}")
        self.sample_steps = sample_steps
        #: where closed spans go; the default buffers in memory and the
        #: exporters below read it back through :attr:`events`
        self.sink: SpanSink = sink if sink is not None else BufferedSink()
        #: still-open spans per (process, thread): [name, cat, ts, args]
        self._open: Dict[Tuple[str, str], List[list]] = {}
        #: high-water mark of simultaneously open spans — with a
        #: streaming sink this bounds the tracer's resident state
        self.peak_open_spans = 0
        #: begin/end imbalance reports (must stay empty on a sound run)
        self.errors: List[str] = []

    def __bool__(self) -> bool:
        return True

    @property
    def events(self) -> List[TraceEvent]:
        """The in-memory event list (buffered sinks only)."""
        events = self.sink.buffered_events()
        if events is None:
            raise AttributeError(
                "this tracer streams spans to disk and keeps no in-memory "
                "event list; read the span log back with "
                "repro.obs.analyze.load_events instead"
            )
        return events

    def close(self) -> None:
        """Flush and close the sink (a no-op for buffered sinks)."""
        self.sink.close()

    # ------------------------------------------------------------- recording
    def want_step(self, step_index: int) -> bool:
        """Whether this step's engine step span should be recorded."""
        return step_index % self.sample_steps == 0

    @property
    def open_span_count(self) -> int:
        return sum(len(stack) for stack in self._open.values())

    def open_spans(self) -> List[Tuple[str, str, str]]:
        """``(process, thread, name)`` of every span still open."""
        return [
            (track[0], track[1], span[0])
            for track, stack in self._open.items()
            for span in stack
        ]

    def begin(
        self,
        process: str,
        thread: str,
        name: str,
        *,
        cat: str = "request",
        ts: Optional[float] = None,
        args: Optional[Dict[str, object]] = None,
    ) -> None:
        ts = time.perf_counter() if ts is None else ts
        self._open.setdefault((process, thread), []).append(
            [name, cat, ts, dict(args) if args else {}]
        )
        open_count = self.open_span_count
        if open_count > self.peak_open_spans:
            self.peak_open_spans = open_count
        self.sink.on_begin(process, thread, name, cat, ts)

    def end(
        self,
        process: str,
        thread: str,
        name: str,
        *,
        ts: Optional[float] = None,
        args: Optional[Dict[str, object]] = None,
    ) -> None:
        """Close the innermost open span named ``name`` on the track.

        Any deeper spans still open above it are closed at the same
        timestamp *and reported in* :attr:`errors` — nesting survives,
        but the imbalance is never silent.
        """
        ts = time.perf_counter() if ts is None else ts
        stack = self._open.get((process, thread))
        index = None
        if stack:
            for i in range(len(stack) - 1, -1, -1):
                if stack[i][0] == name:
                    index = i
                    break
        if index is None:
            self.errors.append(
                f"end without begin: {process}/{thread}/{name}"
            )
            return
        while len(stack) - 1 > index:
            inner = stack.pop()
            self.errors.append(
                f"implicitly closed {process}/{thread}/{inner[0]} "
                f"(end of enclosing {name!r})"
            )
            self._emit(process, thread, inner, ts)
        span = stack.pop()
        if args:
            span[3].update(args)
        self._emit(process, thread, span, ts)
        if not stack:
            del self._open[(process, thread)]

    def close_track(
        self,
        process: str,
        thread: str,
        *,
        ts: Optional[float] = None,
        args: Optional[Dict[str, object]] = None,
    ) -> None:
        """Close every open span on a track, innermost first.

        The terminal-transition path (retire / cancel / export /
        harvest): ``args`` lands on the *outermost* span — the request
        span carries its end state.  A no-op on an already-closed track,
        so terminal transitions cannot double-close.
        """
        stack = self._open.pop((process, thread), None)
        if not stack:
            return
        ts = time.perf_counter() if ts is None else ts
        while stack:
            span = stack.pop()
            if not stack and args:
                span[3].update(args)
            self._emit(process, thread, span, ts)

    def instant(
        self,
        process: str,
        thread: str,
        name: str,
        *,
        cat: str = "mark",
        ts: Optional[float] = None,
        args: Optional[Dict[str, object]] = None,
    ) -> None:
        ts = time.perf_counter() if ts is None else ts
        self.sink.emit(
            TraceEvent(
                name=name,
                cat=cat,
                ph="i",
                process=process,
                thread=thread,
                ts_s=ts,
                args=dict(args) if args else None,
            )
        )

    def complete(
        self,
        process: str,
        thread: str,
        name: str,
        *,
        ts: float,
        dur: float,
        cat: str = "phase",
        args: Optional[Dict[str, object]] = None,
    ) -> None:
        """Record a pre-measured span (no open/close bookkeeping)."""
        self.sink.emit(
            TraceEvent(
                name=name,
                cat=cat,
                ph="X",
                process=process,
                thread=thread,
                ts_s=ts,
                dur_s=max(dur, 0.0),
                args=dict(args) if args else None,
            )
        )

    def step_span(
        self,
        process: str,
        ts: float,
        dur: float,
        args: Dict[str, object],
        phase_seconds: Optional[Dict[str, float]] = None,
        cycle: Optional[Dict[str, object]] = None,
    ) -> None:
        """One engine step: an ``engine_step`` span on the ``steps``
        track plus its phase breakdown laid out sequentially on the
        sibling ``phases`` track (pack → score → prune → unpack, with the
        score sub-phases nested inside "score").  Phases are
        *measured* durations placed end to end from the step's start —
        their sum can differ from the step's wall time by the unmeasured
        gaps between phases, so they live on their own track rather than
        pretending to tile the step span exactly.

        ``cycle`` (a :meth:`repro.hw.serving.StepCost.span_payload`
        dict) additionally projects the step's *modelled* hardware cost
        onto the sibling ``cycles`` track via :meth:`cycle_span` — the
        dual-clock timeline."""
        self.complete(
            process, "steps", "engine_step", ts=ts, dur=dur, cat="step",
            args=args,
        )
        if cycle is not None:
            self.cycle_span(process, ts=ts, dur=dur, payload=cycle)
        if not phase_seconds:
            return
        cursor = ts
        for phase in _PHASE_ORDER:
            seconds = phase_seconds.get(phase)
            if seconds is None:
                continue
            seconds = max(float(seconds), 0.0)
            self.complete(process, "phases", phase, ts=cursor, dur=seconds)
            if phase == "score":
                sub_cursor = cursor
                score_end = cursor + seconds
                for sub in _SCORE_SUBPHASES:
                    sub_seconds = phase_seconds.get(sub)
                    if sub_seconds is None:
                        continue
                    # clamp inside the parent: the sub-phases sum to
                    # "score" up to float epsilon
                    sub_seconds = min(
                        max(float(sub_seconds), 0.0),
                        max(score_end - sub_cursor, 0.0),
                    )
                    self.complete(
                        process, "phases", sub,
                        ts=sub_cursor, dur=sub_seconds,
                    )
                    sub_cursor += sub_seconds
            cursor += seconds

    def cycle_span(
        self,
        process: str,
        ts: float,
        dur: float,
        payload: Dict[str, object],
    ) -> None:
        """Project one step's *modelled-cycle* cost onto the timeline.

        The second clock of the dual-clock view: a ``modelled_step``
        span on the ``cycles`` track shares the engine step's **wall
        anchor** (``ts``/``dur``), while its args carry the exact
        modelled quantities (``total_cycles``, ``modelled_seconds``,
        fast/slow DRAM bytes, ...).  Phase children (weights →
        attention → allgather → prefill) nest inside it with durations
        *proportional* to their cycle shares — modelled time can exceed
        the wall gap between steps, so projecting onto the wall window
        keeps every track nest-valid and visually comparable
        span-for-span, and nothing is lost: the true cycle counts ride
        in each child's args.

        ``payload`` is the dict :meth:`repro.hw.serving.StepCost.
        span_payload` builds from a priced step; its ``"phases"`` list
        (the cost's own terms) is consumed here, everything else lands on the
        parent span's args verbatim.
        """
        args = {k: v for k, v in payload.items() if k != "phases"}
        self.complete(
            process, "cycles", "modelled_step", ts=ts, dur=dur,
            cat="cycles", args=args,
        )
        phases = payload.get("phases") or ()
        total = sum(int(p.get("cycles", 0)) for p in phases)
        if total <= 0:
            return
        cursor = ts
        end = ts + dur
        for phase in phases:
            cycles = int(phase.get("cycles", 0))
            if cycles <= 0:
                continue
            # proportional projection, clamped so float error can never
            # push a child past its parent's end
            seconds = min(dur * (cycles / total), max(end - cursor, 0.0))
            child_args = {"cycles": cycles}
            child_args.update(phase.get("args") or {})
            self.complete(
                process, "cycles", str(phase["name"]),
                ts=cursor, dur=seconds, cat="cycles", args=child_args,
            )
            cursor += seconds

    def _emit(self, process: str, thread: str, span: list, ts_end: float) -> None:
        name, cat, ts0, args = span
        self.sink.emit(
            TraceEvent(
                name=name,
                cat=cat,
                ph="X",
                process=process,
                thread=thread,
                ts_s=ts0,
                dur_s=max(ts_end - ts0, 0.0),
                args=args or None,
            )
        )

    # --------------------------------------------------------------- export
    def to_trace_events(self) -> Dict[str, object]:
        """The Chrome/Perfetto trace-event JSON object.

        Timestamps convert to (fractional) microseconds; process/thread
        labels map to integer pids/tids with ``process_name`` /
        ``thread_name`` metadata events so the viewer shows the labels.
        """
        return span_records_to_perfetto(self.to_span_records())

    def to_span_records(self) -> List[Dict[str, object]]:
        """JSONL-ready records with exact float seconds (lossless)."""
        return [span_record(ev) for ev in self.events]

    def write_trace(self, path) -> Path:
        """Write the Perfetto trace-event JSON; returns the path."""
        path = Path(path)
        path.write_text(json.dumps(self.to_trace_events()))
        return path

    def write_span_log(self, path) -> Path:
        """Write the JSONL span log (one event per line, gzip when the
        path ends ``.gz``); returns the path."""
        from repro.obs.sinks import open_span_log

        path = Path(path)
        with open_span_log(path, "wt") as fh:
            for record in self.to_span_records():
                fh.write(json.dumps(record) + "\n")
        return path


def span_records_to_perfetto(records) -> Dict[str, object]:
    """Convert JSONL-style span records to Chrome/Perfetto trace JSON.

    Accepts exactly what :meth:`Tracer.to_span_records` returns *or*
    what :func:`repro.obs.analyze.load_events` reads back from a span
    log, so a streamed run (which never buffered events in memory) can
    still produce the Perfetto artifact post-hoc.  Streaming ``"B"``
    open-records are bookkeeping, not spans — they are skipped.
    """
    pids: Dict[str, int] = {}
    tids: Dict[Tuple[str, str], int] = {}
    meta: List[dict] = []
    out: List[dict] = []
    for ev in records:
        ph = ev["ph"]
        if ph not in ("X", "i"):
            continue
        process, thread = ev["process"], ev["thread"]
        pid = pids.get(process)
        if pid is None:
            pid = pids[process] = len(pids)
            meta.append(
                {
                    "name": "process_name",
                    "ph": "M",
                    "pid": pid,
                    "tid": 0,
                    "args": {"name": process},
                }
            )
        track = (process, thread)
        tid = tids.get(track)
        if tid is None:
            tid = tids[track] = (
                sum(1 for t in tids if t[0] == process) + 1
            )
            meta.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": pid,
                    "tid": tid,
                    "args": {"name": thread},
                }
            )
        record: Dict[str, object] = {
            "name": ev["name"],
            "cat": ev["cat"],
            "ph": ph,
            "pid": pid,
            "tid": tid,
            "ts": ev["ts_s"] * 1e6,
        }
        if ph == "X":
            record["dur"] = ev.get("dur_s", 0.0) * 1e6
        elif ph == "i":
            record["s"] = "t"  # thread-scoped instant
        if ev.get("args"):
            record["args"] = ev["args"]
        out.append(record)
    return {"traceEvents": meta + out, "displayTimeUnit": "ms"}
