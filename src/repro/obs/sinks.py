"""Pluggable span sinks: where a :class:`~repro.obs.trace.Tracer` puts
closed spans.

PR 8's tracer buffered every event in memory, which is fine for a bench
run and unbounded for a long chaos run.  The sink layer splits *what the
tracer records* from *where the records go*:

* :class:`BufferedSink` — the original behaviour: every event appended
  to an in-memory list, exported after the run.  The default.
* :class:`JsonlStreamingSink` — each event is written to the JSONL span
  log **the moment it closes** and the line is flushed, so the file is
  a crash-tolerant record of the run so far and the tracer's resident
  state is only the *open* spans.  Span opens additionally write a
  lightweight ``ph: "B"`` record; a complete span later cancels its "B"
  record in :mod:`repro.obs.analyze`, so a crashed run's file shows
  exactly the spans that never terminated.  Paths ending ``.gz`` are
  gzip-compressed transparently.

A sink only needs ``emit(event)``; ``on_begin(...)`` and ``close()``
default to no-ops, so third-party sinks (a socket, a ring buffer) are
three lines.
"""

from __future__ import annotations

import gzip
import json
from pathlib import Path
from typing import Dict, List, Optional

__all__ = [
    "SpanSink",
    "BufferedSink",
    "JsonlStreamingSink",
    "span_record",
    "open_span_log",
]


def span_record(event) -> Dict[str, object]:
    """The JSONL-ready dict of one :class:`~repro.obs.trace.TraceEvent`
    (exact float seconds — the lossless form analyze prefers)."""
    record: Dict[str, object] = {
        "name": event.name,
        "cat": event.cat,
        "ph": event.ph,
        "process": event.process,
        "thread": event.thread,
        "ts_s": event.ts_s,
    }
    if event.ph == "X":
        record["dur_s"] = event.dur_s
    if event.args:
        record["args"] = event.args
    return record


def open_span_log(path, mode: str = "rt"):
    """Open a span log for text I/O, gzip-compressed iff the path ends
    ``.gz`` — the one place the compression decision lives, shared by
    the streaming sink, the schema CLI, and the analyzer."""
    path = Path(path)
    if path.suffix == ".gz":
        return gzip.open(path, mode)
    return open(path, mode)


class SpanSink:
    """Destination for a tracer's closed spans and instants."""

    def on_begin(
        self, process: str, thread: str, name: str, cat: str, ts_s: float
    ) -> None:
        """A span just opened on ``(process, thread)``.  Streaming sinks
        persist this as a ``ph: "B"`` record so a crash leaves evidence
        of in-flight work; buffered sinks ignore it (the eventual "X"
        event carries everything)."""

    def emit(self, event) -> None:
        raise NotImplementedError

    def close(self) -> None:
        """Flush and release any resources.  Idempotent."""

    def buffered_events(self) -> Optional[list]:
        """The in-memory event list, if this sink keeps one (else None).
        The tracer's ``events`` attribute and in-process exporters
        resolve through this."""
        return None


class BufferedSink(SpanSink):
    """Hold every event in memory — the original (and default) path."""

    def __init__(self) -> None:
        self.events: List = []

    def emit(self, event) -> None:
        self.events.append(event)

    def buffered_events(self) -> list:
        return self.events


class JsonlStreamingSink(SpanSink):
    """Write each record to a JSONL file as it happens, flushed per line.

    Memory is O(open spans): nothing closed is retained in process.  The
    file carries ``ph: "B"`` open-records interleaved with the usual
    "X"/"i" events; :func:`repro.obs.analyze.analyze` cancels each "B"
    against its matching "X" and reports the survivors as unterminated —
    the crash-recovery contract.  A ``.gz`` path compresses on the fly
    (gzip cannot flush per line without destroying the ratio, so
    compressed logs trade the truncation-tolerance of the plain path for
    size; both read back identically when closed properly).
    """

    def __init__(self, path) -> None:
        self.path = Path(path)
        self._fh = open_span_log(self.path, "wt")
        self._plain = self.path.suffix != ".gz"
        self.events_written = 0
        self.closed = False

    def on_begin(
        self, process: str, thread: str, name: str, cat: str, ts_s: float
    ) -> None:
        self._write(
            {
                "name": name,
                "cat": cat,
                "ph": "B",
                "process": process,
                "thread": thread,
                "ts_s": ts_s,
            }
        )

    def emit(self, event) -> None:
        self._write(span_record(event))
        if not self.closed:
            # counts closed spans and instants; "B" open-records are
            # bookkeeping, not events
            self.events_written += 1

    def _write(self, record: Dict[str, object]) -> None:
        if self.closed:
            return
        self._fh.write(json.dumps(record) + "\n")
        if self._plain:
            self._fh.flush()

    def close(self) -> None:
        if not self.closed:
            self.closed = True
            self._fh.close()
