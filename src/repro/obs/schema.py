"""Schema validation for the tracing artifacts ``--trace-out`` emits.

Pointed failures via :class:`TraceSchemaError`, ``validate_*`` callables
for in-memory objects and ``validate_*_file`` wrappers for artifacts on
disk, applied to the two trace outputs:

* the Chrome/Perfetto **trace-event JSON** (``*.json``): a
  ``{"traceEvents": [...]}`` object whose events are well-formed "M" /
  "X" / "i" records with consistent pid/tid metadata, microsecond
  timestamps, and — the structural property Perfetto itself will not
  check — spans on each track must **nest**: no "X" event may extend
  past the end of an enclosing span on its track;
* the **JSONL span log** (``*.jsonl``, or ``*.jsonl.gz`` gzip-
  compressed): one event object per line with exact float-second
  ``ts_s``/``dur_s`` fields.  Streamed logs
  (:class:`repro.obs.sinks.JsonlStreamingSink`) additionally interleave
  lightweight ``ph: "B"`` open-records — valid span-log lines that never
  appear in the Perfetto export.

Spans named ``modelled_step`` (the dual-clock cycle track) must carry
their exact modelled quantities — numeric ``total_cycles`` and
``modelled_seconds`` args — since the span geometry is only the wall
projection.

``python -m repro.obs.schema trace.json [spans.jsonl ...]`` validates
each named artifact (extension picks the validator) and exits non-zero
on the first violation — the CI smoke leg's gate.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Dict, List, Mapping, Tuple

from repro.obs.sinks import open_span_log

__all__ = [
    "TraceSchemaError",
    "validate_trace",
    "validate_trace_file",
    "validate_span_log_file",
]

#: event phases a trace may contain (metadata, complete span, instant)
ALLOWED_PHASES = ("M", "X", "i")

#: slack (in microseconds) when checking span nesting — a child written
#: from the same float stamp as its parent's end may differ by rounding
_NEST_EPS_US = 1e-3


class TraceSchemaError(ValueError):
    """A trace artifact does not satisfy the expected schema."""


def _fail(path: str, message: str) -> None:
    raise TraceSchemaError(f"{path}: {message}")


def _check_event(event, where: str) -> None:
    if not isinstance(event, Mapping):
        _fail(where, f"must be an object, got {type(event).__name__}")
    ph = event.get("ph")
    if ph not in ALLOWED_PHASES:
        _fail(f"{where}.ph", f"must be one of {ALLOWED_PHASES}, got {ph!r}")
    if not isinstance(event.get("name"), str) or not event["name"]:
        _fail(f"{where}.name", "must be a non-empty string")
    for field in ("pid", "tid"):
        if not isinstance(event.get(field), int):
            _fail(f"{where}.{field}", f"must be an int, got {event.get(field)!r}")
    if ph == "M":
        args = event.get("args")
        if not isinstance(args, Mapping) or not isinstance(args.get("name"), str):
            _fail(f"{where}.args.name", "metadata events must name their track")
        return
    ts = event.get("ts")
    if not isinstance(ts, (int, float)) or ts < 0:
        _fail(f"{where}.ts", f"must be a number >= 0 (microseconds), got {ts!r}")
    if ph == "X":
        dur = event.get("dur")
        if not isinstance(dur, (int, float)) or dur < 0:
            _fail(f"{where}.dur", f"must be a number >= 0, got {dur!r}")
    if "args" in event and not isinstance(event["args"], Mapping):
        _fail(f"{where}.args", "must be an object when present")
    if ph == "X" and event["name"] == "modelled_step":
        _check_modelled_args(event.get("args"), where)


def _check_modelled_args(args, where: str) -> None:
    """Dual-clock spans must carry their exact modelled quantities."""
    if not isinstance(args, Mapping):
        _fail(
            f"{where}.args",
            "modelled_step spans must carry args (the exact cycle "
            "quantities; the span geometry is only the wall projection)",
        )
    for field in ("total_cycles", "modelled_seconds"):
        value = args.get(field)
        if not isinstance(value, (int, float)) or value < 0:
            _fail(
                f"{where}.args.{field}",
                f"must be a number >= 0 on a modelled_step span, got "
                f"{value!r}",
            )


def _check_nesting(spans: Dict[Tuple[int, int], list], name: str) -> None:
    """Spans on each (pid, tid) track must nest — sorted by start (ties:
    widest first), each span must close before every still-open ancestor."""
    for (pid, tid), events in spans.items():
        events.sort(key=lambda e: (e[0], -e[1]))
        stack: List[float] = []  # end timestamps of open ancestors
        for ts, dur, where in events:
            while stack and stack[-1] <= ts + _NEST_EPS_US:
                stack.pop()
            if stack and ts + dur > stack[-1] + _NEST_EPS_US:
                _fail(
                    where,
                    f"span on track pid={pid} tid={tid} ends at "
                    f"{ts + dur:.3f}us, past its enclosing span's end "
                    f"{stack[-1]:.3f}us — spans must nest",
                )
            stack.append(ts + dur)


def validate_trace(record: Mapping, name: str = "trace") -> None:
    """Assert ``record`` is well-formed Chrome/Perfetto trace-event JSON."""
    if not isinstance(record, Mapping):
        _fail(name, f"record must be an object, got {type(record).__name__}")
    events = record.get("traceEvents")
    if not isinstance(events, list) or not events:
        _fail(f"{name}.traceEvents", "must be a non-empty list")
    named_pids: set = set()
    named_tracks: set = set()
    spans: Dict[Tuple[int, int], list] = {}
    for i, event in enumerate(events):
        where = f"{name}.traceEvents[{i}]"
        _check_event(event, where)
        ph = event["ph"]
        if ph == "M":
            if event["name"] == "process_name":
                named_pids.add(event["pid"])
            elif event["name"] == "thread_name":
                named_tracks.add((event["pid"], event["tid"]))
        else:
            if event["pid"] not in named_pids:
                _fail(
                    f"{where}.pid",
                    f"pid {event['pid']} has no process_name metadata event",
                )
            if ph == "X":
                spans.setdefault((event["pid"], event["tid"]), []).append(
                    (float(event["ts"]), float(event["dur"]), where)
                )
    if not any(e.get("ph") == "X" for e in events):
        _fail(f"{name}.traceEvents", "trace contains no complete ('X') spans")
    for pid, tid in spans:
        if (pid, tid) not in named_tracks:
            _fail(
                name,
                f"track pid={pid} tid={tid} carries spans but has no "
                "thread_name metadata event",
            )
    _check_nesting(spans, name)


def validate_span_log(lines, name: str = "spans") -> int:
    """Assert each line of a JSONL span log is a well-formed event
    record; returns the number of events."""
    count = 0
    for i, line in enumerate(lines):
        line = line.strip()
        if not line:
            continue
        where = f"{name}:{i + 1}"
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            _fail(where, f"not valid JSON ({exc})")
        if not isinstance(record, Mapping):
            _fail(where, "must be an object")
        ph = record.get("ph")
        if ph not in ("X", "i", "B"):
            _fail(f"{where}.ph", f"must be 'X', 'i' or 'B', got {ph!r}")
        for field in ("name", "cat", "process", "thread"):
            if not isinstance(record.get(field), str) or not record[field]:
                _fail(f"{where}.{field}", "must be a non-empty string")
        ts = record.get("ts_s")
        if not isinstance(ts, (int, float)) or ts < 0:
            _fail(f"{where}.ts_s", f"must be a number >= 0, got {ts!r}")
        if ph == "X":
            dur = record.get("dur_s")
            if not isinstance(dur, (int, float)) or dur < 0:
                _fail(f"{where}.dur_s", f"must be a number >= 0, got {dur!r}")
            if record["name"] == "modelled_step":
                _check_modelled_args(record.get("args"), where)
        if "args" in record and not isinstance(record["args"], Mapping):
            _fail(f"{where}.args", "must be an object when present")
        count += 1
    if count == 0:
        _fail(name, "span log contains no events")
    return count


def validate_trace_file(path) -> dict:
    """Load and validate one on-disk Perfetto trace; returns the record."""
    path = Path(path)
    try:
        record = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise TraceSchemaError(f"{path.name}: not valid JSON ({exc})") from None
    validate_trace(record, name=path.name)
    return record


def validate_span_log_file(path) -> int:
    """Validate one on-disk JSONL span log (gzip-transparent); returns
    the event count."""
    path = Path(path)
    with open_span_log(path, "rt") as fh:
        return validate_span_log(fh, name=path.name)


def _is_span_log(path: Path) -> bool:
    return path.suffix == ".jsonl" or path.suffixes[-2:] == [".jsonl", ".gz"]


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if not argv:
        print(
            "usage: python -m repro.obs.schema "
            "TRACE.json [SPANS.jsonl[.gz] ...]"
        )
        return 2
    for arg in argv:
        path = Path(arg)
        try:
            if _is_span_log(path):
                count = validate_span_log_file(path)
                print(f"{path}: ok ({count} events)")
            else:
                record = validate_trace_file(path)
                print(f"{path}: ok ({len(record['traceEvents'])} events)")
        except TraceSchemaError as exc:
            print(f"invalid trace artifact: {exc}", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
