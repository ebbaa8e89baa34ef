"""Unified tracing & telemetry: spans, streaming sinks, Perfetto
export, dual-clock cycle tracks, one metrics pipeline (see
``repro.obs.trace`` / ``sinks`` / ``schema`` / ``profile`` /
``analyze`` / ``diff``).

Only the stdlib-dependent core (:mod:`repro.obs.trace`,
:mod:`repro.obs.sinks`, :mod:`repro.obs.schema`) loads eagerly — the
serving engine imports :data:`NULL_TRACER` at module import time, and
the analysis/profile/diff helpers import back into
:mod:`repro.cluster.metrics`, so they resolve lazily to keep the import
graph acyclic.
"""

from repro.obs.schema import (
    TraceSchemaError,
    validate_span_log,
    validate_span_log_file,
    validate_trace,
    validate_trace_file,
)
from repro.obs.sinks import BufferedSink, JsonlStreamingSink, TeeSink
from repro.obs.trace import NULL_TRACER, Tracer, span_records_to_perfetto

__all__ = [
    "BufferedSink",
    "JsonlStreamingSink",
    "NULL_TRACER",
    "TeeSink",
    "TraceSchemaError",
    "Tracer",
    "load_events",
    "span_records_to_perfetto",
    "validate_span_log",
    "validate_span_log_file",
    "validate_trace",
    "validate_trace_file",
]

# NOTE: the analyze *function* is not re-exported here — the submodule
# of the same name would shadow it after first import; reach it as
# ``repro.obs.analyze.analyze``.
_LAZY = {
    "load_events": "repro.obs.analyze",
}


def __getattr__(name):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module 'repro.obs' has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module), name)
