"""Unified tracing & telemetry: spans, streaming sinks, Perfetto
export, dual-clock cycle tracks, one metrics pipeline (see
``repro.obs.trace`` / ``sinks`` / ``schema`` / ``profile`` /
``analyze`` / ``diff``).

Like every package in ``repro``, this one resolves its exports on
first access (``_LAZY`` and the module ``__getattr__``), so importing a
submodule loads only what that submodule imports.  The serving engine
imports :data:`NULL_TRACER` from :mod:`repro.obs.trace`, which loads
:mod:`repro.obs.sinks` and nothing else here; the span-log validator
(:mod:`repro.obs.schema`) and the analysis helpers, which import back
into :mod:`repro.cluster.metrics`, load only when something uses them.
"""

# NOTE: the analyze *function* is not re-exported here — the submodule
# of the same name would shadow it after first import; reach it as
# ``repro.obs.analyze.analyze``.
_LAZY = {
    "BufferedSink": "repro.obs.sinks",
    "JsonlStreamingSink": "repro.obs.sinks",
    "NULL_TRACER": "repro.obs.trace",
    "TraceSchemaError": "repro.obs.schema",
    "Tracer": "repro.obs.trace",
    "load_events": "repro.obs.analyze",
    "span_records_to_perfetto": "repro.obs.trace",
    "validate_span_log": "repro.obs.schema",
    "validate_span_log_file": "repro.obs.schema",
    "validate_trace": "repro.obs.schema",
    "validate_trace_file": "repro.obs.schema",
}
__all__ = list(_LAZY)


def __getattr__(name):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module), name)
