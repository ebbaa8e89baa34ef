"""Unit tests for the observability layer (:mod:`repro.obs`).

Covers the span recorder's bookkeeping (exactly-once closure, imbalance
reporting, sampling), both exporters against their own schema
validators, the engine-backed ``--profile`` renderer, the Prometheus
text exposition, and the :class:`MetricsRegistry` serialization
round-trip.
"""

import json

import numpy as np
import pytest

from repro.cluster.metrics import MetricsRegistry
from repro.core import TokenPickerConfig
from repro.obs import (
    NULL_TRACER,
    TraceSchemaError,
    Tracer,
    validate_span_log,
    validate_trace,
    validate_trace_file,
)
from repro.obs.profile import render_profile
from repro.serving import GenerationRequest, ServingEngine, synthetic_request

N_HEADS, HEAD_DIM = 2, 8


def _drained_engine(seed=7, n_requests=5, **kw):
    kw.setdefault("max_batch_size", 3)
    kw.setdefault("capacity_tokens", 512)
    engine = ServingEngine(TokenPickerConfig(threshold=2e-3), seed=seed, **kw)
    rng = np.random.default_rng(seed)
    for _ in range(n_requests):
        engine.submit(synthetic_request(rng, N_HEADS, 12, HEAD_DIM, 6))
    engine.run_until_drained()
    return engine


# --------------------------------------------------------------- tracer core


class TestTracer:
    def test_null_tracer_is_falsy_noop(self):
        assert not NULL_TRACER
        assert not NULL_TRACER.want_step(0)
        NULL_TRACER.begin("p", "t", "span")
        NULL_TRACER.end("p", "t", "span")
        NULL_TRACER.instant("p", "t", "mark")
        NULL_TRACER.close_track("p", "t")
        NULL_TRACER.step_span("p", ts=0.0, dur=1.0, args={})

    def test_tracer_is_truthy(self):
        assert Tracer()

    def test_sample_steps_validation(self):
        with pytest.raises(ValueError):
            Tracer(sample_steps=0)

    def test_want_step_sampling(self):
        tracer = Tracer(sample_steps=3)
        wanted = [i for i in range(10) if tracer.want_step(i)]
        assert wanted == [0, 3, 6, 9]

    def test_begin_end_emits_span(self):
        tracer = Tracer()
        tracer.begin("p", "t", "work", ts=1.0, args={"a": 1})
        assert tracer.open_span_count == 1
        assert tracer.open_spans() == [("p", "t", "work")]
        tracer.end("p", "t", "work", ts=1.5, args={"b": 2})
        assert tracer.open_span_count == 0
        assert tracer.errors == []
        (ev,) = tracer.events
        assert (ev.name, ev.ph, ev.ts_s) == ("work", "X", 1.0)
        assert ev.dur_s == pytest.approx(0.5)
        assert ev.args == {"a": 1, "b": 2}

    def test_end_without_begin_is_reported(self):
        tracer = Tracer()
        tracer.end("p", "t", "ghost")
        assert tracer.events == []
        assert len(tracer.errors) == 1
        assert "end without begin" in tracer.errors[0]

    def test_end_closes_deeper_spans_and_reports(self):
        tracer = Tracer()
        tracer.begin("p", "t", "outer", ts=0.0)
        tracer.begin("p", "t", "inner", ts=1.0)
        tracer.end("p", "t", "outer", ts=2.0)
        assert tracer.open_span_count == 0
        # both spans were emitted, but the imbalance is never silent
        assert {e.name for e in tracer.events} == {"outer", "inner"}
        assert any("implicitly closed" in err for err in tracer.errors)

    def test_close_track_exactly_once(self):
        tracer = Tracer()
        tracer.begin("p", "req1", "request", ts=0.0)
        tracer.begin("p", "req1", "decode", ts=1.0)
        tracer.close_track("p", "req1", ts=3.0, args={"state": "finished"})
        # args land on the outermost span (the request carries its state)
        by_name = {e.name: e for e in tracer.events}
        assert by_name["request"].args == {"state": "finished"}
        assert by_name["decode"].args is None
        # second close is a no-op: terminal transitions cannot double-close
        before = len(tracer.events)
        tracer.close_track("p", "req1", ts=4.0)
        assert len(tracer.events) == before
        assert tracer.errors == []

    def test_step_span_phase_layout(self):
        tracer = Tracer()
        tracer.step_span(
            "engine",
            ts=10.0,
            dur=1.0,
            args={"step": 0, "tokens": 4},
            phase_seconds={
                "prefill": 0.05,
                "pack": 0.1,
                "score": 0.5,
                "score_chunk0": 0.3,
                "score_refine": 0.4,  # clamped into "score"
                "prune": 0.1,
                "unpack": 0.2,
            },
        )
        spans = {e.name: e for e in tracer.events}
        assert spans["engine_step"].thread == "steps"
        phases = [e for e in tracer.events if e.thread == "phases"]
        # prefill -> pack -> score -> prune -> unpack laid out sequentially
        order = [e.name for e in sorted(phases, key=lambda e: (e.ts_s, -e.dur_s))]
        assert order == ["prefill", "pack", "score", "score_chunk0",
                         "score_refine", "prune", "unpack"]
        score = spans["score"]
        for sub in ("score_chunk0", "score_refine"):
            assert spans[sub].ts_s >= score.ts_s - 1e-12
            assert (
                spans[sub].ts_s + spans[sub].dur_s
                <= score.ts_s + score.dur_s + 1e-12
            )


# ----------------------------------------------------------------- exporters


class TestExporters:
    def _tracer(self):
        tracer = Tracer()
        tracer.begin("r0", "req1", "request", ts=0.0)
        tracer.instant("r0", "req1", "first_token", ts=0.25)
        tracer.close_track("r0", "req1", ts=1.0, args={"state": "finished"})
        tracer.step_span("r0", ts=0.0, dur=0.5, args={"tokens": 1})
        return tracer

    def test_perfetto_export_validates(self):
        record = self._tracer().to_trace_events()
        validate_trace(record)
        assert record["displayTimeUnit"] == "ms"
        meta = [e for e in record["traceEvents"] if e["ph"] == "M"]
        names = {e["args"]["name"] for e in meta}
        assert {"r0", "req1", "steps"} <= names

    def test_perfetto_microsecond_timestamps(self):
        record = self._tracer().to_trace_events()
        request = next(
            e for e in record["traceEvents"] if e.get("name") == "request"
        )
        assert request["ts"] == pytest.approx(0.0)
        assert request["dur"] == pytest.approx(1e6)

    def test_span_log_roundtrip_is_exact(self, tmp_path):
        tracer = self._tracer()
        path = tracer.write_span_log(tmp_path / "spans.jsonl")
        assert validate_span_log(path.read_text().splitlines()) == len(
            tracer.events
        )
        from repro.obs.analyze import load_events

        events = load_events(path)
        by_name = {e["name"]: e for e in events}
        assert by_name["request"]["ts_s"] == 0.0  # bit-exact
        assert by_name["request"]["dur_s"] == 1.0

    def test_write_trace_file_validates(self, tmp_path):
        path = self._tracer().write_trace(tmp_path / "trace.json")
        validate_trace_file(path)


# -------------------------------------------------------------------- schema


class TestSchema:
    def test_empty_trace_rejected(self):
        with pytest.raises(TraceSchemaError):
            validate_trace({"traceEvents": []})

    def test_span_without_process_metadata_rejected(self):
        with pytest.raises(TraceSchemaError, match="process_name"):
            validate_trace(
                {
                    "traceEvents": [
                        {"name": "s", "cat": "c", "ph": "X", "pid": 0,
                         "tid": 1, "ts": 0.0, "dur": 1.0}
                    ]
                }
            )

    def test_overlapping_spans_rejected(self):
        tracer = Tracer()
        tracer.complete("p", "t", "a", ts=0.0, dur=2.0)
        tracer.complete("p", "t", "b", ts=1.0, dur=2.0)  # extends past "a"
        with pytest.raises(TraceSchemaError, match="must nest"):
            validate_trace(tracer.to_trace_events())

    def test_nested_spans_accepted(self):
        tracer = Tracer()
        tracer.complete("p", "t", "a", ts=0.0, dur=2.0)
        tracer.complete("p", "t", "b", ts=0.5, dur=1.0)
        validate_trace(tracer.to_trace_events())

    def test_empty_span_log_rejected(self):
        with pytest.raises(TraceSchemaError):
            validate_span_log([])

    def test_span_log_bad_phase_rejected(self):
        line = json.dumps(
            {"name": "s", "cat": "c", "ph": "M", "process": "p",
             "thread": "t", "ts_s": 0.0}
        )
        with pytest.raises(TraceSchemaError):
            validate_span_log([line])

    def test_schema_cli(self, tmp_path, capsys):
        from repro.obs.schema import main

        tracer = Tracer()
        tracer.complete("p", "t", "a", ts=0.0, dur=1.0)
        good = tracer.write_trace(tmp_path / "good.json")
        assert main([str(good)]) == 0
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"traceEvents": []}))
        assert main([str(bad)]) == 1
        assert main([]) == 2


# ----------------------------------------------------------------- profiles


class TestProfile:
    def test_render_profile_reflects_engine_counters(self):
        engine = _drained_engine(prefill_budget_tokens=8)
        lines = render_profile(engine)
        text = "\n".join(lines)
        totals = engine.round_alive_totals
        kept = totals[-1] / totals[0]
        assert "kernel rounds: alive fraction" in text
        assert f"kept: {kept:.4f}" in text
        assert (
            f"chunked prefill (budget 8): {engine.prefill_tokens_total} "
            f"prompt tokens in {engine.prefill_chunks_total} chunks" in text
        )

    def test_render_profile_tiered_engine(self):
        from repro.kvstore import RadixKVCache, TierConfig

        engine = _drained_engine(
            kv_tiering=TierConfig(policy="mass"),
            prefix_cache=RadixKVCache(capacity_tokens=4096),
        )
        text = "\n".join(render_profile(engine))
        assert "kv tiering (mass policy" in text
        assert "prefix cache: hit rate" in text

    def test_render_profile_lines_pinned(self):
        """Every block of a tiered, prefix-cached, chunked-prefill
        engine's profile, byte for byte (five requests sharing a 16-token
        prompt prefix)."""
        from repro.kvstore import RadixKVCache, TierConfig

        rng = np.random.default_rng(11)
        shared_k, shared_v = rng.normal(size=(2, 2, 16, 8))
        engine = ServingEngine(
            TokenPickerConfig(threshold=2e-3), seed=11, max_batch_size=3,
            capacity_tokens=512, prefill_budget_tokens=8,
            kv_tiering=TierConfig(
                policy="mass", hot_tail=4, min_seen=1, survive_idle_steps=1
            ),
            prefix_cache=RadixKVCache(capacity_tokens=4096),
        )
        for _ in range(5):
            own_k, own_v = rng.normal(size=(2, 2, 12, 8))
            engine.submit(GenerationRequest(
                prompt_keys=np.concatenate([shared_k, own_k], axis=1),
                prompt_values=np.concatenate([shared_v, own_v], axis=1),
                max_new_tokens=10,
            ))
        engine.run_until_drained()
        assert render_profile(engine) == [
            "  kernel rounds: alive fraction  round 0: 1.000  "
            "round 1: 0.820  round 2: 0.562  kept: 0.5388",
            "    chunks fetched: 1ch: 18.0%  2ch: 25.8%  3ch: 56.2%",
            "  chunked prefill (budget 8): 140 prompt tokens in 24 chunks "
            "(mean 5.8 tokens/chunk)",
            "  kv tiering (mass policy, 2-chunk sketch): 18 demotions, "
            "18 promotions",
            "    modelled traffic: fast 1,283 B/token, slow 169 B/token",
            "  prefix cache: hit rate 45.7% (64/140 prompt tokens), "
            "76 tokens resident",
        ]

    def test_render_profile_untouched_engine_is_empty(self):
        engine = ServingEngine(
            TokenPickerConfig(), max_batch_size=2, capacity_tokens=256
        )
        assert render_profile(engine) == []


# ------------------------------------------------------- metrics serialization


class TestRegistrySerialization:
    def test_type_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(TypeError):
            registry.gauge("x")
        with pytest.raises(TypeError):
            registry.histogram("x")

    def test_labels_distinguish_series(self):
        registry = MetricsRegistry()
        registry.counter("x", replica="0").inc()
        registry.counter("x", replica="1").inc(2)
        assert registry.counter("x", replica="0").value == 1
        assert registry.counter("x", replica="1").value == 2


class TestPrometheusRendering:
    def test_exposition_format(self):
        registry = MetricsRegistry()
        registry.counter("requests", replica="0").inc(5)
        registry.gauge("depth").set(2)
        registry.histogram("latency", replica="0").observe(0.5)
        text = registry.render_prometheus(prefix="tokenpicker")
        assert "# TYPE tokenpicker_requests counter" in text
        assert 'tokenpicker_requests{replica="0"} 5' in text
        assert "tokenpicker_depth 2" in text
        assert "# TYPE tokenpicker_latency summary" in text
        assert 'quantile="0.95"' in text
        assert 'tokenpicker_latency_count{replica="0"} 1' in text

    def test_empty_histogram_has_no_quantiles(self):
        registry = MetricsRegistry()
        registry.histogram("latency")
        text = registry.render_prometheus()
        assert "quantile" not in text
        assert "latency_count 0" in text

    def test_label_escaping(self):
        registry = MetricsRegistry()
        registry.counter("x", path='a"b\\c\nd').inc()
        text = registry.render_prometheus()
        assert '\\"' in text and "\\\\" in text and "\\n" in text
