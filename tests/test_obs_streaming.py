"""Streaming span sink: incremental flush, crash recovery, gzip,
buffered/streamed equivalence, and the dual-clock cycle track.

The acceptance bar for the streaming path is twofold:

* **equivalence** — one seeded run teed through the buffered and the
  streaming sink must produce span logs whose ``analyze`` summaries are
  bit-exact (same floats, same JSON);
* **crash tolerance** — a run killed mid-flight (simulated by closing
  the sink while spans are open, plus a torn final line) must still
  yield a readable log, with exactly the then-open spans reported as
  unterminated.
"""

import gzip
import json

import numpy as np
import pytest

from repro.core import TokenPickerConfig
from repro.obs import (
    BufferedSink,
    JsonlStreamingSink,
    Tracer,
    span_records_to_perfetto,
    validate_span_log_file,
    validate_trace,
)
from repro.obs.analyze import analyze_file
from repro.obs.sinks import SpanSink
from repro.serving import ServingEngine, synthetic_request

CFG = TokenPickerConfig(threshold=2e-3)


class TeeSink(SpanSink):
    """Fan every record out to each child sink, in order: one seeded run
    drives a buffered and a streaming sink at once."""

    def __init__(self, *sinks: SpanSink) -> None:
        self.sinks = list(sinks)

    def on_begin(self, *args) -> None:
        for sink in self.sinks:
            sink.on_begin(*args)

    def emit(self, event) -> None:
        for sink in self.sinks:
            sink.emit(event)

    def close(self) -> None:
        for sink in self.sinks:
            sink.close()

    def buffered_events(self):
        for sink in self.sinks:
            events = sink.buffered_events()
            if events is not None:
                return events
        return None


def _drive_engine(tracer, n_requests=6, seed=0):
    engine = ServingEngine(
        CFG,
        max_batch_size=4,
        capacity_tokens=4096,
        seed=seed,
        tracer=tracer,
    )
    rng = np.random.default_rng(seed)
    for _ in range(n_requests):
        engine.submit(synthetic_request(rng, 2, 32, 16, 4))
    engine.run_until_drained()
    return engine


def _summary_json(path) -> str:
    return json.dumps(analyze_file(path).summary(), sort_keys=True)


def test_streamed_analysis_bit_exact_vs_buffered(tmp_path):
    """One seeded run, teed: the streamed log must analyze to byte-for-
    byte the same summary as the buffered sink's log — same wall floats,
    same histograms, nothing lost in the incremental path."""
    streamed_path = tmp_path / "run.jsonl"
    buffered = BufferedSink()
    tracer = Tracer(sink=TeeSink(buffered, JsonlStreamingSink(streamed_path)))
    _drive_engine(tracer)
    tracer.close()

    buffered_path = tmp_path / "buffered.jsonl"
    tracer.write_span_log(buffered_path)

    assert _summary_json(streamed_path) == _summary_json(buffered_path)
    # a complete run's B records all cancel: nothing unterminated
    assert analyze_file(streamed_path).summary()["unterminated_spans"] == []


def test_streaming_sink_flushes_incrementally(tmp_path):
    """Closed spans are on disk before the run ends — the file grows
    while the tracer holds only open spans."""
    path = tmp_path / "live.jsonl"
    sink = JsonlStreamingSink(path)
    tracer = Tracer(sink=sink)
    tracer.begin("engine", "req0", "request")
    tracer.instant("engine", "req0", "first_token")
    on_disk = path.read_text().splitlines()
    # the B open-record and the instant are already flushed
    assert [json.loads(line)["ph"] for line in on_disk] == ["B", "i"]
    tracer.end("engine", "req0", "request")
    assert [
        json.loads(line)["ph"] for line in path.read_text().splitlines()
    ] == ["B", "i", "X"]
    assert sink.events_written == 2  # B records are not events
    tracer.close()
    with pytest.raises(AttributeError, match="streams spans to disk"):
        tracer.events


def test_peak_open_spans_is_resident_bound(tmp_path):
    """The tracer's peak open-span count tracks nesting depth, not trace
    length: a long run streams hundreds of events through a peak of a
    dozen."""
    sink = JsonlStreamingSink(tmp_path / "run.jsonl")
    tracer = Tracer(sink=sink)
    _drive_engine(tracer, n_requests=8)
    tracer.close()
    assert sink.events_written > 50
    # <= open requests (4 in flight) + engine step + phase + cycle spans
    assert tracer.peak_open_spans <= 16


def test_crash_recovery_flags_exactly_open_spans(tmp_path):
    """Kill a run mid-flight (sink closed with spans open, torn tail
    line appended): analyze must rebuild metrics from the partial log
    and name exactly the then-open spans as unterminated."""
    path = tmp_path / "crashed.jsonl"
    sink = JsonlStreamingSink(path)
    tracer = Tracer(sink=sink)
    tracer.begin("engine", "req0", "request", args={"prompt_tokens": 32})
    tracer.begin("engine", "req1", "request")
    tracer.instant("engine", "req0", "first_token")
    tracer.begin("engine", "steps", "engine_step")
    tracer.end(
        "engine", "steps", "engine_step",
        args={"tokens": 2, "wall_seconds": 1e-3},
    )
    tracer.begin("engine", "steps", "engine_step")  # dies inside step 2

    open_now = sorted(tracer.open_spans())
    sink.close()  # the "crash": no more writes land
    tracer.end("engine", "steps", "engine_step")  # lost, post-crash
    with open(path, "a") as fh:
        fh.write('{"name": "request", "ph": "X", "trunc')  # torn tail

    analysis = analyze_file(path)
    assert sorted(analysis.unterminated) == open_now
    assert analysis.unterminated == [
        ("engine", "req0", "request"),
        ("engine", "req1", "request"),
        ("engine", "steps", "engine_step"),
    ]
    # the closed step span's metrics survived the crash
    assert analysis.step_spans == 1
    summary = analysis.summary()
    assert summary["replicas"]["engine"]["token_latency_seconds"]["count"] == 2
    assert len(summary["unterminated_spans"]) == 3


def test_truncated_tail_midfile_corruption_still_raises(tmp_path):
    """Only the *final* line may be torn; garbage followed by more
    events is real corruption and must not be silently dropped."""
    path = tmp_path / "corrupt.jsonl"
    sink = JsonlStreamingSink(path)
    tracer = Tracer(sink=sink)
    tracer.begin("engine", "req0", "request")
    tracer.end("engine", "req0", "request")
    tracer.close()
    lines = path.read_text().splitlines()
    lines.insert(1, '{"broken')
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(json.JSONDecodeError):
        analyze_file(path)


def test_gzip_round_trip(tmp_path):
    """A ``.jsonl.gz`` path gzips transparently in the sink, the
    buffered exporter, the validator, and the analyzer."""
    gz_stream = tmp_path / "run.jsonl.gz"
    buffered = BufferedSink()
    tracer = Tracer(sink=TeeSink(buffered, JsonlStreamingSink(gz_stream)))
    _drive_engine(tracer)
    tracer.close()
    gz_export = tmp_path / "export.jsonl.gz"
    tracer.write_span_log(gz_export)

    with gzip.open(gz_stream, "rt") as fh:
        assert json.loads(fh.readline())["ph"] == "B"
    assert validate_span_log_file(gz_stream) > 0
    assert validate_span_log_file(gz_export) > 0
    assert _summary_json(gz_stream) == _summary_json(gz_export)


def test_cycle_track_streams_and_validates(tmp_path):
    """A traced router with a cycle model streams the dual-clock track:
    modelled_step spans on thread "cycles" with exact cycle args, and
    the post-hoc Perfetto projection passes full schema validation."""
    from repro.cluster import ClusterRouter
    from repro.hw.serving import ServingSimulator
    from repro.model.config import get_model_config

    path = tmp_path / "cycles.jsonl"
    tracer = Tracer(sink=JsonlStreamingSink(path))
    router = ClusterRouter(
        1,
        CFG,
        admission="conservative",
        max_batch_size=4,
        capacity_tokens=4096,
        tracer=tracer,
        cycle_sim=ServingSimulator(
            get_model_config("gpt2-medium"), context_length=64, config=CFG
        ),
    )
    rng = np.random.default_rng(0)
    for _ in range(6):
        router.submit(synthetic_request(rng, 2, 32, 16, 4))
    router.run_until_drained()
    tracer.close()

    analysis = analyze_file(path)
    modelled = analysis.modelled["r0"]
    assert modelled["steps"] > 0
    assert modelled["total_cycles"] > 0
    assert modelled["modelled_seconds"] > 0
    assert (
        modelled["weights_cycles"]
        + modelled["attention_cycles"]
        + modelled["prefill_cycles"]
        == modelled["total_cycles"]
    )
    summary = analysis.summary()
    assert summary["replicas"]["r0"]["modelled"]["steps"] == modelled[
        "steps"
    ]

    from repro.obs.analyze import load_events

    record = span_records_to_perfetto(load_events(path))
    validate_trace(record, name="cycles")
    r0 = next(
        e["pid"]
        for e in record["traceEvents"]
        if e["name"] == "process_name" and e["args"]["name"] == "r0"
    )
    cycle_spans = [
        e
        for e in record["traceEvents"]
        if e.get("ph") == "X" and e["name"] == "modelled_step"
        and e["pid"] == r0
    ]
    assert len(cycle_spans) == modelled["steps"]
