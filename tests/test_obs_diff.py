"""Trace-diff analyzer: summaries, thresholds, and the CI gate contract.

The gate's promise: a deliberately injected slowdown — more modelled
cycles per step, inflated wall phases, drifted alive fractions — is
detected and exits non-zero, while re-diffing a run against itself (or
against per-run wall noise within thresholds) passes.
"""

import json

import numpy as np
import pytest

from repro.cluster import ClusterRouter
from repro.core import TokenPickerConfig
from repro.hw.serving import ServingSimulator
from repro.model.config import get_model_config
from repro.obs import Tracer
from repro.obs.diff import (
    DiffThresholds,
    diff_summaries,
    load_summary,
    main,
    trace_summary,
)
from repro.serving import synthetic_request

CFG = TokenPickerConfig(threshold=2e-3)


@pytest.fixture(scope="module")
def trace_path(tmp_path_factory):
    """One small traced run with the dual-clock track, written once: a
    one-replica router under conservative admission serves like a bare
    engine, and the router prices its steps."""
    tracer = Tracer()
    sim = ServingSimulator(
        get_model_config("gpt2-medium"), context_length=64, config=CFG
    )
    router = ClusterRouter(
        1,
        CFG,
        admission="conservative",
        max_batch_size=4,
        capacity_tokens=4096,
        seed=0,
        tracer=tracer,
        cycle_sim=sim,
    )
    rng = np.random.default_rng(0)
    for _ in range(6):
        router.submit(synthetic_request(rng, 2, 32, 16, 4))
    router.run_until_drained()
    path = tmp_path_factory.mktemp("diff") / "run.jsonl"
    tracer.write_span_log(path)
    return path


def test_trace_summary_shape(trace_path):
    summary = trace_summary(trace_path)
    assert summary["trace_diff_schema"] == 1
    assert summary["steps"] > 0
    assert summary["tokens"] == 24
    assert summary["requests_finished"] == 6
    assert summary["tokens_per_sec"] > 0
    assert summary["wall_ms_per_step"]["step"] > 0
    cycles = summary["cycles_per_step"]
    assert cycles["total"] > 0
    assert cycles["total"] == pytest.approx(
        cycles["weights"] + cycles["attention"] + cycles["prefill"]
    )
    alive = summary["alive_fraction"]
    assert alive[0] == 1.0 and alive == sorted(alive, reverse=True)
    assert summary["unterminated_spans"] == 0


def test_self_diff_is_clean(trace_path):
    summary = trace_summary(trace_path)
    assert diff_summaries(summary, summary) == []


def test_detects_injected_slowdown(trace_path):
    """Scale the candidate's deterministic metrics the way a real
    regression would move them; every scaled axis must be flagged."""
    baseline = trace_summary(trace_path)
    slowed = json.loads(json.dumps(baseline))
    slowed["cycles_per_step"] = {
        k: v * 1.25 for k, v in slowed["cycles_per_step"].items()
    }
    slowed["wall_ms_per_step"] = {
        k: v * 3.0 for k, v in slowed["wall_ms_per_step"].items()
    }
    slowed["tokens_per_sec"] /= 3.0
    slowed["alive_fraction"] = [
        min(1.0, f + 0.1) for f in slowed["alive_fraction"]
    ]

    regressions = diff_summaries(baseline, slowed)
    metrics = {r.metric for r in regressions}
    assert "cycles_per_step.total" in metrics
    assert "wall_ms_per_step.step" in metrics
    assert "tokens_per_sec" in metrics
    assert any(m.startswith("alive_fraction[") for m in metrics)
    for regression in regressions:
        assert "REGRESSION" in regression.format()


def test_lifecycle_counts_gate_exactly(trace_path):
    """Fewer finished requests or tokens, or a leaked span, gate with no
    tolerance however small the move; the opposite moves never do."""
    baseline = trace_summary(trace_path)
    leaky = dict(
        baseline,
        requests_finished=baseline["requests_finished"] - 3,
        tokens=baseline["tokens"] - 1,
        unterminated_spans=baseline["unterminated_spans"] + 5,
    )
    metrics = {r.metric for r in diff_summaries(baseline, leaky)}
    assert metrics == {"requests_finished", "tokens", "unterminated_spans"}
    assert diff_summaries(leaky, baseline) == []


def test_improvements_never_gate(trace_path):
    baseline = trace_summary(trace_path)
    faster = json.loads(json.dumps(baseline))
    faster["cycles_per_step"] = {
        k: v * 0.5 for k, v in faster["cycles_per_step"].items()
    }
    faster["tokens_per_sec"] *= 2.0
    assert diff_summaries(baseline, faster) == []


def test_thresholds_are_respected(trace_path):
    baseline = trace_summary(trace_path)
    nudged = json.loads(json.dumps(baseline))
    nudged["cycles_per_step"] = {
        k: v * 1.04 for k, v in nudged["cycles_per_step"].items()
    }
    # default cycles_pct=5 tolerates a 4% drift...
    assert diff_summaries(baseline, nudged) == []
    # ...a tightened gate does not
    tight = DiffThresholds(cycles_pct=1.0)
    flagged = diff_summaries(baseline, nudged, tight)
    assert any(r.metric.startswith("cycles_per_step") for r in flagged)


def test_missing_metrics_are_skipped(trace_path):
    """A baseline without a cycle track cannot gate cycles (and vice
    versa) — partial summaries diff on their intersection only."""
    baseline = trace_summary(trace_path)
    bare = {
        k: v for k, v in baseline.items() if k != "cycles_per_step"
    }
    slowed = json.loads(json.dumps(baseline))
    slowed["cycles_per_step"] = {
        k: v * 10 for k, v in slowed["cycles_per_step"].items()
    }
    assert diff_summaries(bare, slowed) == []


def test_main_write_baseline_then_gate(trace_path, tmp_path, capsys):
    """The CLI contract CI scripts rely on: --write-baseline exits 0 and
    writes a loadable summary; diffing the trace against it exits 0;
    diffing against a corrupted (slowed) baseline copy exits 1."""
    baseline_path = tmp_path / "baseline.json"
    assert main([str(trace_path), "--write-baseline", str(baseline_path)]) == 0
    loaded = load_summary(baseline_path)
    assert loaded == trace_summary(trace_path)

    assert main([str(baseline_path), str(trace_path)]) == 0
    out = capsys.readouterr().out
    assert "no regression beyond thresholds" in out

    slowed = json.loads(baseline_path.read_text())
    # halve the *baseline's* cycles: the real trace now reads 2x slower
    slowed["cycles_per_step"] = {
        k: v / 2 for k, v in slowed["cycles_per_step"].items()
    }
    slowed_path = tmp_path / "slowed_baseline.json"
    slowed_path.write_text(json.dumps(slowed))
    assert main([str(slowed_path), str(trace_path)]) == 1
    assert "REGRESSION cycles_per_step" in capsys.readouterr().out


def test_main_requires_candidate(trace_path, capsys):
    with pytest.raises(SystemExit):
        main([str(trace_path)])
