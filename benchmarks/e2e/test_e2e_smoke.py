"""Smoke test of the repo benchmark at ``--scale tiny`` (sub-second
repeats, 1 warm-up + 2 measured, 1 set-up probe): the metric names match
``BENCHMARK.json``, modelled metrics and the output digest repeat
exactly, verification passes, the trace closes, and layers a workload
bypasses report zero.  Timing values are not asserted here.
"""

import importlib.util
import json
import os
import re
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SEED = 3

_spec = importlib.util.spec_from_file_location(
    "e2e_bench_run", os.path.join(HERE, "run.py")
)
bench = importlib.util.module_from_spec(_spec)
sys.modules[_spec.name] = bench
_spec.loader.exec_module(bench)  # also puts src/ and this directory on sys.path

import e2e_inputs  # noqa: E402
import e2e_spans  # noqa: E402
import e2e_verify  # noqa: E402

EXACT = (
    "modelled_tok_s", "modelled_itl_ms_p95", "modelled_speedup",
    "kv_access_reduction", "pruning_ratio",
)
STACK_ONLY = ("tiers.", "radix.", "router.", "memory.", "shard.", "frontend.")
ENGINE_ONLY_WORKLOADS = ("decode_calibrated", "decode_long_peaked", "prefill_churn")


@pytest.fixture(scope="module")
def manifest():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def runs():
    """Two end-to-end runs and one traced run of every workload."""
    out = {}
    for name in e2e_inputs.WORKLOAD_NAMES:
        out[name] = (
            bench.run_workload(name, SEED, 0.0, False, "tiny"),
            bench.run_workload(name, SEED, 0.0, False, "tiny"),
            bench.run_workload(name, SEED, 0.0, True, "tiny"),
        )
    return out


def test_manifest_meets_the_contract(manifest):
    assert set(manifest) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert manifest["paths"] == ["benchmarks/e2e"]
    assert manifest["command"][1].startswith(manifest["paths"][0] + "/")
    assert 1 <= manifest["run_seconds"] <= 60
    assert [w["name"] for w in manifest["workloads"]] == list(
        e2e_inputs.WORKLOAD_NAMES
    )
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
             for m in manifest[key]]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n) for n in names)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in manifest["workloads"])
    assert 1 <= len(manifest["end_to_end"]) <= 16
    assert 1 <= len(manifest["per_layer"]) <= 128
    for metric in manifest["end_to_end"] + manifest["per_layer"]:
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", metric["unit"])
        assert metric["better"] in ("lower", "higher")
    assert all(0 <= m["bound"] <= 0.25 for m in manifest["end_to_end"])
    setup = [m for m in manifest["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in manifest["end_to_end"])


@pytest.mark.parametrize("workload", e2e_inputs.WORKLOAD_NAMES)
def test_names_match_and_exact_metrics_repeat(workload, runs, manifest):
    first, second, traced = runs[workload]
    assert set(first.result["metrics"]) == {m["name"] for m in manifest["end_to_end"]}
    assert set(traced.result["metrics"]) == {m["name"] for m in manifest["per_layer"]}
    for outcome in (first, second, traced):
        assert outcome.failures == []
        assert outcome.result["correct"] and outcome.result["failed"] == 0
        assert outcome.result["attempted"] >= 1
        assert set(outcome.result) == {"correct", "attempted", "failed", "metrics"}
    digests = {o.info["output_digest"] for o in (first, second, traced)}
    assert len(digests) == 1
    for name in EXACT:
        assert (first.result["metrics"][name]["value"]
                == second.result["metrics"][name]["value"]), name
    for metric in first.result["metrics"].values():
        assert metric["value"] > 0


def test_second_seed_same_names_different_outputs(runs):
    first = runs["decode_calibrated"][0]
    other = bench.run_workload("decode_calibrated", SEED + 1, 0.0, False, "tiny")
    assert set(other.result["metrics"]) == set(first.result["metrics"])
    assert other.result["correct"]
    assert other.info["output_digest"] != first.info["output_digest"]


@pytest.mark.parametrize("workload", e2e_inputs.WORKLOAD_NAMES)
def test_trace_nests_and_closes_every_engine_step(workload, runs):
    recorder = runs[workload][2].recorder
    assert recorder.missing == []
    assert recorder.nesting_errors() == []
    spans = recorder.spans
    durations, own = recorder.durations(), recorder.self_times()
    children = [0.0] * len(spans)
    for span, duration in zip(spans, durations):
        if span[e2e_spans.PARENT] >= 0:
            children[span[e2e_spans.PARENT]] += duration
    steps = [i for i, s in enumerate(spans) if s[:2] == ["engine", "step"]]
    assert steps
    for i in steps:
        assert own[i] >= 0.0
        assert abs(own[i] + children[i] - durations[i]) < 1e-9


@pytest.mark.parametrize("workload", ENGINE_ONLY_WORKLOADS)
def test_bypassed_layers_report_zero(workload, runs):
    metrics = runs[workload][2].result["metrics"]
    for name, metric in metrics.items():
        if name.startswith(STACK_ONLY):
            assert metric["value"] == 0, name
    assert metrics["hw.allgather_cycle_frac"]["value"] == 0
    assert metrics["hw.slow_tier_cycle_frac"]["value"] == 0
    assert metrics["core.kernel_calls"]["value"] > 0


def test_the_stack_workload_reaches_every_layer(runs):
    traced = runs["stack_shared_prefix"][2]
    metrics = {k: v["value"] for k, v in traced.result["metrics"].items()}
    for name in (
        "tiers.demotions", "tiers.promotions", "radix.hit_frac",
        "router.submit_ms_per_req", "memory.preemptions", "memory.resumes",
        "kv_pool.swaps", "shard.run_ms_per_step", "shard.allgather_reduction",
        "hw.allgather_cycle_frac", "hw.slow_tier_cycle_frac",
        "frontend.submit_ms_per_req", "frontend.self_ms_per_step",
    ):
        assert metrics[name] > 0, name
    assert metrics["frontend.events_streamed"] == traced.info["tokens_per_repeat"]


def test_eq5_check_catches_a_wrongly_pruned_token():
    spec = e2e_inputs.SPECS["tiny"]["decode_calibrated"]
    inputs = e2e_inputs.Workload(spec, SEED).request(0)
    step = spec.new_tokens - 1
    result = e2e_verify.replay_session(inputs, spec)[step]
    assert e2e_verify.check_eq5(inputs, step, result) == []
    best = int(np.argmax(result.probs[0]))
    result.kept[0, best] = False  # prune the head's most probable token
    assert e2e_verify.check_eq5(inputs, step, result)


def test_fails_without_the_program(tmp_path):
    """In a directory holding only BENCHMARK.json and the benchmark's own
    files, the command exits non-zero and prints no result."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        HERE, tmp_path / "benchmarks" / "e2e",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    done = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload",
         "decode_calibrated", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
