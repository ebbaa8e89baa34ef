#!/usr/bin/env python3
"""The repo benchmark: four serving workloads, end to end and per layer.

    python3 benchmarks/e2e/run.py --workload NAME --seed N \\
        [--seconds S] [--trace 0|1] [--scale full|tiny] [--trace-out PATH]
    python3 benchmarks/e2e/run.py --selfcheck [N] [--vary-seed]

One run drives one workload (see README.md for the protocol and why):

1. set-up probes: fresh child interpreters, each timed from just before
   ``import repro`` to the first decoded token of the first request;
2. discarded warm-up repeats;
3. measured repeats — each a fresh stack replaying the identical trace,
   tracing off, garbage collector off, only scalars kept per step — at
   least nine and until ``--seconds`` have been measured;
4. one untimed model-and-verify repeat that prices every step report on
   the hardware model and checks the outputs;
5. with ``--trace 1``, one traced repeat for the per-layer numbers.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  Metric names,
units and bounds live in ``BENCHMARK.json`` at the repository root.

Single process, single thread: the BLAS/OpenMP thread counts are pinned
to one before NumPy loads, and the program starts no workers.
"""

from __future__ import annotations

import os
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
for _path in (SRC, HERE):
    if _path not in sys.path:
        sys.path.insert(0, _path)

import argparse
import gc
import json
import resource
import statistics
import subprocess
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import e2e_inputs

#: (set-up probes, warm-up repeats, minimum measured repeats) per scale
PROTOCOL = {"full": (9, 2, 9), "tiny": (1, 1, 2)}
MAX_REPEATS = 40
HOST_TIMED = (
    "setup_s", "host_tok_s", "host_itl_ms_p50", "host_ttft_ms_p50",
    "host_peak_rss_mb",
)


def load_manifest() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def _quiet_floor(rows: Sequence[Sequence[float]]) -> List[float]:
    """Per position, the fastest of the repeats.

    The trace is deterministic, so position *j* is the same step (or the
    same token gap of the same request) in every repeat.  Noise on this
    shared box is one-sided and bursty — a neighbour slows a few hundred
    milliseconds of a repeat — so the per-position minimum is the time on
    an otherwise quiet machine, and it is far steadier run to run than the
    median of whole repeats (see README.md).
    """
    if len({len(row) for row in rows}) != 1:
        raise RuntimeError("repeats of one trace differ in length")
    return [min(column) for column in zip(*rows)]


@dataclass
class RunOutcome:
    """Everything one run produced; ``result`` is the contract's line."""

    result: dict
    info: dict
    failures: list = field(default_factory=list)
    recorder: object = None  # SpanRecorder of the traced repeat


def probe_setup(workload: str, seed: int, scale: str) -> float:
    """Child-interpreter body: inputs first, then the clock, then the
    program — import, stack construction, lazy pool/arena/backend
    initialisation and the first prefill all land in the interval."""
    spec = e2e_inputs.SPECS[scale][workload]
    first = e2e_inputs.Workload(spec, seed).request(0)
    start = time.perf_counter()
    import e2e_drive  # imports repro

    e2e_drive.first_token(spec, first)
    return time.perf_counter() - start


def _run_probes(workload: str, seed: int, scale: str, count: int) -> List[float]:
    command = [
        sys.executable, os.path.abspath(__file__), "--probe-setup",
        "--workload", workload, "--seed", str(seed), "--scale", scale,
    ]
    values = []
    for _ in range(count):
        done = subprocess.run(
            command, check=True, capture_output=True, text=True, timeout=120
        )
        values.append(float(done.stdout.strip().splitlines()[-1]))
    return values


def _timed_repeat(spec, requests, observer=None):
    import e2e_drive

    gc.collect()
    gc.disable()
    try:
        return e2e_drive.run_repeat(spec, requests, observer)
    finally:
        gc.enable()


def _measure(spec, requests, scale: str, seconds: float) -> list:
    """Warm-up, then the measured repeats: at least the protocol's
    minimum, and more until ``seconds`` have been measured."""
    _, n_warmup, min_repeats = PROTOCOL[scale]
    for _ in range(n_warmup):
        _timed_repeat(spec, requests)
    repeats = []
    started = time.perf_counter()
    while len(repeats) < min_repeats or (
        time.perf_counter() - started < seconds and len(repeats) < MAX_REPEATS
    ):
        # only the scalars survive the iteration: the stack dies here, so
        # two arenas are never alive at once
        repeats.append(_timed_repeat(spec, requests)[0])
    return repeats


def _model_and_verify(spec, requests):
    """The untimed repeat: price every step report, record and verify the
    outputs.  Returns the modelled/computed metrics, the output digest and
    the verification failures."""
    import e2e_model
    import e2e_verify

    recorder = e2e_verify.OutputRecorder(len(requests))
    pricer = e2e_model.Pricer(spec)

    def observe(stack, reports) -> None:
        recorder(stack, reports)
        pricer(stack, reports)

    stats, stack = _timed_repeat(spec, requests, observe)
    failures = e2e_verify.verify(spec, requests, recorder, stack, stats.unfinished)
    counters = [engine.counter for engine in stack.engines]
    values = {
        **pricer.end_to_end(),
        "kv_access_reduction": (
            sum(c.baseline_k_bits + c.baseline_v_bits for c in counters)
            / sum(c.k_bits + c.v_bits for c in counters)
        ),
        "pruning_ratio": (
            sum(c.baseline_v_bits for c in counters)
            / sum(c.v_bits for c in counters)
        ),
    }
    return values, recorder.digest(), failures


def _trace_layers(spec, requests, repeats, itl, trace_out: Optional[str]):
    """The traced repeat: every per-layer metric, plus the recorder."""
    import e2e_model
    import e2e_spans
    from e2e_drive import percentile

    recorder = e2e_spans.SpanRecorder()
    sampler = e2e_spans.StepSampler()
    pricer = e2e_model.Pricer(spec)

    def observe(stack, reports) -> None:
        sampler(stack, reports)
        pricer(stack, reports)

    with recorder.installed():
        stats, stack = _timed_repeat(spec, requests, observe)
    values = e2e_spans.layer_metrics(recorder, sampler, stack)
    values.update(
        (f"hw.{name}_cycle_frac", share)
        for name, share in pricer.cycle_fractions().items()
    )
    # pricing ran inside the traced repeat's wall but is not the program:
    # take it out before comparing with the untraced median
    pricing = sum(
        s[e2e_spans.END] - s[e2e_spans.START]
        for s in recorder.spans
        if s[e2e_spans.LAYER] == "hw" and s[e2e_spans.PARENT] < 0
    )
    walls = [r.wall_s for r in repeats]
    values.update({
        "host.itl_ms_p95": 1e3 * percentile(itl, 95),
        "bench.trace_overhead_frac": (
            (stats.wall_s - pricing) / statistics.median(walls) - 1.0
        ),
        "bench.steal_frac": 1.0 - sum(r.cpu_s for r in repeats) / sum(walls),
        "bench.repeat_cv": statistics.pstdev(walls) / statistics.fmean(walls),
        "bench.itl_samples": len(itl),
    })
    if trace_out:
        with open(trace_out, "w") as handle:
            json.dump(recorder.to_json(), handle)
    return values, recorder, stats


def run_workload(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    scale: str = "full",
    trace_out: Optional[str] = None,
) -> RunOutcome:
    manifest = load_manifest()
    spec = e2e_inputs.SPECS[scale][workload]
    requests = e2e_inputs.Workload(spec, seed).requests()

    # where the run's own time went, for sizing against the driver's cap
    phase_s: Dict[str, float] = {}
    mark = time.perf_counter()

    def lap(phase: str) -> None:
        nonlocal mark
        now = time.perf_counter()
        phase_s[phase] = round(now - mark, 2)
        mark = now

    # set-up is an end-to-end metric only; probes run first, while this
    # process has not loaded the program and is otherwise idle
    setup = [] if trace else _run_probes(workload, seed, scale, PROTOCOL[scale][0])
    lap("probes")
    from e2e_drive import percentile

    repeats = _measure(spec, requests, scale, seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    lap("measured")
    tokens = repeats[0].tokens
    segments = _quiet_floor([r.segments_s for r in repeats])
    itl = _quiet_floor([[g for gaps in r.itl_s for g in gaps] for r in repeats])
    ttft = _quiet_floor([r.ttft_s for r in repeats])

    modelled, digest, failures = _model_and_verify(spec, requests)
    lap("verify")
    # the verify repeat's unfinished requests are already among its
    # failures; these are the other repeats that ran to drain
    drained = list(repeats)

    info = {
        "workload": workload,
        "seed": seed,
        "scale": scale,
        "output_digest": digest,
        "measured_repeats": len(repeats),
        "repeat_wall_s": [round(r.wall_s, 4) for r in repeats],
        # throughput without the quiet floor: median of whole repeats
        "median_repeat_tok_s": round(
            tokens / statistics.median(r.wall_s for r in repeats), 2
        ),
        "itl_samples": len(itl),
        "ttft_samples": len(ttft),
        "steps_per_repeat": repeats[0].steps,
        "tokens_per_repeat": tokens,
        "phase_s": phase_s,
    }
    recorder = None
    if trace:
        values, recorder, traced = _trace_layers(
            spec, requests, repeats, itl, trace_out
        )
        lap("traced")
        drained.append(traced)
        failures.extend(
            (None, f"trace: {error}") for error in recorder.nesting_errors()
        )
        info["missing_trace_targets"] = recorder.missing
        info["spans"] = len(recorder.spans)
        declared = manifest["per_layer"]
    else:
        values = {
            "setup_s": statistics.median(setup),
            "host_tok_s": tokens / sum(segments),
            "host_itl_ms_p50": 1e3 * percentile(itl, 50),
            "host_ttft_ms_p50": 1e3 * percentile(ttft, 50),
            "host_peak_rss_mb": peak_rss_mb,
            **modelled,
        }
        info["setup_probe_s"] = [round(s, 4) for s in setup]
        declared = manifest["end_to_end"]
    failures.extend(
        (i, "not FINISHED with every token") for r in drained for i in r.unfinished
    )

    units = {m["name"]: m["unit"] for m in declared}
    if set(units) != set(values):
        raise SystemExit(
            "metric names differ from BENCHMARK.json: "
            f"{sorted(set(units) ^ set(values))}"
        )
    result = {
        "correct": not failures,
        # every repeat, the verify repeat too, submits every request once
        "attempted": (len(drained) + 1) * len(requests),
        "failed": len(failures),
        "metrics": {
            name: {"value": values[name], "unit": unit}
            for name, unit in units.items()
        },
    }
    return RunOutcome(result, info, failures, recorder)


def _print_outcome(outcome: RunOutcome) -> None:
    for index, reason in outcome.failures:
        print(f"FAILED request {index}: {reason}")
    for name, metric in outcome.result["metrics"].items():
        print(f"{name:36s} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({"info": outcome.info}))
    print(json.dumps(outcome.result))


# ------------------------------------------------------------------ selfcheck
def _child_run(workload: str, seed: int, seconds: float, scale: str):
    done = subprocess.run(
        [
            sys.executable, os.path.abspath(__file__), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--scale", scale,
            "--trace", "0",
        ],
        check=True, capture_output=True, text=True, timeout=600,
    )
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2])["info"]


def selfcheck(n_runs: int, seed: int, seconds: float, scale: str, vary_seed: bool) -> int:
    """Run every workload ``n_runs`` times back to back, each in a fresh
    process as the driver does.

    Same seed (default): every exact metric and the output digest must be
    identical, and (max - min) / median of every host-timed metric must
    stay within its bound.  ``--vary-seed``: run *i* uses ``seed + i`` and
    the statistic is the contract's — the distance between the first and
    third quartile over the median, which must stay within the bound.
    """
    manifest = load_manifest()
    bounds = {m["name"]: m["bound"] for m in manifest["end_to_end"]}
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    print(f"nproc {os.cpu_count()}  loadavg {os.getloadavg()}  "
          f"numpy {numpy.__version__}  blas {blas['name']} {blas['version']}  "
          f"seconds {seconds}  scale {scale}")
    status = 0
    for workload in e2e_inputs.WORKLOAD_NAMES:
        runs, infos = [], []
        for i in range(n_runs):
            result, info = _child_run(
                workload, seed + i if vary_seed else seed, seconds, scale
            )
            runs.append(result)
            infos.append(info)
        print(f"\n{workload}: {n_runs} runs, "
              f"repeats {[i['measured_repeats'] for i in infos]}")
        if not all(r["correct"] for r in runs):
            print("  FAIL: a run reported failed requests")
            status = 1
        if not vary_seed and len({i["output_digest"] for i in infos}) != 1:
            print("  FAIL: output_digest differs between runs")
            status = 1
        for name, bound in bounds.items():
            series = [r["metrics"][name]["value"] for r in runs]
            median = statistics.median(series)
            if vary_seed:
                q1, _, q3 = statistics.quantiles(series, n=4)
                spread = (q3 - q1) / median
            else:
                spread = (max(series) - min(series)) / median
            verdict = "ok"
            if name not in HOST_TIMED and not vary_seed:
                if spread != 0.0:
                    verdict = "FAIL: exact metric differs"
            elif spread > bound and name != "setup_s":  # the driver exempts it
                verdict = "FAIL: spread above bound"
            if verdict != "ok":
                status = 1
            print(f"  {name:22s} median {median:12.6g}  spread {spread:7.4f}  "
                  f"bound {bound:5.2f}  {verdict}")
    print(f"\nloadavg at end {os.getloadavg()}")
    return status


def main(argv: Optional[Sequence[str]] = None) -> int:
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: the program's sources are not at {SRC}", file=sys.stderr)
        return 2
    manifest = load_manifest()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=e2e_inputs.WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=manifest["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=tuple(PROTOCOL), default="full")
    parser.add_argument("--trace-out", help="write the traced repeat's spans here")
    parser.add_argument("--selfcheck", type=int, nargs="?", const=3, default=0,
                        metavar="N", help="run every workload N times (default 3)")
    parser.add_argument("--vary-seed", action="store_true",
                        help="selfcheck: one seed per run, quartile spread")
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.selfcheck:
        return selfcheck(
            args.selfcheck, args.seed, args.seconds, args.scale, args.vary_seed
        )
    if args.workload is None:
        parser.error("--workload is required")
    if args.probe_setup:
        print(repr(probe_setup(args.workload, args.seed, args.scale)))
        return 0
    outcome = run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace),
        args.scale, args.trace_out,
    )
    _print_outcome(outcome)
    return 0


if __name__ == "__main__":
    sys.exit(main())
