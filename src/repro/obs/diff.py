"""Compare two trace artifacts (or a trace against a committed baseline
summary) and flag regressions — the observability layer's CI gate.

A trace records two clocks: measured wall time (noisy — a loaded runner
can double it) and modelled hardware cycles (deterministic for a seeded
run — the paper's actual claim).  The diff treats them accordingly:
every check carries its own threshold, so CI gates *tightly* on the
deterministic metrics (modelled cycles, per-round alive fractions) and
*loosely* on wall time.  Three lifecycle counts gate exactly, with no
threshold: finished requests and decoded tokens may not fall, and
unterminated spans may not rise.

Usage::

    # summarize one trace into a committed baseline
    python -m repro.obs.diff run.jsonl --write-baseline baseline.json

    # gate a new trace against it (exit 1 on any regression)
    python -m repro.obs.diff baseline.json run2.jsonl \
        --max-wall-pct 300 --max-cycles-pct 2 --max-alive-drift 0.02

Either positional may be a trace artifact (``.json`` Perfetto,
``.jsonl``/``.jsonl.gz`` span log) or a summary JSON previously written
with ``--write-baseline`` (recognised by its ``trace_diff_schema``
marker).  Improvements are reported but never gate.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

from repro.obs.analyze import analyze, load_events
from repro.obs.trace import PHASE_ORDER, SCORE_SUBPHASES

__all__ = [
    "DiffThresholds",
    "Regression",
    "trace_summary",
    "load_summary",
    "diff_summaries",
    "main",
]

#: phases aggregated from the wall-clock ``phases`` track
_WALL_PHASES = PHASE_ORDER + SCORE_SUBPHASES

#: modelled-cycle fields aggregated from the dual-clock track
_CYCLE_FIELDS = (
    "total_cycles",
    "weights_cycles",
    "attention_cycles",
    "allgather_cycles",
    "prefill_cycles",
)

#: a wall phase below this many ms/step is noise, not signal
_WALL_FLOOR_MS = 0.02


@dataclass(frozen=True)
class DiffThresholds:
    """Per-metric regression tolerances (a regression must exceed its
    threshold to gate; smaller deltas are reported as within-noise)."""

    #: max allowed % increase in any wall metric (phase ms/step, p95s)
    wall_pct: float = 50.0
    #: max allowed % increase in modelled cycles per step (deterministic
    #: for a seeded run — keep this tight)
    cycles_pct: float = 5.0
    #: max allowed absolute drift in any per-round alive fraction
    alive_drift: float = 0.02
    #: max allowed % decrease in tokens per second
    throughput_pct: float = 50.0


@dataclass(frozen=True)
class Regression:
    """One metric that moved past its threshold in the bad direction."""

    metric: str
    baseline: float
    candidate: float
    delta_pct: float
    threshold_pct: float

    def format(self) -> str:
        return (
            f"REGRESSION {self.metric}: {self.baseline:g} -> "
            f"{self.candidate:g} ({self.delta_pct:+.1f}%, allowed "
            f"{self.threshold_pct:.1f}%)"
        )


def trace_summary(path) -> Dict[str, object]:
    """Reduce one trace artifact to the flat digest the diff compares.

    Aggregated across replicas (a revived incarnation already folds into
    its slot in :mod:`repro.obs.analyze`): step counts and wall
    per-phase ms/step from the span geometry, modelled cycles per step
    from the dual-clock track, the fleet alive-fraction profile, and the
    p95 request-latency metrics.
    """
    events = load_events(path)
    analysis = analyze(events)

    steps = 0
    wall_total_s = 0.0
    tokens = 0
    phase_s: Dict[str, float] = {}
    for event in events:
        if event["ph"] != "X":
            continue
        if event["name"] == "engine_step":
            steps += 1
            args = event["args"]
            wall_total_s += float(args.get("wall_seconds", event["dur_s"]))
            tokens += int(args.get("tokens", 0))
        elif event["thread"] == "phases" and event["name"] in _WALL_PHASES:
            phase_s[event["name"]] = (
                phase_s.get(event["name"], 0.0) + event["dur_s"]
            )

    summary: Dict[str, object] = {
        "trace_diff_schema": 1,
        "steps": steps,
        "tokens": tokens,
        "requests_finished": sum(
            1 for r in analysis.requests if r.state == "finished"
        ),
        "unterminated_spans": len(analysis.unterminated),
    }
    if steps and wall_total_s > 0:
        summary["tokens_per_sec"] = tokens / wall_total_s
        summary["wall_ms_per_step"] = {
            "step": 1e3 * wall_total_s / steps,
            **{
                name: 1e3 * seconds / steps
                for name, seconds in sorted(phase_s.items())
            },
        }

    # modelled cycles: sum over replicas, normalised per modelled step
    modelled_steps = sum(
        t["steps"]
        for p, t in analysis.modelled.items()
        if p != "cluster"  # the cluster span re-counts replica traffic
    )
    if modelled_steps:
        cycles: Dict[str, float] = {}
        for field in _CYCLE_FIELDS:
            total = sum(
                t.get(field, 0)
                for p, t in analysis.modelled.items()
                if p != "cluster"
            )
            cycles[field.replace("_cycles", "")] = total / modelled_steps
        summary["cycles_per_step"] = cycles
        summary["modelled_steps"] = modelled_steps

    # fleet alive-fraction profile: elementwise sum over replicas
    fleet: List[int] = []
    for totals in analysis.round_alive.values():
        if len(fleet) < len(totals):
            fleet.extend([0] * (len(totals) - len(fleet)))
        for i, count in enumerate(totals):
            fleet[i] += count
    if fleet and fleet[0]:
        summary["alive_fraction"] = [
            round(count / fleet[0], 6) for count in fleet
        ]

    p95s: Dict[str, float] = {}
    for name in ("ttft_seconds", "token_latency_seconds", "e2e_seconds"):
        values = [
            metric.summary()
            for _, _, metric in analysis.registry.series(name)
        ]
        counted = [s for s in values if s.get("count")]
        if counted:
            p95s[f"{name}_p95_ms"] = 1e3 * max(s["p95"] for s in counted)
    if p95s:
        summary["slo_p95"] = p95s
    return summary


def load_summary(path) -> Dict[str, object]:
    """Load either input form: a trace artifact is summarised on the
    fly; a JSON carrying the ``trace_diff_schema`` marker is a committed
    baseline and loads verbatim."""
    path = Path(path)
    if path.suffix == ".json":
        record = json.loads(path.read_text())
        if isinstance(record, dict) and "trace_diff_schema" in record:
            return record
    return trace_summary(path)


def _pct(baseline: float, candidate: float) -> float:
    return 100.0 * (candidate - baseline) / baseline


def diff_summaries(
    baseline: Dict[str, object],
    candidate: Dict[str, object],
    thresholds: Optional[DiffThresholds] = None,
) -> List[Regression]:
    """Every metric that regressed past its threshold (empty = gate
    passes).  Metrics present in only one summary are skipped — a
    baseline without a cycle track cannot gate cycles."""
    t = thresholds or DiffThresholds()
    out: List[Regression] = []

    def check_increase(metric, base, cand, pct_allowed):
        if base is None or cand is None or base <= 0:
            return
        delta = _pct(float(base), float(cand))
        if delta > pct_allowed:
            out.append(
                Regression(metric, float(base), float(cand), delta,
                           pct_allowed)
            )

    # lifecycle counts are exact for a seeded run: any move the wrong way
    # (a request that no longer finishes, a lost token, a leaked span)
    # gates, with no threshold
    for metric, sign in (
        ("requests_finished", -1), ("tokens", -1), ("unterminated_spans", 1),
    ):
        base, cand = baseline.get(metric), candidate.get(metric)
        if base is not None and cand is not None and sign * (cand - base) > 0:
            out.append(
                Regression(
                    metric, float(base), float(cand),
                    _pct(base, cand) if base else float("inf"), 0.0,
                )
            )

    base_tps = baseline.get("tokens_per_sec")
    cand_tps = candidate.get("tokens_per_sec")
    if base_tps and cand_tps:
        drop = -_pct(float(base_tps), float(cand_tps))
        if drop > t.throughput_pct:
            out.append(
                Regression(
                    "tokens_per_sec", float(base_tps), float(cand_tps),
                    -drop, t.throughput_pct,
                )
            )

    base_wall = baseline.get("wall_ms_per_step") or {}
    cand_wall = candidate.get("wall_ms_per_step") or {}
    for name in sorted(set(base_wall) & set(cand_wall)):
        if max(base_wall[name], cand_wall[name]) < _WALL_FLOOR_MS:
            continue
        check_increase(
            f"wall_ms_per_step.{name}", base_wall[name], cand_wall[name],
            t.wall_pct,
        )

    base_cycles = baseline.get("cycles_per_step") or {}
    cand_cycles = candidate.get("cycles_per_step") or {}
    for name in sorted(set(base_cycles) & set(cand_cycles)):
        if not base_cycles[name]:
            continue
        check_increase(
            f"cycles_per_step.{name}", base_cycles[name], cand_cycles[name],
            t.cycles_pct,
        )

    for name, key in (("ttft_seconds_p95_ms", "slo_p95"),
                      ("token_latency_seconds_p95_ms", "slo_p95"),
                      ("e2e_seconds_p95_ms", "slo_p95")):
        base = (baseline.get(key) or {}).get(name)
        cand = (candidate.get(key) or {}).get(name)
        check_increase(f"{key}.{name}", base, cand, t.wall_pct)

    base_alive = baseline.get("alive_fraction")
    cand_alive = candidate.get("alive_fraction")
    if base_alive and cand_alive:
        for i in range(min(len(base_alive), len(cand_alive))):
            drift = abs(float(cand_alive[i]) - float(base_alive[i]))
            if drift > t.alive_drift:
                out.append(
                    Regression(
                        f"alive_fraction[{i}]",
                        float(base_alive[i]),
                        float(cand_alive[i]),
                        _pct(float(base_alive[i]), float(cand_alive[i]))
                        if base_alive[i]
                        else float("inf"),
                        100.0 * t.alive_drift,
                    )
                )
        if len(base_alive) != len(cand_alive):
            out.append(
                Regression(
                    "alive_fraction.rounds",
                    float(len(base_alive)),
                    float(len(cand_alive)),
                    _pct(len(base_alive), len(cand_alive)),
                    0.0,
                )
            )
    return out


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.diff",
        description="Diff two trace artifacts (or a trace against a "
        "committed baseline summary) and exit 1 on regression.",
    )
    parser.add_argument(
        "baseline",
        help="trace artifact (.json/.jsonl[.gz]) or baseline summary JSON",
    )
    parser.add_argument(
        "candidate",
        nargs="?",
        help="trace artifact or summary to compare against the baseline "
        "(omit with --write-baseline to just summarise)",
    )
    parser.add_argument(
        "--write-baseline",
        metavar="PATH",
        help="write the FIRST positional's summary to PATH and exit 0",
    )
    defaults = DiffThresholds()
    parser.add_argument(
        "--max-wall-pct", type=float, default=defaults.wall_pct,
        help="max %% increase allowed in wall metrics (phase ms/step, "
        f"p95 latencies); default {defaults.wall_pct:g}",
    )
    parser.add_argument(
        "--max-cycles-pct", type=float, default=defaults.cycles_pct,
        help="max %% increase allowed in modelled cycles per step "
        f"(deterministic — keep tight); default {defaults.cycles_pct:g}",
    )
    parser.add_argument(
        "--max-alive-drift", type=float, default=defaults.alive_drift,
        help="max absolute drift allowed per alive fraction; default "
        f"{defaults.alive_drift:g}",
    )
    parser.add_argument(
        "--max-throughput-drop-pct", type=float,
        default=defaults.throughput_pct,
        help="max %% tokens/sec drop allowed; default "
        f"{defaults.throughput_pct:g}",
    )
    args = parser.parse_args(sys.argv[1:] if argv is None else argv)

    if args.write_baseline:
        summary = load_summary(args.baseline)
        Path(args.write_baseline).write_text(
            json.dumps(summary, indent=2, sort_keys=True) + "\n"
        )
        print(f"wrote baseline summary to {args.write_baseline}")
        return 0
    if args.candidate is None:
        parser.error("candidate is required unless --write-baseline is set")

    baseline = load_summary(args.baseline)
    candidate = load_summary(args.candidate)
    thresholds = DiffThresholds(
        wall_pct=args.max_wall_pct,
        cycles_pct=args.max_cycles_pct,
        alive_drift=args.max_alive_drift,
        throughput_pct=args.max_throughput_drop_pct,
    )
    regressions = diff_summaries(baseline, candidate, thresholds)

    compared = sorted(
        set(baseline) & set(candidate) - {"trace_diff_schema"}
    )
    print(
        f"trace diff: {args.baseline} (baseline) vs {args.candidate} "
        f"(candidate); compared {', '.join(compared)}"
    )
    for key in ("steps", "tokens", "requests_finished", "unterminated_spans"):
        if key in baseline and key in candidate:
            print(f"  {key}: {baseline[key]} -> {candidate[key]}")
    if not regressions:
        print("  no regression beyond thresholds")
        return 0
    for regression in regressions:
        print("  " + regression.format())
    return 1


if __name__ == "__main__":
    raise SystemExit(main())
