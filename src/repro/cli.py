"""Command-line entry point: regenerate any table or figure, or serve.

Usage::

    tokenpicker fig2            # memory breakdown
    tokenpicker fig3            # score-distribution variability
    tokenpicker fig4            # locality heatmap + margins
    tokenpicker fig8            # normalized DRAM access + PPL
    tokenpicker fig9            # SpAtten comparison
    tokenpicker fig10           # speedup + energy
    tokenpicker table1 table2   # hardware configuration, area/power
    tokenpicker all             # everything

``fig4``/``fig8``/``fig9``/``fig10`` need the reference LM; the first run
trains it (about a minute) and caches the weights under ``.cache/``.

``tokenpicker serve`` runs the serving stack — a
:class:`~repro.cluster.router.ClusterRouter` of ``--replicas`` (default 1)
continuous-batching engines — on a bursty synthetic trace and prices its
fullest step as a fleet on the modelled hardware.  ``--slo-p95-ms`` or
``--deadline`` put the async streaming frontend in front of the router;
``--inject-faults`` kills and revives replicas on a seeded schedule and
checks the outputs against a fault-free rerun::

    tokenpicker serve --batch-size 16 --n-requests 48
    tokenpicker serve --replicas 4 --profile
    tokenpicker serve --slo-p95-ms 1.0 --profile
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import List, Optional

EXPERIMENTS = ("fig2", "fig3", "fig4", "fig8", "fig9", "fig10", "table1", "table2")


def _run_one(name: str, fast: bool) -> str:
    from repro.eval import experiments as ex

    if name == "fig2":
        return ex.run_fig2().format()
    if name == "fig3":
        return ex.run_fig3().format()
    if name == "fig4":
        return ex.run_fig4().format()
    if name == "fig8":
        return ex.run_fig8(
            n_instances=3 if fast else 8, measure_ppl=not fast
        ).format()
    if name == "fig9":
        return ex.run_fig9(n_instances=3 if fast else 8).format()
    if name == "fig10":
        return ex.run_fig10(n_instances=2 if fast else 4).format()
    if name == "table1":
        return ex.run_table1().format()
    if name == "table2":
        return ex.run_table2().format()
    raise KeyError(name)


def _trace_paths(args):
    """``(perfetto_path, span_log_path)`` from ``--trace-out PATH``.

    PATH names the Perfetto file; the span log lands next to it with a
    ``.jsonl`` suffix.  If PATH itself ends in ``.jsonl`` (or
    ``.jsonl.gz`` — the gzip-compressed span log) the roles swap so
    neither artifact clobbers the other.
    """
    from pathlib import Path

    out = Path(args.trace_out)
    if out.name.endswith(".jsonl.gz"):
        return out.with_name(out.name[: -len(".jsonl.gz")] + ".json"), out
    span_log = out.with_suffix(".jsonl")
    if span_log == out:
        out = out.with_suffix(".json")
    return out, span_log


def _tracer_from_args(args):
    """``Tracer | None`` from the ``--trace-out``/``--trace-sample``/
    ``--trace-stream`` flags."""
    if not args.trace_out:
        return None
    from repro.obs import Tracer

    sink = None
    if args.trace_stream:
        from repro.obs import JsonlStreamingSink

        _, span_log = _trace_paths(args)
        sink = JsonlStreamingSink(span_log)
    return Tracer(sample_steps=max(1, args.trace_sample), sink=sink)


def _write_trace_artifacts(tracer, args) -> List[str]:
    """Flush the tracer to disk: Perfetto JSON + lossless JSONL span log.

    Buffered (default): both artifacts are written from memory here.
    Streamed (``--trace-stream``): the span log is already on disk —
    close the sink, then project the streamed records into the Perfetto
    view post-hoc.
    """
    if tracer is None:
        return []
    import json
    from pathlib import Path

    out, span_log = _trace_paths(args)
    if args.trace_stream:
        from repro.obs import load_events, span_records_to_perfetto

        tracer.close()
        Path(out).write_text(
            json.dumps(span_records_to_perfetto(load_events(span_log)))
        )
        line = (
            f"  trace: {span_log} (streamed span log, peak "
            f"{tracer.peak_open_spans} open) -> {out} (Perfetto)"
        )
    else:
        tracer.write_trace(out)
        tracer.write_span_log(span_log)
        line = f"  trace: {out} (Perfetto) + {span_log} (span log)"
    if tracer.errors:
        line += f"  [{len(tracer.errors)} span errors]"
    return [line]


def _run_under_frontend(args, router, trace):
    """Drive ``trace`` through the async frontend (request *i* enters
    once the frontend has run its arrival step, at once while the router
    idles); returns the router's step reports and the frontend lines."""
    import asyncio

    from repro.serving import AsyncStreamingFrontend, SLOConfig, ShedError

    slo = None
    if args.slo_p95_ms > 0:
        slo = SLOConfig(p95_inter_token_ms=args.slo_p95_ms)
    frontend = AsyncStreamingFrontend(router, slo=slo)
    reports = []
    step = router.step

    def recorded_step():
        reports.append(step())
        return reports[-1]

    router.step = recorded_step  # the frontend steps through the instance

    async def drive():
        streams, shed = [], 0
        async with frontend:
            for arrival, request in trace:
                while frontend.steps_run < arrival and router.busy:
                    await asyncio.sleep(0)
                try:
                    streams.append(await frontend.submit(
                        request, deadline_ms=args.deadline or None
                    ))
                except ShedError:
                    shed += 1
            return [await s.drain() for s in streams], shed

    results, shed = asyncio.run(drive())
    states = [done.state.value for done in results]
    lines = [
        f"  frontend: submitted: {len(trace)}  completed: "
        f"{states.count('finished')}  timed out: {states.count('timed_out')}"
        f"  cancelled: {states.count('cancelled')}  shed: {shed}  "
        f"modelled time: {1e3 * frontend.model_time_s:.1f} ms",
    ]
    c = frontend.controller
    if c is not None:
        peak = max((s.level for s in c.timeline), default=0)
        lines.append(
            f"  overload control: SLO p95 {args.slo_p95_ms:g} ms  "
            f"peak degrade level {peak}  final level {c.level}  "
            f"final threshold {c.threshold:g}"
            f"{'  (shedding)' if c.shedding else ''}"
        )
        if c.timeline:
            lines.append("  control windows (step: p95 / level): " + "  ".join(
                f"{s.step}: {s.p95_ms:.2f}ms/L{s.level}" for s in c.timeline[-4:]
            ))
    if args.profile:
        lines.append(frontend.registry.render())
    return reports, lines


def _run_serve(args) -> str:
    """The serving stack — a ``ClusterRouter`` of ``--replicas`` engines —
    on a bursty synthetic trace: plain, under the async frontend
    (``--slo-p95-ms`` / ``--deadline``) or under seeded replica faults
    (``--inject-faults``); its fullest step is priced as a fleet."""
    import numpy as np

    from repro.cluster import ClusterRouter, bursty_trace, busiest_step_reports
    from repro.core import TokenPickerConfig
    from repro.hw.serving import ServingSimulator
    from repro.kvstore import TierConfig
    from repro.model.config import get_model_config

    if args.replicas < 1 or args.n_requests < 1:
        raise ValueError("--replicas and --n-requests must be >= 1")
    if args.context_length < 24 or args.max_new_tokens < 1:
        raise ValueError(
            "--context-length must be >= 24 and --max-new-tokens >= 1"
        )
    if min(args.prefill_budget, args.slo_p95_ms, args.deadline) < 0:
        raise ValueError(
            "--prefill-budget, --slo-p95-ms and --deadline must be >= 0"
        )
    under_frontend = args.slo_p95_ms > 0 or args.deadline > 0
    if args.inject_faults and (under_frontend or args.replicas < 2):
        raise ValueError(
            "--inject-faults needs --replicas >= 2 and steps the router "
            "itself: it takes neither --slo-p95-ms nor --deadline"
        )
    model = get_model_config(args.model)
    n_heads = 4
    config = TokenPickerConfig(threshold=args.threshold)
    tracer = _tracer_from_args(args)
    sim = ServingSimulator(
        model, context_length=args.context_length, config=config
    )

    def build(traced: bool) -> ClusterRouter:
        return ClusterRouter(
            args.replicas,
            config,
            policy=args.policy,
            admission=args.admission,
            max_batch_size=args.batch_size,
            capacity_tokens=args.capacity_tokens or args.batch_size
            * (args.context_length + args.max_new_tokens + 16),
            allow_bypass=args.allow_bypass,
            prefill_budget_tokens=args.prefill_budget or None,
            seed=args.seed,
            kv_tiering=TierConfig(
                policy=args.tier_policy, hot_budget_tokens=args.hot_budget
            ) if args.kv_tiering else None,
            prefix_cache=args.prefix_cache,
            prefix_cache_capacity=args.prefix_cache_capacity,
            tracer=tracer if traced else None,
            cycle_sim=sim,
            shards=args.shards,
        )

    def trace():
        return bursty_trace(
            np.random.default_rng(args.seed),
            args.n_requests,
            n_heads=n_heads,
            head_dim=model.head_dim,
            prompt_tokens=args.context_length,
            max_new_tokens=args.max_new_tokens,
            burst_size=args.burst_size,
            gap_steps=args.burst_gap,
        )

    extra: List[str] = []
    identical = True
    if args.inject_faults:
        from repro.cluster import FaultInjector, fault_schedule

        # the fault-free rerun (untraced) is the bit-identity witness
        runs = []
        for faulted in (False, True):
            schedule = (
                fault_schedule(args.seed, args.replicas, n_kills=2)
                if faulted else []
            )
            injector = FaultInjector(build(faulted), schedule)
            runs.append((injector, injector.run_trace(trace())))
        outputs = [
            {
                key: (
                    done.stats.counter.k_bits,
                    done.stats.counter.v_bits,
                    done.stats.generated_tokens,
                )
                for key, done in injector.outputs.items()
            }
            for injector, _ in runs
        ]
        identical = outputs[0] == outputs[1]
        injector, reports = runs[1]
        router, s = injector.router, injector.stats
        extra = [
            f"  faults: kills: {s.kills}  revives: {s.revives}  "
            f"retries: {s.retries}  swap-resumes: "
            f"{s.swap_resumes}  re-prefills: {s.re_prefills}  requeues: "
            f"{s.requeues}",
            f"  completed: {len(injector.outputs)}/{args.n_requests}  "
            f"bit-identical to fault-free run: {identical}",
        ]
    elif under_frontend:
        router = build(True)
        reports, extra = _run_under_frontend(args, router, trace())
    else:
        router = build(True)
        reports = router.run_trace(trace())

    summary = router.summary()
    per = summary["per_replica"]
    lines = [
        f"Serving simulation ({model.name}, thr={args.threshold:g}, "
        f"{args.replicas} replica{'s' if args.replicas > 1 else ''}, "
        f"{args.policy} routing, "
        f"{args.admission} admission)",
        f"  requests: {summary['requests_completed']}  steps: "
        f"{len(reports)}  tokens: {summary['generated_tokens']}  "
        f"preemptions: {summary['preemptions']}  resumes: "
        f"{sum(r['resumes'] for r in per)}  bypassed: "
        f"{sum(r['bypassed'] for r in per)}",
    ]
    for rep in per:
        lines.append(
            f"  replica {rep['replica']}: {rep['requests_completed']} done  "
            f"peak batch {rep['peak_concurrency']}  "
            f"mean occupancy {rep['mean_batch_occupancy']:.2f}  "
            f"peak blocks {rep['peak_blocks']}  "
            f"keep fraction {rep['keep_fraction']:.3f}  "
            f"KV-bit reduction {rep['kv_bit_reduction']:.2f}x"
        )
    if args.shards > 1:
        shipped = sum(e.allgather_bits_total for e in router.replicas)
        full = sum(e.allgather_baseline_bits_total for e in router.replicas)
        lines.append(
            f"  shards per replica: {args.shards}  all-gather traffic: "
            f"{shipped / 8:,.0f} B shipped vs {full / 8:,.0f} B unpruned"
            + (f" ({shipped / full:.3f}x)" if full else "")
        )
    busy = busiest_step_reports(reports)
    if busy:
        ours = sim.price_fleet(busy, engine_heads=n_heads)
        base = sim.price_fleet(busy, "baseline", engine_heads=n_heads)
        a, b = ours.straggler, base.straggler
        lines += [
            f"  fullest step (B={ours.batch_size}, busy replicas: "
            f"{len(busy)}): straggler {b.total_cycles} -> "
            f"{a.total_cycles} cycles ({b.total_cycles / a.total_cycles:.2f}x"
            f"; attention only {b.attention_cycles / a.attention_cycles:.2f}x)",
            f"  decode throughput: {base.aggregate_tokens_per_second():,.0f} "
            f"-> {ours.aggregate_tokens_per_second():,.0f} tokens/s",
        ]
    if args.profile:
        from repro.obs.profile import render_fleet_profile

        lines += render_fleet_profile(router, reports)
    lines += extra + _write_trace_artifacts(tracer, args)
    if not identical:
        raise RuntimeError("faulted outputs diverged from the fault-free run")
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = argparse.ArgumentParser(
        prog="tokenpicker",
        description="Regenerate the Token-Picker paper's tables and figures, "
        "or run the serving stack.",
    )
    parser.add_argument(
        "experiments",
        nargs="+",
        choices=EXPERIMENTS + ("all", "serve"),
        help="which artifacts to regenerate (or `serve`)",
    )
    parser.add_argument(
        "--fast",
        action="store_true",
        help="smaller workloads / skip PPL lines (for smoke runs)",
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="RNG seed for serve traffic"
    )
    add = parser.add_argument_group("serve options").add_argument
    add("--model", default="gpt2-medium", help="model zoo entry to serve")
    add("--replicas", type=int, default=1, help="serving-engine replicas")
    add("--batch-size", type=int, default=8, help="max concurrent sequences")
    add("--n-requests", type=int, default=24, help="requests to submit")
    add("--context-length", type=int, default=160, help="mean prompt length")
    add("--max-new-tokens", type=int, default=12, help="decode steps per request")
    add("--threshold", type=float, default=2e-3, help="pruning threshold thr")
    add("--burst-size", type=int, default=8,
        help="requests arriving together in each burst")
    add("--burst-gap", type=int, default=4, help="steps between bursts")
    add("--policy", choices=("least-loaded", "round-robin"),
        default="least-loaded", help="request routing policy")
    add("--admission", choices=("conservative", "optimistic", "tiered"),
        default="optimistic",
        help="replica memory policy (optimistic preempts under pressure; "
        "tiered prices preemption by hot-tier footprint)")
    add("--capacity-tokens", type=int, default=0,
        help="per-replica KV arena tokens (0: sized from the workload)")
    add("--allow-bypass", action="store_true",
        help="let small queued requests bypass a blocked queue head")
    add("--prefill-budget", type=int, default=0,
        help="per-step token budget: active decodes claim one token each "
        "(never throttled), the leftover ingests prompt chunks, bounding "
        "a long prompt's inter-token latency spike (0: monolithic prefill)")
    add("--shards", type=int, default=1,
        help="head-shard each replica across this many modelled "
        "tensor-parallel workers (kept-token all-gather priced)")
    add("--kv-tiering", action="store_true",
        help="layer the two-tier KV store over each arena (bit-identical "
        "outputs; demoted tokens' bytes live in the modelled slow tier)")
    add("--tier-policy", choices=("mass", "lru", "recency", "none"),
        default="mass", help="demotion policy for --kv-tiering")
    add("--hot-budget", type=int, default=0,
        help="fast-tier residency target in tokens for --kv-tiering "
        "(0: policy threshold only)")
    add("--prefix-cache", action="store_true",
        help="dedupe shared prompt prefixes into refcounted cold-tier "
        "extents (one cache per replica)")
    add("--prefix-cache-capacity", type=int, default=65536,
        help="retained prefix-cache tokens; unreferenced extents evict LRU "
        "beyond it (0: unbounded)")
    add("--slo-p95-ms", type=float, default=0.0,
        help="run under the async frontend with this modelled inter-token "
        "p95 SLO: breaches degrade the keep threshold in rungs, then shed "
        "new admissions (0: no overload controller)")
    add("--deadline", type=float, default=0.0,
        help="run under the async frontend with this per-request "
        "wall-clock deadline in ms; expired requests free their KV "
        "mid-flight (0: none)")
    add("--inject-faults", action="store_true",
        help="seeded replica kills/revives, checked "
        "bit-identical against a fault-free rerun (needs --replicas >= 2)")
    add("--profile", action="store_true",
        help="print the per-step phase breakdown and each replica's "
        "kernel / prefill / tier / prefix-cache stats and latency "
        "percentiles (plus the frontend's counters when it runs)")
    add("--trace-out", default=None, metavar="PATH",
        help="write a Chrome/Perfetto trace of the run to PATH plus a "
        "lossless .jsonl span log next to it")
    add("--trace-stream", action="store_true",
        help="with --trace-out, stream each span to the span log as it "
        "closes (a killed run leaves a readable log; a .jsonl.gz PATH "
        "gzips it) and project the Perfetto JSON from it after the run")
    add("--trace-sample", type=int, default=1, metavar="N",
        help="with --trace-out, emit every Nth engine step span "
        "(request lifecycles are always complete)")
    args = parser.parse_args(argv)

    names = args.experiments
    if "all" in names:
        # `all` covers the paper artifacts; an explicit `serve` still runs
        names = list(EXPERIMENTS) + (["serve"] if "serve" in names else [])
    for name in names:
        start = time.time()
        output = _run_serve(args) if name == "serve" else _run_one(name, args.fast)
        print(output)
        print(f"[{name} regenerated in {time.time() - start:.1f}s]\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
