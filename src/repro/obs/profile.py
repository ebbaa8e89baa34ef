"""One metrics pipeline for the serve CLIs' ``--profile`` blocks.

:func:`export_engine_metrics` projects a
:class:`~repro.serving.engine.ServingEngine`'s ad-hoc counters —
lifecycle totals, chunked-prefill accounting, the kernel's
per-round alive profile, KV-tier movement, prefix-cache hits — onto a
:class:`~repro.cluster.metrics.MetricsRegistry` on demand.  The engine's
hot path keeps its plain attribute counters (zero registry cost per
step); this exporter is the read side, called once when a profile,
snapshot or Prometheus scrape wants the numbers.

:func:`render_profile` renders one engine's profile block from the
exported registry (and, via
:meth:`~repro.cluster.metrics.MetricsRegistry.render_prometheus`, a text
exposition of the same numbers); :func:`render_fleet_profile` is the
``tokenpicker serve --profile`` block for a whole router run — the
per-step phase breakdown, then every replica's engine block and latency
percentiles.
"""

from __future__ import annotations

from typing import List, Optional

from repro.cluster.metrics import MetricsRegistry
from repro.obs.trace import PHASE_ORDER, SCORE_SUBPHASES

__all__ = ["export_engine_metrics", "render_fleet_profile", "render_profile"]


def export_engine_metrics(
    engine, registry: Optional[MetricsRegistry] = None, **labels
) -> MetricsRegistry:
    """Fill ``registry`` (a fresh one by default) from ``engine``'s
    counters; ``labels`` (e.g. ``replica="r0"``) land on every series.

    Counters are *set* by incrementing from zero, so export into a fresh
    registry (or fresh label set) per call — this is a point-in-time
    projection, not a live feed.
    """
    registry = registry if registry is not None else MetricsRegistry()

    def counter(name: str, value: float, **extra) -> None:
        registry.counter(name, **labels, **extra).inc(float(value))

    def gauge(name: str, value: float, **extra) -> None:
        registry.gauge(name, **labels, **extra).set(float(value))

    counter("requests_completed", len(engine.completed))
    counter("requests_cancelled", engine.cancelled_total)
    counter("requests_timed_out", engine.timed_out_total)
    counter("requests_adopted", engine.adopted_total)
    counter("preemptions", engine.preemptions_total)
    counter("resumes", engine.resumes_total)
    counter(
        "generated_tokens",
        sum(c.stats.generated_tokens for c in engine.completed),
    )
    gauge("peak_concurrency", engine.peak_concurrency)
    counter("prefill_chunks", engine.prefill_chunks_total)
    counter("prefill_tokens", engine.prefill_tokens_total)
    gauge("prefill_budget_tokens", engine.prefill_budget_tokens or 0)
    gauge("keep_fraction", engine.counter.keep_fraction)
    gauge(
        "kv_bit_reduction",
        engine.counter.total_reduction if engine.counter.total_bits else 1.0,
    )
    sched = engine.scheduler.counters()
    gauge("scheduler_pending", sched["pending"])
    counter("scheduler_admitted", sched["admitted"])
    counter("scheduler_bypassed", sched["bypassed"])
    totals = getattr(engine, "round_alive_totals", None)
    if totals is not None:
        # one labelled series per chunk round; the last ("round=n_chunks")
        # entry is the final kept count
        for b in range(totals.shape[0]):
            counter("kernel_round_alive", int(totals[b]), round=b)
    if engine.tiers is not None:
        snap = engine.tiers.snapshot()
        policy = {"policy": snap["policy"]}
        gauge("tier_sketch_chunks", snap["sketch_chunks"], **policy)
        counter("tier_demotions", snap["demotions"], **policy)
        counter("tier_promotions", snap["promotions"], **policy)
        counter("tier_swap_rows_skipped", snap["swap_rows_skipped"], **policy)
        dram = snap["dram"]
        counter(
            "tier_fast_bytes",
            dram["fast_read_bytes"] + dram["fast_write_bytes"],
            **policy,
        )
        counter(
            "tier_slow_bytes",
            dram["slow_read_bytes"] + dram["slow_write_bytes"],
            **policy,
        )
    if engine.prefix_cache is not None:
        snap = engine.prefix_cache.snapshot()
        counter("prefix_lookup_tokens", snap["lookup_tokens"])
        counter("prefix_hit_tokens", snap["hit_tokens"])
        gauge("prefix_hit_rate", snap["hit_rate"])
        gauge("prefix_resident_tokens", snap["resident_tokens"])
    return registry


def _value(registry: MetricsRegistry, name: str, **labels) -> float:
    """Read one series' value without creating it on a type mismatch."""
    for s_name, s_labels, metric in registry.series(name):
        if all(s_labels.get(k) == str(v) for k, v in labels.items()):
            return metric.value
    return 0.0


def render_profile(
    engine, registry: Optional[MetricsRegistry] = None
) -> List[str]:
    """The ``--profile`` lines for one engine, driven by the registry.

    Replaces the ``_kernel/_prefill/_tier_profile_lines`` trio the serve
    subcommands each pasted: kernel per-round survival + chunks-fetched
    histogram, chunked-prefill totals, KV-tier movement/traffic and
    prefix-cache hit rate — every number read back from
    :func:`export_engine_metrics` output, with only the score-backend
    name taken from the engine's config (it is configuration, not a
    metric).
    """
    registry = (
        registry if registry is not None else export_engine_metrics(engine)
    )
    lines: List[str] = []

    # kernel rounds: alive fraction entering each chunk round + the
    # chunks-fetched distribution, from the kernel_round_alive series
    alive = sorted(
        (int(labels["round"]), metric.value)
        for _, labels, metric in registry.series("kernel_round_alive")
    )
    if alive and alive[0][1]:
        totals = [int(v) for _, v in alive]
        n_chunks = len(totals) - 1
        entering = float(totals[0])
        fracs = "  ".join(
            f"round {b}: {totals[b] / entering:.3f}" for b in range(n_chunks)
        )
        # pairs decided during round b fetched exactly b+1 chunks;
        # survivors of the last round fetched everything and were kept
        decided = [totals[b] - totals[b + 1] for b in range(n_chunks)]
        decided[-1] += totals[n_chunks]
        hist = "  ".join(
            f"{b + 1}ch: {d / entering:.1%}" for b, d in enumerate(decided)
        )
        lines.append(
            f"  kernel rounds: alive fraction  {fracs}  "
            f"kept: {totals[n_chunks] / entering:.4f}"
        )
        lines.append(f"    chunks fetched: {hist}")

    chunks = _value(registry, "prefill_chunks")
    if chunks:
        budget = int(_value(registry, "prefill_budget_tokens"))
        tokens = int(_value(registry, "prefill_tokens"))
        lines.append(
            "  chunked prefill "
            f"(budget {budget if budget else 'unbounded'}): "
            f"{tokens} prompt tokens in {int(chunks)} chunks "
            f"(mean {tokens / chunks:.1f} tokens/chunk)"
        )

    tier_series = registry.series("tier_demotions")
    if tier_series:
        _, labels, demotions = tier_series[0]
        policy = labels["policy"]
        tokens = max(int(_value(registry, "generated_tokens")), 1)
        fast = _value(registry, "tier_fast_bytes", policy=policy)
        slow = _value(registry, "tier_slow_bytes", policy=policy)
        lines.append(
            f"  kv tiering ({policy} policy, "
            f"{int(_value(registry, 'tier_sketch_chunks', policy=policy))}"
            "-chunk sketch): "
            f"{int(demotions.value)} demotions, "
            f"{int(_value(registry, 'tier_promotions', policy=policy))} "
            "promotions"
        )
        lines.append(
            f"    modelled traffic: fast {fast / tokens:,.0f} B/token, "
            f"slow {slow / tokens:,.0f} B/token"
        )

    if registry.series("prefix_lookup_tokens"):
        lines.append(
            "  prefix cache: hit rate "
            f"{_value(registry, 'prefix_hit_rate'):.1%} "
            f"({int(_value(registry, 'prefix_hit_tokens'))}/"
            f"{int(_value(registry, 'prefix_lookup_tokens'))} prompt tokens), "
            f"{int(_value(registry, 'prefix_resident_tokens'))} tokens "
            "resident"
        )
    return lines


def _phase_lines(reports) -> List[str]:
    """Mean wall-clock ms per busy replica step of each top-level engine
    phase (their shares sum to 100 %), with score's chunk-0 / refine
    split nested under it."""
    totals: dict = {}
    busy = 0
    for step in reports:
        for report in step.per_replica.values():
            if report.batch_size:
                busy += 1
                for phase, seconds in report.phase_seconds.items():
                    totals[phase] = totals.get(phase, 0.0) + seconds
    if not busy:
        return []
    total = sum(totals.get(phase, 0.0) for phase in PHASE_ORDER)
    lines = [
        f"  per-step phase breakdown over {busy} busy replica steps "
        "(engine wall-clock):"
    ]
    for phase in PHASE_ORDER:
        seconds = totals.get(phase, 0.0)
        lines.append(
            f"    {phase:<7} {1e3 * seconds / busy:7.3f} ms/step "
            f"({seconds / total if total else 0.0:5.1%})"
        )
        if phase == "score":
            lines.extend(
                f"      {sub[len('score_'):]:<6}"
                f"{1e3 * totals[sub] / busy:7.3f} ms/step"
                for sub in SCORE_SUBPHASES
                if sub in totals
            )
    return lines


def render_fleet_profile(router, reports) -> List[str]:
    """The ``--profile`` lines for a :class:`~repro.cluster.router.
    ClusterRouter` run from its step ``reports``: the phase breakdown,
    then per replica its :func:`render_profile` block and wall-clock
    TTFT / queue-wait / prefill / token-latency percentiles from the
    router's registry."""
    lines = _phase_lines(reports)
    for rid, engine in enumerate(router.replicas):
        lines.append(f"  replica {rid}:")
        lines.extend("  " + line for line in render_profile(engine))
        for name, label in (
            ("ttft_seconds", "TTFT"),
            ("queue_wait_seconds", "queue wait"),
            ("prefill_seconds", "prefill"),
            ("token_latency_seconds", "token latency"),
        ):
            s = router.metrics.histogram(name, replica=rid).summary()
            if s["count"]:
                lines.append(
                    f"    {label:<13} p50 {1e3 * s['p50']:8.3f} ms  "
                    f"p95 {1e3 * s['p95']:8.3f} ms  "
                    f"p99 {1e3 * s['p99']:8.3f} ms  (n={s['count']})"
                )
    return lines
