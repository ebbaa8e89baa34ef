"""The serve CLI's ``--profile`` blocks, read straight off the engines.

:func:`render_profile` renders one
:class:`~repro.serving.engine.ServingEngine`'s block from its folded
totals and snapshots — the kernel's per-round alive profile,
chunked-prefill accounting, KV-tier movement, prefix-cache hits;
:func:`render_fleet_profile` is the ``tokenpicker serve --profile``
block for a whole router run — the per-step phase breakdown, then every
replica's engine block and latency percentiles from the router's live
metrics registry.
"""

from __future__ import annotations

from typing import List

from repro.obs.trace import PHASE_ORDER, SCORE_SUBPHASES

__all__ = ["render_fleet_profile", "render_profile"]


def render_profile(engine) -> List[str]:
    """The ``--profile`` lines for one engine: kernel per-round survival
    + chunks-fetched histogram, chunked-prefill totals, KV-tier
    movement/traffic and prefix-cache hit rate."""
    lines: List[str] = []

    # kernel rounds: alive fraction entering each chunk round + the
    # chunks-fetched distribution; the last entry is the final kept count
    totals = [int(v) for v in engine.round_alive_totals]
    if totals[0]:
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

    chunks = engine.prefill_chunks_total
    if chunks:
        budget = engine.prefill_budget_tokens
        tokens = engine.prefill_tokens_total
        lines.append(
            "  chunked prefill "
            f"(budget {budget if budget else 'unbounded'}): "
            f"{tokens} prompt tokens in {chunks} chunks "
            f"(mean {tokens / chunks:.1f} tokens/chunk)"
        )

    if engine.tiers is not None:
        snap = engine.tiers.snapshot()
        dram = snap["dram"]
        tokens = max(
            sum(c.stats.generated_tokens for c in engine.completed), 1
        )
        fast = dram["fast_read_bytes"] + dram["fast_write_bytes"]
        slow = dram["slow_read_bytes"] + dram["slow_write_bytes"]
        lines.append(
            f"  kv tiering ({snap['policy']} policy, "
            f"{snap['sketch_chunks']}-chunk sketch): "
            f"{snap['demotions']} demotions, {snap['promotions']} promotions"
        )
        lines.append(
            f"    modelled traffic: fast {fast / tokens:,.0f} B/token, "
            f"slow {slow / tokens:,.0f} B/token"
        )

    if engine.prefix_cache is not None:
        snap = engine.prefix_cache.snapshot()
        lines.append(
            f"  prefix cache: hit rate {snap['hit_rate']:.1%} "
            f"({snap['hit_tokens']}/{snap['lookup_tokens']} prompt tokens), "
            f"{snap['resident_tokens']} tokens resident"
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
