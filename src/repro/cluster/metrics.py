"""Dependency-free telemetry registry: counters, gauges, histograms.

The cluster router records its operational signals — time-to-first-token,
per-token wall-clock latency, queue depth, preemption counts, arena
occupancy — through this registry, one labelled time series per replica.
Nothing here imports beyond the standard library: the registry is the
repo's telemetry substrate, usable from the engine, the router, the CLI
and the benchmarks alike.

:class:`Histogram` keeps **streaming** percentiles in O(1) memory: values
land in geometrically-spaced buckets (7% growth per bucket, so a reported
quantile is within ~3.5% of the true value), with exact count / sum /
min / max kept alongside.  Observation order does not affect any reported
number, and two runs observing the same multiset of values report
identical summaries — the property the determinism tests pin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

#: Geometric bucket growth: value v lands in bucket floor(log(v)/log(1.07)).
_GROWTH = 1.07
_LOG_GROWTH = math.log(_GROWTH)
#: Values at or below this magnitude share the underflow bucket.
_TINY = 1e-12


def _labels_key(labels: Dict[str, object]) -> Tuple[Tuple[str, str], ...]:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


@dataclass
class Counter:
    """Monotonically increasing count (requests served, preemptions...)."""

    value: float = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counters only increase, got {amount}")
        self.value += amount


@dataclass
class Gauge:
    """Last-write-wins instantaneous value (queue depth, occupancy...)."""

    value: float = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)


class Histogram:
    """Streaming distribution sketch with p50/p95/p99 readout.

    Buckets are geometric (``_GROWTH`` spacing) over the positive reals,
    plus one underflow bucket for values ``<= _TINY`` (zero-latency
    observations land there).  Negative observations are rejected — every
    signal this registry tracks is a magnitude.
    """

    def __init__(self) -> None:
        self._buckets: Dict[int, int] = {}
        self._underflow = 0
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf

    def reset(self) -> None:
        """Drop every observation (windowed percentile use — the overload
        controller reads a fresh p95 per control window)."""
        self._buckets.clear()
        self._underflow = 0
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf

    def observe(self, value: float, n: int = 1) -> None:
        """Record ``value`` (``n`` times — e.g. one step latency shared by
        every token the step produced)."""
        value = float(value)
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
        if value < 0 or math.isnan(value):
            raise ValueError(f"histogram values must be >= 0, got {value}")
        self.count += n
        self.total += value * n
        self.min = min(self.min, value)
        self.max = max(self.max, value)
        if value <= _TINY:
            self._underflow += n
        else:
            index = math.floor(math.log(value) / _LOG_GROWTH)
            self._buckets[index] = self._buckets.get(index, 0) + n

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """Approximate ``q``-th percentile (0..100), exact at the ends.

        An **empty** histogram has no distribution to summarise, so every
        percentile is consistently ``nan`` (not 0.0, which would read as
        a real zero-latency observation, and not an exception — callers
        poll percentiles on histograms they did not populate).  Check
        ``count`` or :meth:`summary` (which reports ``{"count": 0}``)
        before formatting.
        """
        if not 0.0 <= q <= 100.0:
            raise ValueError(f"q must be in [0, 100], got {q}")
        if self.count == 0:
            return math.nan
        rank = max(1, math.ceil(q / 100.0 * self.count))  # 1-indexed
        seen = self._underflow
        if rank <= seen:
            return self.min if math.isfinite(self.min) else 0.0
        for index in sorted(self._buckets):
            seen += self._buckets[index]
            if rank <= seen:
                # geometric midpoint of the bucket, clamped to the exact
                # observed range so 1-sample histograms report exactly
                mid = _GROWTH ** (index + 0.5)
                return min(max(mid, self.min), self.max)
        return self.max  # pragma: no cover - rank <= count always lands

    def summary(self) -> Dict[str, float]:
        """The percentile block the CLI and benchmarks export."""
        if self.count == 0:
            return {"count": 0}
        return {
            "count": self.count,
            "mean": self.mean,
            "min": self.min,
            "p50": self.percentile(50.0),
            "p95": self.percentile(95.0),
            "p99": self.percentile(99.0),
            "max": self.max,
        }


@dataclass
class _Series:
    name: str
    labels: Dict[str, str]
    metric: object


class MetricsRegistry:
    """Labelled metric namespace shared by the router and its replicas.

    ``registry.counter("preemptions", replica=0).inc()`` — each distinct
    ``(name, labels)`` pair is one time series, created on first touch.
    A name is bound to one metric type for the registry's lifetime.
    """

    def __init__(self) -> None:
        self._series: Dict[Tuple[str, Tuple[Tuple[str, str], ...]], _Series] = {}
        self._types: Dict[str, type] = {}

    def _get(self, kind: type, name: str, labels: Dict[str, object]):
        bound = self._types.setdefault(name, kind)
        if bound is not kind:
            raise TypeError(
                f"metric {name!r} is a {bound.__name__}, not a {kind.__name__}"
            )
        key = (name, _labels_key(labels))
        series = self._series.get(key)
        if series is None:
            series = _Series(
                name=name,
                labels={k: str(v) for k, v in labels.items()},
                metric=kind(),
            )
            self._series[key] = series
        return series.metric

    def counter(self, name: str, **labels) -> Counter:
        return self._get(Counter, name, labels)

    def gauge(self, name: str, **labels) -> Gauge:
        return self._get(Gauge, name, labels)

    def histogram(self, name: str, **labels) -> Histogram:
        return self._get(Histogram, name, labels)

    def series(
        self, name: Optional[str] = None
    ) -> List[Tuple[str, Dict[str, str], object]]:
        """Every registered ``(name, labels, metric)``, sorted for stable
        iteration (optionally filtered by name)."""
        items = [
            (s.name, s.labels, s.metric)
            for key, s in sorted(self._series.items())
            if name is None or s.name == name
        ]
        return items

    def snapshot(self) -> Dict[str, List[Dict[str, object]]]:
        """JSON-ready export: ``{name: [{labels, type, value|summary}]}``."""
        out: Dict[str, List[Dict[str, object]]] = {}
        for name, labels, metric in self.series():
            record: Dict[str, object] = {
                "labels": dict(labels),
                "type": type(metric).__name__.lower(),
            }
            if isinstance(metric, Histogram):
                record["summary"] = metric.summary()
            else:
                record["value"] = metric.value
            out.setdefault(name, []).append(record)
        return out

    def render_prometheus(self, prefix: str = "tokenpicker") -> str:
        """Prometheus text exposition (one scrape body).

        Counters and gauges export their value; histograms export as
        summaries — ``{quantile="0.5|0.95|0.99"}`` sample lines plus
        ``_sum`` / ``_count`` (quantile lines are omitted while a series
        is empty: an empty distribution has no quantiles).
        """

        def metric_name(name: str) -> str:
            base = "".join(
                ch if ch.isalnum() or ch == "_" else "_" for ch in name
            )
            return f"{prefix}_{base}" if prefix else base

        def label_str(labels: Dict[str, str], extra: str = "") -> str:
            parts = []
            for k, v in sorted(labels.items()):
                escaped = (
                    str(v)
                    .replace("\\", "\\\\")
                    .replace('"', '\\"')
                    .replace("\n", "\\n")
                )
                parts.append(f'{k}="{escaped}"')
            if extra:
                parts.append(extra)
            return "{" + ",".join(parts) + "}" if parts else ""

        lines: List[str] = []
        typed: set = set()
        for name, labels, metric in self.series():
            full = metric_name(name)
            if isinstance(metric, Histogram):
                if full not in typed:
                    typed.add(full)
                    lines.append(f"# TYPE {full} summary")
                if metric.count:
                    for q in (0.5, 0.95, 0.99):
                        tag = label_str(labels, 'quantile="%g"' % q)
                        lines.append(
                            f"{full}{tag} {metric.percentile(q * 100.0):.9g}"
                        )
                lines.append(f"{full}_sum{label_str(labels)} {metric.total:.9g}")
                lines.append(f"{full}_count{label_str(labels)} {metric.count}")
            else:
                kind = "counter" if isinstance(metric, Counter) else "gauge"
                if full not in typed:
                    typed.add(full)
                    lines.append(f"# TYPE {full} {kind}")
                lines.append(f"{full}{label_str(labels)} {metric.value:.9g}")
        return "\n".join(lines) + ("\n" if lines else "")

    def render(self) -> str:
        """Human-readable dump (the CLI's ``--profile`` output block)."""
        lines: List[str] = []
        for name, labels, metric in self.series():
            tag = (
                "{" + ",".join(f"{k}={v}" for k, v in sorted(labels.items())) + "}"
                if labels
                else ""
            )
            if isinstance(metric, Histogram):
                s = metric.summary()
                if s["count"]:
                    lines.append(
                        f"{name}{tag} count={s['count']} "
                        f"mean={s['mean']:.6g} p50={s['p50']:.6g} "
                        f"p95={s['p95']:.6g} p99={s['p99']:.6g}"
                    )
                else:
                    lines.append(f"{name}{tag} count=0")
            else:
                lines.append(f"{name}{tag} {metric.value:.6g}")
        return "\n".join(lines)
