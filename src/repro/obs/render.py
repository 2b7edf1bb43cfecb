"""Rendering for harness observability: the ``graphbench stats`` view.

Turns a live :class:`~repro.obs.Observability` session — or an events
JSONL file written by one (``--events PATH`` on ``sweep`` /
``benchmark`` / ``chaos-sweep``) — into the post-hoc summary table: phase
wall histograms with p50/p90/p99, counters, gauges (worker
utilization, cache hit rates), and event counts per kind.

Imports only :mod:`repro.obs` siblings and the table renderer, so the
CLI stays the single consumer-facing seam.
"""

from __future__ import annotations

import json
import math
import os

from repro.obs import Observability
from repro.obs.events import EVENT_KINDS
from repro.obs.metrics import Histogram, MetricsRegistry

__all__ = [
    "load_events_jsonl",
    "render_stats",
    "render_stats_from_file",
]


def _fmt_seconds(t: float) -> str:
    if math.isnan(t):
        return "-"
    if t >= 60:
        return f"{t / 60:.1f}m"
    if t >= 1:
        return f"{t:.2f}s"
    if t >= 1e-3:
        return f"{t * 1e3:.2f}ms"
    return f"{t * 1e6:.0f}us"


def _fmt_value(name: str, value: float) -> str:
    if name.endswith("_seconds"):
        return _fmt_seconds(value)
    if name.endswith(("_rate", "utilization")):
        return f"{value * 100:.1f}%"
    if name.endswith("_bytes"):
        return f"{value / 1e6:.1f} MB"
    return f"{value:g}"


def render_stats(
    metrics: MetricsRegistry,
    event_counts: dict[str, int] | None = None,
    *,
    title: str = "Harness observability",
) -> str:
    """The summary tables: histograms with quantiles, counters,
    gauges, and per-kind event counts."""
    from repro.core.report import render_table

    chunks: list[str] = []

    if metrics.histograms:
        rows = []
        for name in sorted(metrics.histograms):
            h = metrics.histograms[name]
            fmt = _fmt_seconds if name.endswith("_seconds") else (
                lambda v: f"{v:g}"
            )
            rows.append([
                name, h.count,
                fmt(h.quantile(0.5)) if h.count else "-",
                fmt(h.quantile(0.9)) if h.count else "-",
                fmt(h.quantile(0.99)) if h.count else "-",
                fmt(h.max) if h.count else "-",
                fmt(h.total),
            ])
        chunks.append(render_table(
            ["distribution", "n", "p50", "p90", "p99", "max", "total"],
            rows,
            title=f"{title}: distributions",
        ))

    if metrics.gauges:
        rows = [
            [name, _fmt_value(name, value)]
            for name, value in sorted(metrics.gauges.items())
        ]
        chunks.append(render_table(
            ["gauge", "value"], rows, title=f"{title}: gauges"
        ))

    if metrics.counters:
        rows = [
            [name, _fmt_value(name, value)]
            for name, value in sorted(metrics.counters.items())
        ]
        chunks.append(render_table(
            ["counter", "value"], rows, title=f"{title}: counters"
        ))

    if event_counts:
        rows = [
            [kind, count] for kind, count in sorted(event_counts.items())
        ]
        chunks.append(render_table(
            ["event kind", "count"], rows, title=f"{title}: events"
        ))

    if not chunks:
        return f"{title}: no metrics or events recorded"
    return "\n\n".join(chunks)


def render_session(session: Observability) -> str:
    """Render a live session (ring event counts + current metrics)."""
    return render_stats(session.metrics, session.events.by_kind())


def load_events_jsonl(
    path: str | os.PathLike,
) -> tuple[MetricsRegistry, dict[str, int], int]:
    """Reconstruct ``(metrics, event counts, total lines)`` from an
    events JSONL file.

    Event lines are tallied per kind; the ``"kind": "metric"`` tail
    records (written by :meth:`Observability.close
    <repro.obs.Observability.close>`) rebuild the registry, so the
    post-hoc view renders the same quantiles the live session would
    have.  Unknown kinds are counted under their own name rather than
    rejected — a newer writer must not crash an older reader.
    """
    metrics = MetricsRegistry()
    counts: dict[str, int] = {}
    lines = 0
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            lines += 1
            record = json.loads(line)
            kind = record.get("kind")
            if kind == "metric":
                mtype = record.get("metric_type")
                name = str(record.get("name"))
                if mtype == "counter":
                    metrics.count(name, float(record.get("value", 0.0)))
                elif mtype == "gauge":
                    metrics.gauge(name, float(record.get("value", 0.0)))
                elif mtype == "histogram":
                    metrics.histogram(name).merge(Histogram.from_dict(record))
            elif kind is not None:
                counts[str(kind)] = counts.get(str(kind), 0) + 1
    return metrics, counts, lines


def render_stats_from_file(path: str | os.PathLike) -> str:
    """The post-hoc ``graphbench stats --events PATH`` view."""
    metrics, counts, lines = load_events_jsonl(path)
    known = sum(c for k, c in counts.items() if k in EVENT_KINDS)
    header = (
        f"events file: {os.fspath(path)} — {lines} records, "
        f"{known} events"
    )
    return header + "\n\n" + render_stats(metrics, counts)
