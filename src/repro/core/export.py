"""Result and trace export: JSON records, CSV traces, gnuplot data.

The paper's Section 5.2 notes that reporting is an unresolved part of
its method ("another non-trivial practical aspect is reporting ...
which our method does not precisely specify").  This module pins a
concrete reporting format behind one front door:

* :func:`export` — ``export(obj, path=...)`` is **the** front door:
  the format is auto-detected from the object's type (an
  :class:`~repro.core.results.ExperimentResult` becomes the records
  JSON document, a report becomes its JSON payload, a telemetry
  session becomes JSONL, a resource trace becomes CSV); pass
  ``kind=`` explicitly only where one type has several formats
  (``"sweep-telemetry"`` is an alternative view of an experiment);
* :func:`export_records_json` — experiment cells as a JSON document
  (full disclosure: cluster configuration, repetitions, failures);
* :func:`export_chaos_json` — a chaos-sweep report (baselines,
  per-plan degradation cells, the availability frontier);
* :func:`export_trace_csv` — a resource trace as tidy CSV
  (node, metric, normalized_time, value);
* :func:`export_series_dat` — figure series as whitespace ``.dat``
  files directly plottable with gnuplot, matching the paper's figure
  style.
"""

from __future__ import annotations

import json
import os
import typing as _t

from repro.cluster.monitoring import ResourceTrace
from repro.core import telemetry
from repro.core.report import BenchmarkReport, ChaosReport
from repro.core.results import ExperimentResult, RunRecord

__all__ = [
    "export",
    "EXPORT_KINDS",
    "record_to_dict",
    "export_records_json",
    "export_benchmark_json",
    "export_chaos_json",
    "export_trace_csv",
    "export_series_dat",
]


def record_to_dict(record: RunRecord) -> dict:
    """A JSON-serializable view of one run record (full disclosure)."""
    out: dict[str, object] = {
        "platform": record.platform,
        "algorithm": record.algorithm,
        "dataset": record.dataset,
        "status": str(record.status),
        "cluster": {
            "num_workers": record.cluster.num_workers,
            "cores_per_worker": record.cluster.cores_per_worker,
        },
        "execution_time": record.execution_time,
        "repetition_times": list(record.repetition_times),
        "failure_reason": record.failure_reason or None,
    }
    if record.result is not None:
        r = record.result
        out["computation_time"] = r.computation_time
        out["overhead_time"] = r.overhead_time
        out["supersteps"] = r.supersteps
        out["breakdown"] = dict(r.breakdown)
        out["num_vertices"] = r.num_vertices
        out["num_edges"] = r.num_edges
    return out


def export_records_json(
    experiment: ExperimentResult, path: str | os.PathLike
) -> None:
    """Write an experiment's records as a JSON document."""
    doc = {
        "experiment": experiment.name,
        "records": [record_to_dict(r) for r in experiment],
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def export_benchmark_json(
    report: BenchmarkReport, path: str | os.PathLike
) -> None:
    """Write a benchmark report (cells, verdicts, targets, counters)
    as a JSON document — the ``graphbench benchmark --json`` payload
    and the CI ``benchmark-smoke`` artifact."""
    with open(path, "w") as fh:
        json.dump(report.to_dict(), fh, indent=2)
        fh.write("\n")


def export_chaos_json(
    report: ChaosReport, path: str | os.PathLike
) -> None:
    """Write a chaos-sweep report (baselines, per-plan cells,
    degradation curves, the availability frontier) as a JSON document
    — the ``graphbench chaos-sweep --json`` payload and the CI
    ``chaos-sweep-smoke`` artifact."""
    with open(path, "w") as fh:
        json.dump(report.to_dict(), fh, indent=2)
        fh.write("\n")


def export_trace_csv(
    trace: ResourceTrace,
    path: str | os.PathLike,
    *,
    num_points: int = 100,
) -> None:
    """Write a resource trace as tidy CSV over normalized time."""
    metrics = ("cpu", "memory", "net_in", "net_out")
    with open(path, "w") as fh:
        fh.write("node,metric,normalized_time,value\n")
        for node in trace.nodes():
            for metric in metrics:
                series = trace.series(node, metric, num_points=num_points)
                for i, v in enumerate(series):
                    t = (i + 0.5) / num_points
                    fh.write(f"{node},{metric},{t:.4f},{v:.6g}\n")


def _telemetry_jsonl(
    session: "telemetry.Telemetry",
    path: str | os.PathLike,
    *,
    extra_counters: dict[str, float] | None = None,
) -> int:
    """Write a telemetry session as JSON Lines.

    One record per line: a ``meta`` line, every span of the provenance
    tree (``job -> phase -> superstep -> cost``), then counters and
    gauges.  ``extra_counters`` (e.g. :meth:`Runner.cache_stats
    <repro.core.runner.Runner.cache_stats>`) are appended as additional
    counter lines.  Returns the number of lines written.
    """
    n = 0
    with open(path, "w") as fh:
        for rec in session.to_jsonl_dicts():
            fh.write(json.dumps(rec) + "\n")
            n += 1
        for name, value in sorted((extra_counters or {}).items()):
            if isinstance(value, (int, float)):
                fh.write(
                    json.dumps(
                        {"type": "counter", "name": name, "value": value}
                    )
                    + "\n"
                )
                n += 1
    return n


def _sweep_telemetry_jsonl(
    experiment: ExperimentResult,
    path: str | os.PathLike,
    *,
    extra_counters: dict[str, float] | None = None,
) -> int:
    """Write every recorded telemetry session of a sweep as JSON Lines.

    One ``cell`` identity line precedes each cell's session records
    (cells without a session — crashed/DNF, or telemetry disabled —
    emit only the identity line), and the file ends with the
    grid-level merged counters (:func:`telemetry.merge_counters
    <repro.core.telemetry.merge_counters>`) plus ``extra_counters``
    (e.g. the runner's merged cache stats).  Returns the number of
    lines written.
    """
    n = 0
    sessions: list[telemetry.Telemetry] = []
    with open(path, "w") as fh:
        fh.write(json.dumps({"type": "sweep", "name": experiment.name}) + "\n")
        n += 1
        for record in experiment:
            cell = {
                "type": "cell",
                "platform": record.platform,
                "algorithm": record.algorithm,
                "dataset": record.dataset,
                "status": record.status.value,
            }
            fh.write(json.dumps(cell) + "\n")
            n += 1
            session = record.result.telemetry if record.result else None
            if session is None:
                continue
            sessions.append(session)
            for rec in session.to_jsonl_dicts():
                fh.write(json.dumps(rec) + "\n")
                n += 1
        merged = telemetry.merge_counters(sessions)
        merged.update(
            (k, v)
            for k, v in (extra_counters or {}).items()
            if isinstance(v, (int, float))
        )
        # provenance: which worker processes contributed to the merge —
        # per-session lines above already carry their own worker_id, so
        # a reader can attribute any merged total back to its parts
        worker_ids = sorted({s.worker_id for s in sessions})
        for name, value in sorted(merged.items()):
            fh.write(
                json.dumps(
                    {
                        "type": "merged_counter",
                        "schema": telemetry.TELEMETRY_SCHEMA,
                        "name": name,
                        "value": value,
                        "worker_ids": worker_ids,
                    }
                )
                + "\n"
            )
            n += 1
    return n


def export_series_dat(
    x_values: _t.Sequence[float],
    series: dict[str, _t.Sequence[float | None]],
    path: str | os.PathLike,
    *,
    x_label: str = "x",
) -> None:
    """Write figure series as a gnuplot-ready .dat file.

    Missing values (crashed/DNF cells) become ``nan`` so gnuplot leaves
    gaps, the convention the paper's figures use.
    """
    names = list(series)
    with open(path, "w") as fh:
        fh.write("# " + " ".join([x_label] + names) + "\n")
        for i, x in enumerate(x_values):
            row = [f"{x:g}"]
            for name in names:
                vals = series[name]
                v = vals[i] if i < len(vals) else None
                row.append("nan" if v is None else f"{float(v):.6g}")
            fh.write(" ".join(row) + "\n")


# -- unified dispatch --------------------------------------------------------

#: ``kind`` -> (expected object type, writer) for :func:`export`
EXPORT_KINDS: dict[str, tuple[type, _t.Callable[..., _t.Any]]] = {
    "records": (ExperimentResult, export_records_json),
    "benchmark": (BenchmarkReport, export_benchmark_json),
    "chaos": (ChaosReport, export_chaos_json),
    "telemetry": (telemetry.Telemetry, _telemetry_jsonl),
    "sweep-telemetry": (ExperimentResult, _sweep_telemetry_jsonl),
    "trace": (ResourceTrace, export_trace_csv),
}

#: object type -> default ``kind`` when the caller omits it; every
#: type has exactly one default (``sweep-telemetry`` is an
#: *alternative* view of an experiment and stays opt-in)
_DEFAULT_KIND: tuple[tuple[type, str], ...] = (
    (ExperimentResult, "records"),
    (BenchmarkReport, "benchmark"),
    (ChaosReport, "chaos"),
    (telemetry.Telemetry, "telemetry"),
    (ResourceTrace, "trace"),
)


def detect_kind(obj: _t.Any) -> str:
    """The default export kind for ``obj``'s type.

    Raises :class:`TypeError` for objects no writer understands.
    """
    for expected, kind in _DEFAULT_KIND:
        if isinstance(obj, expected):
            return kind
    raise TypeError(
        f"no export format is registered for {type(obj).__name__}; "
        f"exportable types are "
        f"{', '.join(t.__name__ for t, _ in _DEFAULT_KIND)}"
    )


def export(
    obj: _t.Any,
    *,
    path: str | os.PathLike,
    kind: str | None = None,
    **options: _t.Any,
) -> _t.Any:
    """Write ``obj`` to ``path`` — the single export front door.

    With ``kind`` omitted the format is detected from the object's
    type (:func:`detect_kind`): an experiment becomes the records JSON
    document, benchmark/chaos reports become their JSON payloads, a
    telemetry session becomes JSONL, a resource trace becomes CSV.
    Pass ``kind`` explicitly to select an alternative view of the same
    type — ``"sweep-telemetry"`` (all sessions of an experiment as
    JSONL); the full menu is :data:`EXPORT_KINDS`.

    Extra keyword ``options`` pass through to the underlying writer
    (e.g. ``extra_counters=...`` for the telemetry kinds,
    ``num_points=...`` for traces).  Returns whatever the writer
    returns (line counts for the JSONL kinds).
    """
    if kind is None:
        kind = detect_kind(obj)
    try:
        expected, writer = EXPORT_KINDS[kind]
    except KeyError:
        raise ValueError(
            f"unknown export kind {kind!r}; choose from "
            f"{', '.join(sorted(EXPORT_KINDS))}"
        ) from None
    if not isinstance(obj, expected):
        raise TypeError(
            f"export kind {kind!r} expects {expected.__name__}, "
            f"got {type(obj).__name__}"
        )
    return writer(obj, path, **options)
