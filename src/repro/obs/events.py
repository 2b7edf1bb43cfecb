"""Structured harness event stream: schema-versioned JSONL records.

Where :mod:`repro.obs.metrics` aggregates, this module *narrates*: an
append-only stream of typed events describing what the harness did and
when — runs starting and finishing, cells dispatched to workers,
worker heartbeats, trace-cache hits/misses/spills, crashes and
recovery retries, benchmark gate verdicts.

Design points:

* **schema-versioned** — every record carries ``"schema":``
  :data:`EVENT_SCHEMA`, and the event vocabulary is closed
  (:data:`EVENT_KINDS`); an unknown kind is a programming error, not a
  new record type, so downstream readers can switch exhaustively.
* **monotonic timestamps** — ``ts`` comes from :func:`time.monotonic`
  (never the wall clock), so intra-process deltas are meaningful even
  across NTP slews.  On Linux the monotonic clock is system-wide, so
  events merged from forked sweep workers stay ordered too; durations
  that must be exact (worker busy time) travel as explicit fields.
* **bounded memory** — the in-memory view is a ring buffer
  (:attr:`EventStream.ring_size` entries); a long benchmark can emit
  millions of cache events without growing the parent process.  The
  optional JSONL sink receives *every* event, ring or not.
"""

from __future__ import annotations

import dataclasses
import json
import os
import time
import typing as _t
from collections import Counter, deque

__all__ = [
    "EVENT_SCHEMA",
    "EVENT_KINDS",
    "Event",
    "EventStream",
]

#: version stamped on every event record (bump on field-shape changes;
#: v2 added the chaos-sweep lifecycle kinds, v3 the serve lifecycle)
EVENT_SCHEMA: int = 3

#: the closed event vocabulary
EVENT_KINDS: frozenset[str] = frozenset({
    # runner lifecycle
    "run_started",      # one cell begins (platform/algorithm/dataset)
    "run_finished",     # one cell ends (status, real wall seconds)
    # sweep executor
    "sweep_started",    # a grid begins (cells, workers, tasks)
    "cell_dispatched",  # a workload batch handed to the pool
    "worker_heartbeat", # a worker finished a batch (busy seconds)
    "sweep_finished",   # a grid ends (pool wall, utilization)
    # trace cache
    "cache_hit",        # lookup served (layer: memory | disk)
    "cache_miss",       # lookup fell through to recording
    "cache_spill",      # a recording written to the spill directory
    # failures & recovery
    "crash",            # a cell ended CRASHED/DNF
    "retry",            # fault recovery fired (task retries/restarts)
    # benchmark mode
    "gate_verdict",     # a validated cell's PASS/FAIL (+ budget WARN)
    # chaos-sweep mode
    "chaos_sweep_started",   # a scenario matrix begins (plans x grid)
    "chaos_cell",            # one faulted cell's verdict (slowdown)
    "chaos_sweep_finished",  # the matrix ends (survival summary)
    # serve mode (the prediction service)
    "serve_started",         # the server begins listening (host, port)
    "serve_request",         # one HTTP request answered (route, status)
    "serve_batch",           # a batch sent to a worker (cells, worker)
    "serve_rejected",        # admission control refused a request (429)
    "serve_stopped",         # the server shut down (requests served)
})


@dataclasses.dataclass(frozen=True)
class Event:
    """One harness event: a monotonic timestamp, a kind, open fields."""

    ts: float
    kind: str
    fields: dict[str, _t.Any]

    def to_dict(self) -> dict[str, _t.Any]:
        """The JSONL record (schema stamp first, then identity)."""
        return {
            "schema": EVENT_SCHEMA,
            "kind": self.kind,
            "ts": round(self.ts, 6),
            **self.fields,
        }


class EventStream:
    """Append-only event sink: bounded ring + optional JSONL file.

    ``emit`` validates the kind, stamps a monotonic timestamp, keeps
    the event in the ring, and (when a ``path`` was given) appends one
    JSON line.  ``append`` ingests an already-stamped event — the
    worker→parent merge path, which must preserve the worker's own
    timestamps.
    """

    def __init__(
        self,
        path: str | os.PathLike | None = None,
        *,
        ring_size: int = 4096,
    ) -> None:
        if ring_size < 1:
            raise ValueError("ring_size must be >= 1")
        self.ring_size = int(ring_size)
        self._ring: deque[Event] = deque(maxlen=self.ring_size)
        self.path = os.fspath(path) if path is not None else None
        self._fh: _t.TextIO | None = (
            open(self.path, "a") if self.path is not None else None
        )
        #: total events seen (keeps counting after the ring wraps)
        self.emitted = 0

    # -- emission ----------------------------------------------------------
    def emit(self, kind: str, **fields: _t.Any) -> Event:
        """Record a new event of ``kind`` now; returns it."""
        if kind not in EVENT_KINDS:
            raise ValueError(
                f"unknown event kind {kind!r}; choose from "
                f"{', '.join(sorted(EVENT_KINDS))}"
            )
        event = Event(ts=time.monotonic(), kind=kind, fields=fields)
        self.append(event)
        return event

    def append(self, event: Event) -> None:
        """Ingest an existing event (worker merge: timestamps kept)."""
        self._ring.append(event)
        self.emitted += 1
        if self._fh is not None:
            self._fh.write(json.dumps(event.to_dict()) + "\n")

    def write_record(self, record: dict[str, _t.Any]) -> None:
        """Append a non-event JSONL record (the metrics tail) to the
        sink; no-op without a file."""
        if self._fh is not None:
            self._fh.write(json.dumps(record) + "\n")

    # -- queries -----------------------------------------------------------
    def events(self) -> tuple[Event, ...]:
        """The ring contents, oldest first (at most ``ring_size``)."""
        return tuple(self._ring)

    def by_kind(self) -> dict[str, int]:
        """Ring event counts per kind (for summaries)."""
        return dict(Counter(e.kind for e in self._ring))

    def __len__(self) -> int:
        return len(self._ring)

    # -- lifecycle ---------------------------------------------------------
    def flush(self) -> None:
        if self._fh is not None:
            self._fh.flush()

    def close(self) -> None:
        """Flush and release the JSONL sink (idempotent)."""
        if self._fh is not None:
            self._fh.flush()
            self._fh.close()
            self._fh = None
