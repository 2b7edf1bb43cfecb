"""In-memory cache of recorded superstep traces (Layer 3.5 storage).

The expensive half of a simulated cell is executing the algorithm's
superstep program; the platform-specific half — charging costs against
the recorded workload — is cheap.  A multi-platform sweep therefore
wants to execute each (algorithm, dataset, params) workload **once**
and replay the recorded :class:`~repro.algorithms.base.SuperstepTrace`
into every platform model.

:class:`TraceCache` owns that memoization for the runner layer.  Keys
capture everything the *program* can observe:

* the dataset identity — registry name + scale + seed for named
  datasets, object identity (kept alive by the entry) for ad-hoc
  graphs;
* the algorithm's short code;
* the program parameters, normalized to a sorted ``repr`` tuple.

The fault plan is deliberately **not** part of the key either: a
program never sees the plan — faults act only when a platform charges
the replayed workload — so one recording serves the fault-free cell
and every chaos schedule of the same workload, and a replay under a
plan charges exactly what a live run under it does.

Nor are the partitioner and part count: traces record per-vertex workload arrays *upstream* of
partitioning, so one trace serves every partition layout (hash or
greedy, per-worker or per-slot) — that is what lets six platforms
share a single recording.
"""

from __future__ import annotations

import hashlib
import os
import pathlib
import pickle
import time
import typing as _t

from repro import obs
from repro.algorithms.base import Algorithm, SuperstepTrace, record_trace
from repro.graph.graph import Graph

__all__ = ["TraceCache", "trace_key"]


def trace_key(
    algorithm: str,
    graph: Graph,
    *,
    dataset: str | None = None,
    scale: float = 1.0,
    seed: int | None = None,
    params: dict[str, object] | None = None,
) -> tuple:
    """The cache key for one (dataset, algorithm, params) workload."""
    if dataset is not None:
        source: tuple = ("dataset", dataset.lower(), float(scale), seed)
    else:
        source = ("graph", id(graph), graph.name)
    norm_params = tuple(
        sorted((k, repr(v)) for k, v in (params or {}).items())
    )
    return (source, algorithm, norm_params)


class TraceCache:
    """Bounded FIFO cache of :class:`SuperstepTrace` recordings, with
    an optional directory-backed spill layer.

    Entries keep a strong reference to their graph so identity-based
    keys for ad-hoc graphs can never alias a recycled ``id()``.
    Counters (:attr:`hits`, :attr:`misses`) and the accumulated
    recording wall time make the sharing observable through
    :mod:`repro.core.report`.

    When ``spill_dir`` is set, recordings for *named* datasets are also
    written to disk (atomically, one pickle per key, prefixed by its
    sha256) and in-memory misses fall back to the directory before
    re-recording; a file whose digest does not match is a miss.  Several
    processes pointing one cache each at the same directory therefore
    reuse each other's recordings — this is how the parallel sweep
    executor (:mod:`repro.core.sweep`) shares traces across its worker
    pool.  Ad-hoc graph keys are identity-based and never spill.
    """

    def __init__(
        self,
        max_entries: int = 64,
        spill_dir: str | os.PathLike | None = None,
    ) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.max_entries = int(max_entries)
        self.spill_dir = pathlib.Path(spill_dir) if spill_dir is not None else None
        self._entries: dict[tuple, tuple[Graph, SuperstepTrace]] = {}
        self.hits = 0
        self.misses = 0
        #: in-memory misses served by the spill directory
        self.disk_hits = 0
        #: recordings written to the spill directory
        self.disk_stores = 0
        #: spill files whose payload failed its sha256 check
        self.disk_rejects = 0
        #: real seconds spent executing programs to record traces
        self.record_seconds = 0.0

    def __len__(self) -> int:
        return len(self._entries)

    # -- spill layer -------------------------------------------------------
    @staticmethod
    def _spillable(key: tuple) -> bool:
        # Only named-dataset keys are content-addressed; ad-hoc graph
        # keys embed id(graph) and mean nothing to another process.
        return bool(key) and key[0][0] == "dataset"

    def _spill_path(self, key: tuple) -> pathlib.Path:
        assert self.spill_dir is not None
        digest = hashlib.sha256(repr(key).encode("utf-8")).hexdigest()
        return self.spill_dir / f"{digest}.trace.pkl"

    def _disk_lookup(self, key: tuple) -> SuperstepTrace | None:
        if self.spill_dir is None or not self._spillable(key):
            return None
        path = self._spill_path(key)
        try:
            data = path.read_bytes()
        except OSError:
            return None
        # A spill file is the sha256 of its pickled payload, a newline
        # and the payload.  Anything else in the shared directory — a
        # truncated write, a flipped byte — is never unpickled: it is
        # dropped and counted, and the trace is recorded again.
        digest, _, payload = data.partition(b"\n")
        if digest != hashlib.sha256(payload).hexdigest().encode("ascii"):
            self.disk_rejects += 1
            session = obs.active()
            if session is not None:
                session.metrics.count("trace_cache.disk_rejects")
            path.unlink(missing_ok=True)
            return None
        stored_key, trace = pickle.loads(payload)
        # Hash-collision guard: the file must describe exactly this key.
        if stored_key != key:
            return None
        return trace

    def _disk_store(self, key: tuple, trace: SuperstepTrace) -> None:
        if self.spill_dir is None or not self._spillable(key):
            return
        self.spill_dir.mkdir(parents=True, exist_ok=True)
        path = self._spill_path(key)
        if path.exists():
            return
        # Atomic publish: concurrent recorders of the same key each
        # write a private temp file; the last rename wins and readers
        # never observe a partial pickle.
        tmp = path.with_suffix(f".tmp.{os.getpid()}")
        payload = pickle.dumps((key, trace), protocol=pickle.HIGHEST_PROTOCOL)
        with open(tmp, "wb") as fh:
            fh.write(hashlib.sha256(payload).hexdigest().encode("ascii"))
            fh.write(b"\n")
            fh.write(payload)
        os.replace(tmp, path)
        self.disk_stores += 1
        session = obs.active()
        if session is not None:
            session.metrics.count("trace_cache.disk_stores")
            session.emit("cache_spill", path=path.name)

    def spill_all(self) -> int:
        """Write every spillable in-memory entry to the spill
        directory; returns the number written.  The parallel executor
        calls this before forking so workers start from the parent's
        recordings instead of re-recording them."""
        if self.spill_dir is None:
            return 0
        written = 0
        for key, (_graph, trace) in self._entries.items():
            if self._spillable(key):
                before = self.disk_stores
                self._disk_store(key, trace)
                written += self.disk_stores - before
        return written

    def preload(self, key: tuple, graph: Graph) -> bool:
        """Promote a spilled recording into memory without touching the
        hit/miss counters; True when the entry is (now) in memory."""
        if key in self._entries:
            return True
        trace = self._disk_lookup(key)
        if trace is None:
            return False
        self.store(key, graph, trace, spill=False)
        return True

    # -- core API ----------------------------------------------------------
    def lookup(self, key: tuple, graph: Graph) -> SuperstepTrace | None:
        """The cached trace for ``key``, or None (does not count).

        Falls back to the spill directory on an in-memory miss; a disk
        hit is promoted into memory (pinned to ``graph``).
        """
        entry = self._entries.get(key)
        if entry is not None:
            cached_graph, cached_trace = entry
            if cached_graph is graph:
                return cached_trace
            # A registry reload produced a different object for the same
            # (name, scale, seed) — drop the stale recording.
            del self._entries[key]
        trace = self._disk_lookup(key)
        if trace is not None:
            self.disk_hits += 1
            self.store(key, graph, trace, spill=False)
            return trace
        return None

    def store(
        self,
        key: tuple,
        graph: Graph,
        trace: SuperstepTrace,
        *,
        spill: bool = True,
    ) -> None:
        """Insert, evicting the oldest entries beyond ``max_entries``;
        with ``spill`` (the default) also publish to the spill
        directory when one is configured."""
        self._entries[key] = (graph, trace)
        while len(self._entries) > self.max_entries:
            oldest = next(iter(self._entries))
            del self._entries[oldest]
        if spill:
            self._disk_store(key, trace)

    def get_or_record(
        self,
        algo: Algorithm,
        graph: Graph,
        *,
        dataset: str | None = None,
        scale: float = 1.0,
        seed: int | None = None,
        params: dict[str, object] | None = None,
    ) -> tuple[SuperstepTrace, float]:
        """The trace for this workload — recorded now on a miss.

        Returns ``(trace, record_wall_seconds)``; the second element is
        0.0 on a hit.
        """
        key = trace_key(
            algo.name, graph, dataset=dataset, scale=scale, seed=seed,
            params=params,
        )
        from repro.core import telemetry

        tele = telemetry.active()
        session = obs.active()
        disk_hits_before = self.disk_hits
        trace = self.lookup(key, graph)
        if trace is not None:
            self.hits += 1
            if tele is not None:
                tele.count("trace_cache.hits")
            if session is not None:
                layer = (
                    "disk" if self.disk_hits > disk_hits_before else "memory"
                )
                session.metrics.count("trace_cache.hits")
                session.metrics.count(f"trace_cache.{layer}_hits")
                session.metrics.gauge("trace_cache.hit_rate", self.hit_rate)
                session.emit(
                    "cache_hit",
                    layer=layer,
                    algorithm=algo.name,
                    dataset=dataset or graph.name,
                )
            return trace, 0.0
        self.misses += 1
        if tele is not None:
            tele.count("trace_cache.misses")
        if session is not None:
            session.metrics.count("trace_cache.misses")
            session.emit(
                "cache_miss",
                algorithm=algo.name,
                dataset=dataset or graph.name,
            )
        wall0 = time.perf_counter()
        merged = {**algo.default_params(graph), **(params or {})}
        prog = algo.program(graph, **merged)
        trace = record_trace(prog, graph, algorithm=algo.name)
        wall = time.perf_counter() - wall0
        self.record_seconds += wall
        self.store(key, graph, trace)
        if session is not None:
            session.metrics.observe("trace_cache.record_wall_seconds", wall)
            session.metrics.gauge("trace_cache.hit_rate", self.hit_rate)
        return trace, wall

    # -- observability -----------------------------------------------------
    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    @property
    def trace_bytes(self) -> int:
        """Total memory pinned by the cached traces' report arrays."""
        return sum(trace.nbytes for _, trace in self._entries.values())

    def stats(self) -> dict[str, _t.Any]:
        """Counter snapshot for :func:`repro.core.report.render_cache_stats`."""
        return {
            "entries": len(self._entries),
            "hits": self.hits,
            "misses": self.misses,
            "disk_hits": self.disk_hits,
            "disk_stores": self.disk_stores,
            "hit_rate": self.hit_rate,
            "record_seconds": self.record_seconds,
            "trace_bytes": self.trace_bytes,
        }

    def merge_counters(self, delta: dict[str, _t.Any]) -> None:
        """Fold another cache's counter *deltas* into this one's totals
        (the parallel executor merges per-worker counters back into the
        parent's cache so ``Runner.cache_stats`` stays truthful)."""
        self.hits += int(delta.get("hits", 0))
        self.misses += int(delta.get("misses", 0))
        self.disk_hits += int(delta.get("disk_hits", 0))
        self.disk_stores += int(delta.get("disk_stores", 0))
        self.record_seconds += float(delta.get("record_seconds", 0.0))

    def clear(self) -> None:
        """Drop all entries and reset the counters (the spill directory
        is left untouched)."""
        self._entries.clear()
        self.hits = 0
        self.misses = 0
        self.disk_hits = 0
        self.disk_stores = 0
        self.disk_rejects = 0
        self.record_seconds = 0.0

    def reset_for_isolation(self) -> None:
        """Return the cache to a provably cold state for a measurement.

        Long-lived processes (the serve layer, a benchmark session) keep
        this cache warm by design; a cold-path measurement taken in the
        same process silently measures the warm path instead.  Callers
        that need a genuine cold start — the cold grids of
        ``perfbench/`` — ask for it explicitly here rather than relying
        on fixture ordering.  Unlike :meth:`clear`, this also detaches the
        spill directory's influence by removing any spilled recordings,
        so a disk hit cannot masquerade as a cold recording.
        """
        if self.spill_dir is not None and self.spill_dir.is_dir():
            for path in self.spill_dir.glob("*.trace.pkl"):
                try:
                    path.unlink()
                except OSError:  # pragma: no cover - concurrent cleanup
                    pass
        self.clear()
