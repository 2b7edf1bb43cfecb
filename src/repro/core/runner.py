"""The experiment runner (the paper's Section 3.2 process).

The runner executes experiment cells described by
:class:`~repro.core.spec.RunSpec`, repeats each experiment (the paper
uses 10 repetitions and reports the average), converts crashes and
budget blow-ups into :class:`~repro.core.results.RunStatus` entries,
and optionally applies a small seeded run-to-run jitter so the
averaging machinery is exercised the way real measurements would (the
paper observed at most 10 % variance; simulated runs are deterministic
by default).

Jitter seeding is **per cell**: each cell's noise stream is derived
from ``(runner seed, cell identity)`` via
:func:`~repro.core.spec.derive_cell_seed`, so results are independent
of grid order and of which worker process executes the cell.

Two layers of redundant work are eliminated here rather than in the
platform models:

* an in-memory :class:`~repro.core.trace_cache.TraceCache` records each
  (dataset, algorithm, params) superstep program **once** and replays
  the trace into every platform — a six-platform sweep executes the
  algorithm a single time;
* with ``jitter == 0`` a cell is fully deterministic, so repetitions
  are served by replicating the first :class:`JobResult` instead of
  re-simulating it.

Grids (:meth:`Runner.run_grid`) accept a
:class:`~repro.core.spec.SweepSpec` and a ``workers`` count; with
``workers > 1`` the independent cells are dispatched to worker
processes by :mod:`repro.core.sweep` and the merged result is
bit-identical to the serial path.
"""

from __future__ import annotations

import collections
import dataclasses
import gc
import resource
import time
import typing as _t

import numpy as np

from repro import obs
from repro.cluster.spec import das4_cluster
from repro.core.results import ExperimentResult, RunRecord, RunStatus
from repro.core.spec import RunSpec, SweepSpec, derive_cell_seed
from repro.core.trace_cache import TraceCache
from repro.datasets.registry import load_dataset
from repro.platforms.base import JobResult, JobTimeout, PlatformCrash
from repro.platforms.registry import get_platform

__all__ = ["Runner"]


@dataclasses.dataclass
class Runner:
    """Runs experiment cells and collects records.

    Parameters
    ----------
    repetitions:
        Runs per cell; the mean is reported (paper: 10).  Simulated
        runs are deterministic, so the default is 1; raise it together
        with ``jitter`` to exercise variance reporting.
    jitter:
        Relative standard deviation of multiplicative run-to-run noise
        (e.g. 0.03 for ~3 %); 0 disables noise.
    seed:
        Base seed for the jitter streams; each cell derives its own
        stream from ``(seed, cell identity)``.
    scale:
        Dataset scale passed to the registry when cells name datasets.
    use_trace_cache:
        Record each (dataset, algorithm, params) superstep program once
        and replay the cached trace into every platform (default on;
        simulated results are bit-identical either way).
    trace_cache:
        The cache instance — pass a shared one to pool recordings
        across runners, or one with a ``spill_dir`` to share
        recordings across processes.
    """

    repetitions: int = 1
    jitter: float = 0.0
    seed: int = 202
    scale: float = 1.0
    use_trace_cache: bool = True
    trace_cache: TraceCache = dataclasses.field(default_factory=TraceCache)
    #: step-cost memo counters that worker processes (sweep pools, serve
    #: workers) gathered in their own processes, folded back by
    #: :mod:`repro.core.sweep`
    worker_memo_stats: collections.Counter = dataclasses.field(
        default_factory=collections.Counter,
        init=False, repr=False, compare=False,
    )

    def __post_init__(self) -> None:
        if self.repetitions < 1:
            raise ValueError("repetitions must be >= 1")
        if self.jitter < 0:
            raise ValueError("jitter must be non-negative")

    # -- single cell -------------------------------------------------------------
    def run(self, spec: RunSpec) -> RunRecord:
        """Run one cell described by ``spec``, with repetitions and
        failure bookkeeping.

        ``spec.fault_plan`` injects the given chaos schedule into every
        repetition.  Faults act at charge time, never on the recorded
        program, so the cell replays the same cached trace as its
        fault-free twin and charges the faults on top of it.

        With an ambient :mod:`repro.obs` session the cell is also
        profiled for real (harness) wall-clock, peak RSS and GC
        activity; the simulation itself — and therefore the returned
        record — is bit-identical either way.
        """
        session = obs.active()
        if session is None:
            return self._run_impl(spec)
        return self._run_observed(session, spec)

    def _run_observed(
        self, session: obs.Observability, spec: RunSpec
    ) -> RunRecord:
        """Profile one cell for the active observability session."""
        session.emit("run_started", cell=spec.describe())
        gc_before = sum(s["collections"] for s in gc.get_stats())
        start = time.perf_counter()
        record = self._run_impl(spec)
        wall = time.perf_counter() - start
        metrics = session.metrics
        metrics.count("runner.cells_total")
        metrics.count(f"runner.cells_{record.status.value}")
        metrics.observe("runner.cell_wall_seconds", wall)
        metrics.count(
            "runner.gc_collections",
            sum(s["collections"] for s in gc.get_stats()) - gc_before,
        )
        # ru_maxrss is KiB on Linux (bytes on macOS; the factor is only
        # cosmetic there).
        metrics.gauge_max(
            "runner.peak_rss_bytes",
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024.0,
        )
        result = record.result
        if result is not None and (
            result.task_retries or result.job_restarts
        ):
            metrics.count("runner.fault_retries", result.task_retries)
            metrics.count("runner.job_restarts", result.job_restarts)
            session.emit(
                "retry",
                cell=spec.describe(),
                task_retries=result.task_retries,
                job_restarts=result.job_restarts,
                recovery_seconds=round(result.recovery_seconds, 6),
            )
        if record.status is not RunStatus.OK:
            session.emit(
                "crash",
                cell=spec.describe(),
                status=record.status.value,
                reason=record.failure_reason,
            )
        session.emit(
            "run_finished",
            cell=spec.describe(),
            status=record.status.value,
            wall_seconds=round(wall, 6),
        )
        return record

    def _run_impl(self, spec: RunSpec) -> RunRecord:
        plat = (
            get_platform(spec.platform)
            if isinstance(spec.platform, str)
            else spec.platform
        )
        graph = (
            load_dataset(spec.dataset, scale=self.scale)
            if isinstance(spec.dataset, str)
            else spec.dataset
        )
        cluster = spec.cluster or das4_cluster()
        params = spec.params_dict()
        fault_plan = spec.fault_plan

        trace = None
        record_wall = 0.0
        recorded = False
        if self.use_trace_cache:
            from repro.algorithms.base import get_algorithm

            misses_before = self.trace_cache.misses
            trace, record_wall = self.trace_cache.get_or_record(
                get_algorithm(spec.algorithm),
                graph,
                dataset=spec.dataset if isinstance(spec.dataset, str) else None,
                scale=self.scale,
                params=params,
            )
            recorded = self.trace_cache.misses > misses_before

        # Deterministic cells (no jitter) need only one simulation; the
        # result is replicated over the remaining repetitions.
        reps = 1 if self.jitter == 0 else self.repetitions
        rng = (
            np.random.default_rng(self.cell_seed(spec))
            if self.jitter > 0
            else None
        )
        times: list[float] = []
        last: JobResult | None = None
        for _rep in range(reps):
            try:
                result = plat.run(
                    spec.algorithm, graph, cluster, trace=trace,
                    fault_plan=fault_plan, **params,
                )
            except PlatformCrash as crash:
                return RunRecord(
                    platform=plat.name,
                    algorithm=spec.algorithm,
                    dataset=graph.name,
                    cluster=cluster,
                    status=RunStatus.CRASHED,
                    failure_reason=str(crash),
                )
            except JobTimeout as timeout:
                return RunRecord(
                    platform=plat.name,
                    algorithm=spec.algorithm,
                    dataset=graph.name,
                    cluster=cluster,
                    status=RunStatus.DNF,
                    failure_reason=str(timeout),
                )
            t = result.execution_time
            if rng is not None:
                t *= float(np.clip(rng.normal(1.0, self.jitter), 0.5, 1.5))
            times.append(t)
            last = result
        assert last is not None
        # Charge the recording wall time only when the trace was
        # actually recorded by *this* call — a cache hit replays a
        # recording some earlier cell already paid for, and replicated
        # repetitions must not re-bill it.
        if recorded and record_wall > 0:
            last.wall_breakdown["trace_record"] = record_wall
            last.wall_time_seconds += record_wall
        times *= self.repetitions // reps
        return RunRecord(
            platform=plat.name,
            algorithm=spec.algorithm,
            dataset=graph.name,
            cluster=cluster,
            status=RunStatus.OK,
            execution_time=float(np.mean(times)),
            repetition_times=tuple(times),
            result=last,
        )

    def cell_seed(self, spec: RunSpec) -> int:
        """The jitter seed used for ``spec`` (order-independent)."""
        return derive_cell_seed(self.seed, spec, scale=self.scale)

    # -- observability ---------------------------------------------------------
    def cache_stats(self) -> dict[str, _t.Any]:
        """Trace-cache counters merged with the shared step-cost memo
        counters of the process-wide partition-context cache, plus those
        of the contexts sweep workers built."""
        from repro.platforms.registry import context_memo_stats

        stats = self.trace_cache.stats()
        stats.update(context_memo_stats())
        for key, value in self.worker_memo_stats.items():
            stats[key] += value
        return stats

    # -- grids ----------------------------------------------------------------
    def run_grid(
        self, sweep: SweepSpec, *, workers: int | None = None
    ) -> ExperimentResult:
        """Run a full cartesian grid of cells into one result set.

        Pass a :class:`~repro.core.spec.SweepSpec`; ``workers``
        overrides the sweep's own worker count (1 = serial in-process;
        N > 1 dispatches cells to N worker processes via
        :mod:`repro.core.sweep` and returns a result bit-identical to
        the serial path).
        """
        num_workers = sweep.workers if workers is None else int(workers)
        if num_workers > 1:
            from repro.core.sweep import run_sweep

            return run_sweep(self, sweep, workers=num_workers)
        session = obs.active()
        specs = list(sweep.cells())
        if session is not None:
            session.emit(
                "sweep_started",
                sweep=sweep.name, cells=len(specs), workers=1,
            )
        start = time.perf_counter()
        exp = ExperimentResult(sweep.name)
        for spec in specs:
            exp.add(self.run(spec))
        if session is not None:
            session.emit(
                "sweep_finished",
                sweep=sweep.name, cells=len(specs), workers=1,
                wall_seconds=round(time.perf_counter() - start, 6),
            )
        return exp
