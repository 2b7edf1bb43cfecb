"""Parallel sweep executor: grid cells dispatched to worker processes.

The paper's experiment grid — platforms x algorithm classes x datasets
— is embarrassingly parallel: every cell is an independent simulation
(LDBC Graphalytics, the suite this paper seeded, ships exactly this
kind of concurrent benchmark driver).  :func:`run_sweep` executes a
:class:`~repro.core.spec.SweepSpec` on a :class:`ProcessPoolExecutor
<concurrent.futures.ProcessPoolExecutor>` and returns an
:class:`~repro.core.results.ExperimentResult` **bit-identical to the
serial path**:

* records come back in the sweep's canonical cell order, regardless of
  scheduling;
* each cell's jitter stream is derived from ``(runner seed, cell
  identity)`` (:func:`~repro.core.spec.derive_cell_seed`), so noise is
  independent of which process runs the cell;
* the simulations themselves are deterministic functions of the spec.

Cells are dispatched in *workload batches*: all cells sharing one
trace key (algorithm, dataset, params — a fault plan is not part of
it) go to the same worker as one task, so each workload's superstep
program is recorded once and its partition contexts are built once —
the worker replays its own in-memory recording into every platform,
exactly like the serial path.
Only when the grid has fewer tasks than workers are batches split
(each split costs at most one duplicate recording).  Results are
scattered back into canonical order.

:func:`run_specs` takes any list of cells, so a caller with several
grids gives all of them to one pool: the validated benchmark
(:func:`repro.core.benchmark.run_benchmark`) runs every workload's
cells in a single call, so workers keep their process-wide partition
and context memos from one workload to the next.  The same call
computes the workloads' reference outputs
(:func:`~repro.core.workloads.reference_output`), one task per
(workload, dataset), and ships them back with the records.  A task
that raises fails the call with its exception; the pool shuts its
workers down before it propagates.

Trace sharing across processes uses the
:class:`~repro.core.trace_cache.TraceCache` spill layer: the parent
attaches (or creates) a spill directory, flushes its own recordings
into it, and every worker points its cache at the same directory — a
worker that needs a trace some other worker already recorded (a split
batch, or a later serial cell) loads the pickle instead of
re-executing the superstep program.

Worker-side cache counters and telemetry ride back with each task
(:func:`_worker_call`, folded in by :func:`_absorb`): trace-cache
counter deltas are merged into the parent cache
(:meth:`TraceCache.merge_counters
<repro.core.trace_cache.TraceCache.merge_counters>`); the step-cost
memo counters of the contexts the task built and used
(:func:`~repro.platforms.registry.context_memo_stats`) are added to
:meth:`Runner.cache_stats <repro.core.runner.Runner.cache_stats>`; the
task's observability snapshot is absorbed into the parent session; and
when telemetry is enabled in the parent each returned
:class:`~repro.platforms.base.JobResult` carries its recorded session,
exactly as in a serial run.  The serving layer's persistent workers
(:mod:`repro.serve.workers`) are built and report back through the
same three functions.
"""

from __future__ import annotations

import concurrent.futures
import dataclasses
import multiprocessing
import pathlib
import shutil
import tempfile
import time
import typing as _t

from repro import obs
from repro.core import telemetry
from repro.core.results import ExperimentResult, RunRecord
from repro.core.spec import RunSpec, SweepSpec

if _t.TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.runner import Runner
    from repro.core.workloads import Workload

__all__ = ["run_sweep", "run_specs"]

#: trace-cache counters returned per task and folded back into the
#: parent cache
_COUNTER_KEYS = ("hits", "misses", "disk_hits", "disk_stores", "record_seconds")


@dataclasses.dataclass(frozen=True)
class _WorkerConfig:
    """Everything a worker process needs to rebuild the runner."""

    repetitions: int
    jitter: float
    seed: int
    scale: float
    use_trace_cache: bool
    max_entries: int
    spill_dir: str | None
    telemetry: bool
    observability: bool = False


#: one pool task: ``(index, spec)`` cells of one workload batch, and
#: ``(index, workload, dataset)`` reference outputs
_Task = tuple[
    list[tuple[int, RunSpec]], list[tuple[int, "Workload", str]]
]

_WORKER_RUNNER: "Runner | None" = None
_WORKER_OBS: bool = False

_T = _t.TypeVar("_T")


def _mp_context() -> multiprocessing.context.BaseContext:
    """Fork where the platform has it — workers then inherit the
    parent's loaded datasets and imports — else spawn."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else "spawn"
    )


def _worker_config(runner: "Runner") -> _WorkerConfig:
    """What a worker needs to rebuild ``runner``, with this process's
    telemetry and observability switches."""
    cache = runner.trace_cache
    return _WorkerConfig(
        repetitions=runner.repetitions,
        jitter=runner.jitter,
        seed=runner.seed,
        scale=runner.scale,
        use_trace_cache=runner.use_trace_cache,
        max_entries=cache.max_entries,
        spill_dir=str(cache.spill_dir) if cache.spill_dir else None,
        telemetry=telemetry.is_enabled(),
        observability=obs.active() is not None,
    )


def _init_worker(config: _WorkerConfig) -> None:
    """Worker-process initializer: build this worker's runner."""
    global _WORKER_RUNNER, _WORKER_OBS
    from repro.core.runner import Runner
    from repro.core.trace_cache import TraceCache

    # Spawned workers start with telemetry off; forked workers inherit
    # the parent's flag.  Either way, pin it to the parent's setting.
    telemetry.set_enabled(config.telemetry)
    # A forked worker also inherits the parent's observability session
    # object (including its JSONL file handle).  Detach it — workers
    # record each task into a fresh session and ship the snapshot back
    # instead of writing into the parent's sink.
    obs.detach()
    _WORKER_OBS = config.observability
    _WORKER_RUNNER = Runner(
        repetitions=config.repetitions,
        jitter=config.jitter,
        seed=config.seed,
        scale=config.scale,
        use_trace_cache=config.use_trace_cache,
        trace_cache=TraceCache(
            max_entries=config.max_entries, spill_dir=config.spill_dir
        ),
    )


def _worker_call(
    work: _t.Callable[["Runner"], _T],
) -> tuple[_T, dict[str, float], dict[str, int], dict | None]:
    """Run ``work`` on this worker's runner.

    Returns what ``work`` returned, the trace-cache counter and
    step-cost memo deltas it caused, and — with observability on — the
    snapshot of the fresh session it recorded into: exact deltas, so
    :func:`_absorb` never double-counts across tasks.
    """
    from repro.platforms.registry import context_memo_stats

    runner = _WORKER_RUNNER
    assert runner is not None, "worker initializer did not run"
    cache = runner.trace_cache
    counters = {k: getattr(cache, k) for k in _COUNTER_KEYS}
    memo = context_memo_stats()
    session = obs.Observability(role="worker") if _WORKER_OBS else None
    if session is None:
        value = work(runner)
    else:
        with obs.scoped(session):
            value = work(runner)
    memo_after = context_memo_stats()
    return (
        value,
        {k: getattr(cache, k) - counters[k] for k in _COUNTER_KEYS},
        {k: memo_after[k] - memo[k] for k in memo_after},
        None if session is None else session.snapshot(),
    )


def _absorb(
    runner: "Runner",
    counters: dict[str, float],
    memo: dict[str, int],
    snapshot: dict | None,
) -> None:
    """Fold one :func:`_worker_call`'s deltas into ``runner`` and the
    ambient observability session."""
    runner.trace_cache.merge_counters(counters)
    runner.worker_memo_stats.update(memo)
    session = obs.active()
    if session is not None and snapshot is not None:
        session.absorb(snapshot)
        # Rate gauges merge as maxima, which is meaningless for a
        # ratio — recompute from the merged counters instead.
        session.metrics.gauge(
            "trace_cache.hit_rate", runner.trace_cache.hit_rate
        )


def _reference(workload: "Workload", dataset: str, scale: float) -> object:
    """One workload's reference output on one named dataset."""
    from repro.core.workloads import reference_output
    from repro.datasets.registry import load_dataset

    return reference_output(workload, load_dataset(dataset, scale=scale))


def _run_task(
    task: _Task,
) -> tuple[tuple[list[tuple[int, RunRecord]], list[tuple[int, object]]],
           dict[str, float], dict[str, int], dict | None]:
    """Execute one task in a worker: its cells (one workload batch,
    sharing a trace recording and partition contexts) and its
    reference outputs, through :func:`_worker_call`."""
    cells, references = task

    def work(runner: "Runner"):
        start = time.perf_counter()
        records = [(i, runner.run(spec)) for i, spec in cells]
        outputs = [(i, _reference(wl, ds, runner.scale))
                   for i, wl, ds in references]
        session = obs.active()
        if session is not None:
            busy = time.perf_counter() - start
            size = len(cells) + len(references)
            session.metrics.count("sweep.worker_busy_seconds", busy)
            session.metrics.count("sweep.batches_total")
            session.metrics.observe("sweep.batch_size", float(size))
            session.emit(
                "worker_heartbeat",
                batch_size=size,
                busy_seconds=round(busy, 6),
            )
        return records, outputs

    return _worker_call(work)


def _workload_tasks(
    specs: _t.Sequence[RunSpec],
    workers: int,
    references: _t.Sequence[tuple["Workload", str]] = (),
) -> list[_Task]:
    """Partition the grid into per-workload batches, plus one task per
    reference output.

    Cells sharing a trace key (algorithm, dataset, params) form one
    task, so a workload is recorded and its contexts built exactly
    once in whichever worker runs it — the parallel path does the same
    total work as the serial one.  When there are fewer tasks than
    workers, the largest batches are halved until the pool is fed
    (each split duplicates at most one recording).  Cells and
    references carry their position in the caller's lists, so results
    scatter back into serial order.
    """
    groups: dict[tuple, list[tuple[int, RunSpec]]] = {}
    for i, spec in enumerate(specs):
        workload = spec.cell_key()[1:4]  # algorithm, dataset, params
        groups.setdefault(workload, []).append((i, spec))
    batches = list(groups.values())
    while len(batches) + len(references) < workers:
        largest = max(batches, key=len)
        if len(largest) < 2:
            break
        batches.remove(largest)
        mid = len(largest) // 2
        batches.extend([largest[:mid], largest[mid:]])
    tasks: list[_Task] = [(batch, []) for batch in batches]
    tasks += [([], [(i, wl, ds)]) for i, (wl, ds) in enumerate(references)]
    return tasks


def run_sweep(
    runner: "Runner", sweep: SweepSpec, *, workers: int
) -> ExperimentResult:
    """Execute ``sweep``'s cells on ``workers`` processes.

    Falls back to the serial loop for a single worker or a grid with a
    single cell.  Raises :class:`ValueError` for grids containing
    non-named cells (ad-hoc ``Graph``/``Platform`` objects cannot be
    dispatched across process boundaries).
    """
    return run_specs(runner, sweep.name, list(sweep.cells()), workers=workers)


def run_specs(
    runner: "Runner",
    name: str,
    specs: _t.Sequence[RunSpec],
    *,
    workers: int,
    references: _t.Sequence[tuple["Workload", str]] = (),
) -> ExperimentResult:
    """Execute an explicit list of cells on ``workers`` processes.

    This is the executor behind :func:`run_sweep`, exposed for studies
    whose grids are not cartesian — the chaos sweep
    (:mod:`repro.core.chaos`) builds one cell per (fault plan x
    baseline cell) with per-cell materialized plans, which no single
    :class:`~repro.core.spec.SweepSpec` can express, and the validated
    benchmark (:mod:`repro.core.benchmark`) hands it every missing cell
    of every workload at once.  Records come back in ``specs`` order,
    bit-identical to running the same list serially.

    ``references`` lists ``(workload, dataset)`` pairs whose
    :func:`~repro.core.workloads.reference_output` is computed as a
    task in the same pool; the outputs come back in the result's
    :attr:`~repro.core.results.ExperimentResult.references`, keyed by
    ``(workload name, dataset)``.
    """
    specs = list(specs)
    references = list(references)
    for spec in specs:
        if not spec.is_named:
            raise ValueError(
                f"cell {spec.describe()} is not fully named; parallel "
                "sweeps need registry names for platform and dataset"
            )
    exp = ExperimentResult(name)
    workers = max(1, min(int(workers), len(specs) + len(references)))
    if workers == 1:
        for spec in specs:
            exp.add(runner.run(spec))
        for wl, ds in references:
            exp.references[wl.name, ds] = _reference(wl, ds, runner.scale)
        return exp

    cache = runner.trace_cache
    own_spill_dir: str | None = None
    if runner.use_trace_cache and cache.spill_dir is None:
        own_spill_dir = tempfile.mkdtemp(prefix="graphbench-traces-")
        cache.spill_dir = pathlib.Path(own_spill_dir)
    try:
        if runner.use_trace_cache:
            # Let workers start from the parent's recordings.
            cache.spill_all()
        # Load the named datasets once in the parent: forked workers
        # inherit the built graphs copy-on-write instead of each
        # re-synthesizing them.  Likewise scipy.sparse, which the
        # algorithms import lazily, and scipy.sparse.csgraph, which the
        # reference outputs (repro.core.references) use: the imports
        # (about 0.2 s and 0.1 s on a 2-core x86 VM) would otherwise
        # land inside a cell or reference task of every worker of
        # every pool.
        import scipy.sparse  # noqa: F401
        import scipy.sparse.csgraph  # noqa: F401

        from repro.datasets.registry import load_dataset

        datasets = [spec.dataset for spec in specs]
        datasets += [ds for _, ds in references]
        for ds in dict.fromkeys(datasets):
            load_dataset(ds, scale=runner.scale)

        ctx = _mp_context()
        session = obs.active()
        config = _worker_config(runner)
        tasks = _workload_tasks(specs, workers, references)
        pool_workers = min(workers, len(tasks))
        if session is not None:
            session.emit(
                "sweep_started",
                sweep=name, cells=len(specs),
                workers=pool_workers, tasks=len(tasks),
            )
            session.metrics.gauge_max(
                "sweep.task_queue_depth", float(len(tasks))
            )
            for task_index, (cells, _) in enumerate(tasks):
                if cells:
                    session.emit(
                        "cell_dispatched",
                        task=task_index, cells=len(cells),
                        workload=cells[0][1].describe(),
                    )
            # Forked workers inherit the sink's fd and buffer; flush
            # now so no parent bytes can be replayed from a child.
            session.events.flush()
        busy_before = (
            session.metrics.counters.get("sweep.worker_busy_seconds", 0.0)
            if session is not None
            else 0.0
        )
        pool_start = time.perf_counter()
        results: list[RunRecord | None] = [None] * len(specs)
        with concurrent.futures.ProcessPoolExecutor(
            max_workers=pool_workers,
            mp_context=ctx,
            initializer=_init_worker,
            initargs=(config,),
        ) as pool:
            for (batch, outputs), *deltas in pool.map(
                _run_task, tasks, chunksize=1
            ):
                for index, record in batch:
                    results[index] = record
                for index, output in outputs:
                    wl, ds = references[index]
                    exp.references[wl.name, ds] = output
                _absorb(runner, *deltas)
        if session is not None:
            pool_wall = time.perf_counter() - pool_start
            busy = (
                session.metrics.counters.get("sweep.worker_busy_seconds", 0.0)
                - busy_before
            )
            utilization = (
                busy / (pool_workers * pool_wall) if pool_wall > 0 else 0.0
            )
            session.metrics.gauge("sweep.worker_utilization", utilization)
            session.metrics.observe("sweep.pool_wall_seconds", pool_wall)
            session.emit(
                "sweep_finished",
                sweep=name, cells=len(specs), workers=pool_workers,
                wall_seconds=round(pool_wall, 6),
                utilization=round(utilization, 4),
            )
        for record in results:
            assert record is not None
            exp.add(record)
        # Promote the workers' recordings into the parent's in-memory
        # cache so follow-up serial cells are warm too.
        if runner.use_trace_cache:
            _absorb_spilled(runner, specs)
        return exp
    finally:
        if own_spill_dir is not None:
            cache.spill_dir = None
            shutil.rmtree(own_spill_dir, ignore_errors=True)


def _absorb_spilled(runner: "Runner", specs: _t.Sequence[RunSpec]) -> None:
    """Pull the sweep's spilled recordings into the parent's in-memory
    cache without touching the hit/miss counters.

    One preload per distinct workload; cells that differ only in their
    fault plan (the chaos sweep's ``fault_plans`` axis) share it."""
    from repro.algorithms.base import get_algorithm
    from repro.core.trace_cache import trace_key
    from repro.datasets.registry import load_dataset

    cache = runner.trace_cache
    seen: set[tuple] = set()
    for spec in specs:
        workload = spec.cell_key()[1:4]  # algorithm, dataset, params
        if workload in seen:
            continue
        seen.add(workload)
        algorithm = get_algorithm(spec.algorithm)
        graph = load_dataset(spec.dataset, scale=runner.scale)
        key = trace_key(
            algorithm.name,
            graph,
            dataset=spec.dataset,
            scale=runner.scale,
            params=spec.params_dict(),
        )
        cache.preload(key, graph)
