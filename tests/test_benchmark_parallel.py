"""The validated benchmark on a process pool: serial ≡ parallel.

``run_benchmark(workers=N)`` hands every cell of every workload, and
every (workload, dataset) reference output, to one
:func:`repro.core.sweep.run_specs` call.  The report must not show it:
cells, verdicts and failure reasons are identical to the serial run's,
a failure inside a worker surfaces as the exception the serial path
raises, and no worker outlives the call.
"""

import multiprocessing
import struct

import pytest

from repro import obs
from repro.core.benchmark import BenchmarkGrid, run_benchmark
from repro.core.runner import Runner
from repro.platforms import registry

#: stats on wikitalk crashes giraph and graphlab and runs neo4j past its
#: budget at the tiny scale, so the grid holds CRASHED and DNF cells
GRID = dict(
    workloads=("bfs", "stats"),
    platforms=("giraph", "graphlab", "neo4j"),
    datasets=("amazon", "wikitalk"),
    scale="tiny",
)

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="workers see the test's monkeypatches only when forked",
)


class _Boom(RuntimeError):
    """Raised inside a worker by a patched harness function."""


def _cell_rows(report):
    return [
        (
            c.workload, c.platform, c.dataset, c.status,
            None if c.execution_time is None
            else struct.pack("<d", c.execution_time),
            None if c.verdict is None
            else (c.verdict.status, c.verdict.detail),
            c.failure_reason,
        )
        for c in report.cells
    ]


def _run(workers):
    registry.reset_for_isolation()
    return run_benchmark(**GRID, workers=workers)


@pytest.fixture(scope="module")
def serial():
    return _run(1)


class TestSerialEqualsParallel:
    def test_cells_and_summary_identical(self, serial):
        with obs.observed() as session:
            parallel = _run(2)
        assert _cell_rows(parallel) == _cell_rows(serial)
        assert parallel.summary() == serial.summary()
        statuses = {c.status for c in serial.cells}
        assert {"ok", "crashed", "dnf"} <= statuses
        # one pool for the whole grid, not one per workload
        assert session.events.by_kind()["sweep_started"] == 1

    def test_cache_stats_count_the_workers_contexts(self, serial):
        parallel = _run(2)

        def lookups(stats):
            return stats["step_memo_hits"] + stats["step_memo_misses"]

        assert lookups(parallel.cache_stats) == lookups(serial.cache_stats)
        assert parallel.cache_stats["contexts"] > 0

    def test_partially_warm_grid_fills_through_the_pool(self, serial):
        runner = Runner(scale=serial.scale, seed=202)
        grid = BenchmarkGrid(runner)
        report = run_benchmark(
            **{**GRID, "workloads": ("bfs",)}, runner=runner, grid=grid
        )
        assert len(grid) == len(report.cells)
        both = run_benchmark(**GRID, workers=2, runner=runner, grid=grid)
        assert _cell_rows(both) == _cell_rows(serial)
        # fully warm: the one reference left is computed in-process
        one = run_benchmark(
            **{**GRID, "workloads": ("bfs",), "datasets": ("amazon",)},
            workers=2, runner=runner, grid=grid,
        )
        assert _cell_rows(one) == [
            row for row in _cell_rows(serial)
            if row[0] == "bfs" and row[2] == "amazon"
        ]


@needs_fork
class TestWorkerFailures:
    def _assert_raises_in_both(self):
        before = set(multiprocessing.active_children())
        for workers in (1, 2):
            with pytest.raises(_Boom):
                _run(workers)
        left = [p for p in multiprocessing.active_children()
                if p not in before]
        assert left == []

    def test_reference_task_raises(self, monkeypatch):
        def boom(workload, graph, **params):
            raise _Boom(f"reference {workload.name}")

        # the serial path binds reference_output at import; pool tasks
        # look it up in repro.core.workloads when they run
        monkeypatch.setattr("repro.core.benchmark.reference_output", boom)
        monkeypatch.setattr("repro.core.workloads.reference_output", boom)
        self._assert_raises_in_both()

    def test_cell_batch_raises(self, monkeypatch):
        run = Runner.run

        def failing_run(self, spec):
            if spec.platform == "graphlab" and spec.dataset == "wikitalk":
                raise _Boom(spec.describe())
            return run(self, spec)

        monkeypatch.setattr(Runner, "run", failing_run)
        self._assert_raises_in_both()
