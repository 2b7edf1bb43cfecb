"""Parallel sweep benchmark: worker-process speedup with bit-identity.

Runs the full platform x {bfs, conn, stats} x {amazon, wikitalk} grid
(42 cells) serially and on a 4-process pool through
:meth:`~repro.core.runner.Runner.run_grid`, under the paper's
measurement protocol (10 repetitions per cell with seeded jitter, so
the per-repetition charging work dominates the one-off trace
recordings).

Two acceptance gates:

* the parallel result is **bit-identical** to the serial one — every
  status, execution time, and repetition tuple (always checked);
* wall-clock speedup is at least 2x with 4 workers — checked only when
  the machine actually has 4 cores to run them on (single-core CI
  runners and containers skip the ratio, not the equivalence).
"""

from __future__ import annotations

import os
import time

import pytest

from benchmarks.conftest import run_once
from repro.core.report import render_table
from repro.core.runner import Runner
from repro.core.spec import SweepSpec
from repro.datasets.registry import load_dataset
from repro.platforms.registry import PLATFORM_NAMES, clear_context_caches

SWEEP = SweepSpec.make(
    "bench:parallel-sweep",
    platforms=PLATFORM_NAMES,
    algorithms=("bfs", "conn", "stats"),
    datasets=("amazon", "wikitalk"),
)
#: the paper's protocol: 10 repetitions, small run-to-run variance
REPETITIONS = 10
JITTER = 0.02
WORKERS = 4


def _available_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _sweep(workers: int) -> tuple[float, "object"]:
    runner = Runner(repetitions=REPETITIONS, jitter=JITTER)
    start = time.perf_counter()
    exp = runner.run_grid(SWEEP, workers=workers)
    return time.perf_counter() - start, exp


def measure_parallel_sweep() -> tuple[dict, str]:
    """Serial vs 4-worker wall times plus equivalence."""
    # Datasets are built once up front: both paths would pay synthesis
    # on first touch, and the bench targets the executor, not the
    # generators.
    for ds in SWEEP.datasets:
        load_dataset(ds)
    serial_wall, serial = _sweep(workers=1)
    # Forked workers inherit the parent's process-wide partition/context
    # memos; clear them so the parallel path starts as cold as the
    # serial one did.
    clear_context_caches()
    parallel_wall, parallel = _sweep(workers=WORKERS)

    identical = len(serial) == len(parallel) and all(
        a.status == b.status
        and a.execution_time == b.execution_time
        and a.repetition_times == b.repetition_times
        for a, b in zip(serial, parallel)
    )
    data = {
        "cells": len(SWEEP),
        "serial_seconds": serial_wall,
        "parallel_seconds": parallel_wall,
        "speedup": serial_wall / parallel_wall if parallel_wall else 0.0,
        "identical": identical,
        "cores": _available_cores(),
    }
    text = render_table(
        ["path", "wall", "cells", "identical"],
        [
            ["serial (workers=1)", f"{serial_wall:.3f}s", len(SWEEP), ""],
            [f"parallel (workers={WORKERS})", f"{parallel_wall:.3f}s",
             len(SWEEP), "yes" if identical else "NO"],
            ["speedup", f"{data['speedup']:.2f}x", "",
             f"{data['cores']} core(s)"],
        ],
        title="Parallel sweep: platforms x {bfs,conn,stats} x "
        "{amazon,wikitalk}, 10 repetitions",
    )
    return data, text


def test_parallel_sweep_speedup(benchmark, fresh_context_memo):
    data, _ = run_once(benchmark, measure_parallel_sweep)

    # Bit-identity is unconditional: scheduling must never leak into
    # the results.
    assert data["identical"], "parallel sweep diverged from serial"

    if data["cores"] < WORKERS:
        pytest.skip(
            f"only {data['cores']} core(s) available; speedup gate "
            f"needs {WORKERS}"
        )
    assert data["speedup"] >= 2.0, (
        f"4-worker sweep only {data['speedup']:.2f}x faster than serial"
    )
