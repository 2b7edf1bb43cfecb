"""The three sweep workloads: cold-benchmark, parallel-benchmark and
scaling-sweep.

Each workload object has ``setup()`` (datasets into the in-process
memo, traces for warm workloads) and ``iteration()``, which runs the
whole grid once from the state the workload promises and returns an
:class:`Iteration`.  Cold state is set explicitly before every
iteration with ``TraceCache.reset_for_isolation`` and
``repro.platforms.registry.reset_for_isolation``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import pathlib
import random
import struct
import time

#: the Graphalytics core six (``repro.core.workloads`` names)
CORE_WORKLOADS = ("bfs", "wcc", "cdlp", "pr", "sssp", "lcc")
#: five of the paper's datasets; friendster and dotaleague are the slow
#: ones and are left out to keep one grid short
GRID_DATASETS = ("amazon", "kgs", "citation", "wikitalk", "synth")
#: named scale factor of the validated grids
GRID_SCALE = "tiny"

#: the paper's section 4.3 platforms (Figs. 11-14)
SCALING_PLATFORMS = (
    "hadoop", "yarn", "stratosphere", "giraph", "graphlab", "graphlab_mp",
)
SCALING_ALGORITHMS = ("bfs", "conn", "stats")
SCALING_DATASETS = ("amazon", "kgs", "citation")
SCALING_SCALE = 0.25


@dataclasses.dataclass
class Iteration:
    """One pass over a grid."""

    wall_s: float
    cells: int
    #: per-cell wall seconds as the program reports them
    #: (``JobResult.wall_time_seconds``), completed cells only
    cell_walls: list[float]
    #: cells that raised or failed validation
    failed: int
    #: human-readable reasons the run is not correct
    problems: list[str]
    #: counters read from the program after the pass
    counters: dict[str, float] = dataclasses.field(default_factory=dict)


def record_digest(rows) -> str:
    """sha256 over sorted ``(key..., status, execution_time bits)`` rows."""
    h = hashlib.sha256()
    for *key, status, seconds in sorted(rows, key=lambda r: r[:-2]):
        bits = "none" if seconds is None else struct.pack("<d", seconds).hex()
        h.update(repr((tuple(key), status, bits)).encode())
    return h.hexdigest()


def _load_datasets(names, scale) -> None:
    from repro.datasets import registry as dreg

    # start from an empty in-process memo; graphs come from the
    # benchmark's own REPRO_CACHE_DIR
    dreg.clear_cache()
    for name in names:
        dreg.load_dataset(name, scale=scale)


class ValidatedGrid:
    """``run_benchmark`` over the core six x six platforms x five
    datasets, from an empty trace cache and empty context memos."""

    #: seconds one grid takes on a 2-core x86 VM, which sizes a run
    nominal_s = 2.5

    def __init__(self, seed: int, state_dir: pathlib.Path, workers: int,
                 expected: dict) -> None:
        rng = random.Random(seed)
        self.seed = seed
        self.workers = workers
        self.expected = expected
        self.workloads = rng.sample(CORE_WORKLOADS, len(CORE_WORKLOADS))
        self.datasets = rng.sample(GRID_DATASETS, len(GRID_DATASETS))
        self.spill_dir = state_dir / "spill" if workers > 1 else None
        self.grid_cells = (
            len(CORE_WORKLOADS) * 6 * len(GRID_DATASETS)
        )

    def setup(self) -> None:
        from repro.datasets.registry import resolve_scale

        import repro.core.benchmark  # noqa: F401

        _load_datasets(self.datasets, resolve_scale(GRID_SCALE))

    def iteration(self) -> Iteration:
        from repro.core.benchmark import BenchmarkGrid, run_benchmark
        from repro.core.runner import Runner
        from repro.core.trace_cache import TraceCache
        from repro.datasets.registry import resolve_scale
        from repro.platforms import registry

        records = []

        class RecordingGrid(BenchmarkGrid):
            def run_sweep(self, sweep, *, workers=None):
                exp = super().run_sweep(sweep, workers=workers)
                records.extend(exp.records)
                return exp

        registry.reset_for_isolation()
        cache = TraceCache(spill_dir=self.spill_dir)
        cache.reset_for_isolation()
        runner = Runner(
            scale=resolve_scale(GRID_SCALE), seed=self.seed, trace_cache=cache
        )
        problems: list[str] = []
        start = time.perf_counter()
        try:
            report = run_benchmark(
                workloads=self.workloads,
                datasets=self.datasets,
                scale=GRID_SCALE,
                workers=self.workers,
                runner=runner,
                grid=RecordingGrid(runner),
            )
        except Exception as exc:  # noqa: BLE001 - a harness failure
            wall = time.perf_counter() - start
            return Iteration(wall, self.grid_cells, [], self.grid_cells,
                             [f"run_benchmark raised {exc!r}"])
        wall = time.perf_counter() - start

        failed = sum(1 for c in report.cells if c.ok and not c.validated)
        if failed:
            problems.append(f"{failed} completed cells did not PASS")
        non_ok = sum(1 for c in report.cells if not c.ok)
        if non_ok != self.expected["grid_non_ok"]:
            problems.append(
                f"{non_ok} CRASHED/DNF cells, expected "
                f"{self.expected['grid_non_ok']}"
            )
        digest = record_digest(
            (c.workload, c.platform, c.dataset, c.status, c.execution_time)
            for c in report.cells
        )
        if digest != self.expected["grid_digest"]:
            problems.append("record digest differs from the serial grid's")
        stats = cache.stats()
        return Iteration(
            wall_s=wall,
            cells=len(report.cells),
            cell_walls=[r.result.wall_time_seconds for r in records if r.ok],
            failed=failed,
            problems=problems,
            counters={
                "digest": digest,
                "non_ok": non_ok,
                "trace_misses": stats["misses"],
                "trace_hits": stats["hits"],
                "disk_stores": stats["disk_stores"],
                "disk_hits": stats["disk_hits"],
                # one recording per distinct (algorithm, dataset)
                "serial_records": len(self.workloads) * len(self.datasets),
            },
        )


class ScalingSweep:
    """The section 4.3 horizontal (20-50 machines) and vertical (1-7
    cores) sweeps over recorded traces, with cold partition contexts."""

    nominal_s = 4.0

    def __init__(self, seed: int, expected: dict) -> None:
        rng = random.Random(seed)
        self.seed = seed
        self.expected = expected
        self.order = [
            (dataset, algorithm, direction)
            for dataset in SCALING_DATASETS
            for algorithm in SCALING_ALGORITHMS
            for direction in ("horizontal", "vertical")
        ]
        rng.shuffle(self.order)
        self.runner = None

    def setup(self) -> None:
        from repro.algorithms.base import get_algorithm
        from repro.core.runner import Runner
        from repro.datasets.registry import load_dataset

        import repro.core.scalability  # noqa: F401

        _load_datasets(SCALING_DATASETS, SCALING_SCALE)
        self.runner = Runner(scale=SCALING_SCALE, seed=self.seed)
        self.runner.trace_cache.reset_for_isolation()
        for dataset in SCALING_DATASETS:
            graph = load_dataset(dataset, scale=SCALING_SCALE)
            for algorithm in SCALING_ALGORITHMS:
                self.runner.trace_cache.get_or_record(
                    get_algorithm(algorithm), graph, dataset=dataset,
                    scale=SCALING_SCALE, params={},
                )

    def iteration(self) -> Iteration:
        from repro.core.scalability import horizontal_sweep, vertical_sweep
        from repro.platforms import registry

        registry.reset_for_isolation()
        runner = self.runner
        misses, hits = runner.trace_cache.misses, runner.trace_cache.hits
        records = []
        start = time.perf_counter()
        try:
            for dataset, algorithm, direction in self.order:
                sweep = (
                    horizontal_sweep if direction == "horizontal"
                    else vertical_sweep
                )
                exp = sweep(
                    SCALING_PLATFORMS, dataset, algorithm=algorithm,
                    runner=runner,
                )
                records.extend(exp.records)
        except Exception as exc:  # noqa: BLE001 - a harness failure
            wall = time.perf_counter() - start
            cells = self.expected["scaling_cells"]
            return Iteration(wall, cells, [], cells,
                             [f"scaling sweep raised {exc!r}"])
        wall = time.perf_counter() - start
        problems: list[str] = []
        non_ok = sum(1 for r in records if not r.ok)
        if non_ok != self.expected["scaling_non_ok"]:
            problems.append(
                f"{non_ok} CRASHED/DNF cells, expected "
                f"{self.expected['scaling_non_ok']}"
            )
        digest = record_digest(
            (r.platform, r.algorithm, r.dataset, r.cluster.num_workers,
             r.cluster.cores_per_worker, r.status.value,
             r.execution_time if r.ok else None)
            for r in records
        )
        if digest != self.expected["scaling_digest"]:
            problems.append("record digest differs from the stored one")
        return Iteration(
            wall_s=wall,
            cells=len(records),
            cell_walls=[r.result.wall_time_seconds for r in records if r.ok],
            failed=0,
            problems=problems,
            counters={
                "digest": digest,
                "non_ok": non_ok,
                "trace_misses": runner.trace_cache.misses - misses,
                "trace_hits": runner.trace_cache.hits - hits,
            },
        )
