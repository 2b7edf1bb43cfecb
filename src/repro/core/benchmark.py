"""Graphalytics-style benchmark mode: workloads x platforms x datasets.

The paper's figures and tables are *views*; the thing they view is a
grid of experiment cells.  This module owns that grid:

* :class:`BenchmarkGrid` — a memoized execution layer over
  :class:`~repro.core.runner.Runner`.  Every cell runs **once** per
  grid (keyed by :meth:`RunSpec.cell_key
  <repro.core.spec.RunSpec.cell_key>`); figures, tables, findings and
  the benchmark driver are all consumers of the same records, so a
  suite session never re-simulates a cell two views share.  Results
  are bit-identical to direct ``Runner`` calls because cells are
  deterministic functions of their spec (jitter seeds derive from cell
  identity, never from grid position or execution order).
* :func:`run_benchmark` — the ``graphbench benchmark`` driver: run the
  requested workloads over platforms x datasets at a named scale
  factor, validate every completed cell's output against a reference
  output (:func:`~repro.core.workloads.reference_output`; independent
  of the programs for the core six), and assemble a
  :class:`~repro.core.report.BenchmarkReport`.

Platform groupings (:data:`DISTRIBUTED_PLATFORMS`,
:data:`ALL_PLATFORMS`) live here because both the suite and the
benchmark driver sweep them; :mod:`repro.core.suite` re-exports them
for compatibility.
"""

from __future__ import annotations

import dataclasses
import typing as _t

from repro.core.report import BenchmarkCell, BenchmarkReport
from repro.core.results import ExperimentResult, RunRecord
from repro.core.runner import Runner
from repro.core.spec import RunSpec, SweepSpec
from repro.core.workloads import (
    WORKLOAD_NAMES,
    Workload,
    get_workload,
    reference_output,
)
from repro.datasets.registry import (
    DATASET_NAMES,
    SCALE_FACTORS,
    dataset_spec,
    load_dataset,
    resolve_scale,
)

__all__ = [
    "ALL_PLATFORMS",
    "DISTRIBUTED_PLATFORMS",
    "BenchmarkGrid",
    "run_benchmark",
]

#: paper Table 4 order (distributed only)
DISTRIBUTED_PLATFORMS: tuple[str, ...] = (
    "hadoop",
    "yarn",
    "stratosphere",
    "giraph",
    "graphlab",
)
#: all six paper platforms
ALL_PLATFORMS: tuple[str, ...] = DISTRIBUTED_PLATFORMS + ("neo4j",)


@dataclasses.dataclass
class BenchmarkGrid:
    """Memoized cell execution shared by every result consumer.

    The memo key is the cell's content identity
    (:meth:`~repro.core.spec.RunSpec.cell_key`), so two views asking
    for the same (platform, algorithm, dataset, params, faults,
    cluster) cell — under different sweep names — share one record.
    """

    runner: Runner

    def __post_init__(self) -> None:
        self._memo: dict[tuple, RunRecord] = {}

    def __len__(self) -> int:
        return len(self._memo)

    def run(self, spec: RunSpec) -> RunRecord:
        """One cell, memoized."""
        key = spec.cell_key()
        record = self._memo.get(key)
        if record is None:
            record = self.runner.run(spec)
            self._memo[key] = record
        return record

    def run_sweep(
        self, sweep: SweepSpec, *, workers: int | None = None
    ) -> ExperimentResult:
        """A cartesian grid, memoized per cell.

        Only cells missing from the memo execute (see :meth:`fill`).
        The returned records follow the sweep's canonical cell order.
        """
        specs = list(sweep.cells())
        num_workers = sweep.workers if workers is None else int(workers)
        self.fill(sweep.name, specs, workers=num_workers)
        exp = ExperimentResult(sweep.name)
        for spec in specs:
            exp.add(self._memo[spec.cell_key()])
        return exp

    def fill(
        self,
        name: str,
        specs: _t.Iterable[RunSpec],
        *,
        workers: int,
        references: _t.Sequence[tuple[Workload, str]] = (),
    ) -> dict[tuple[str, str], object]:
        """Run the cells of ``specs`` missing from the memo.

        Every missing cell and every requested ``(workload, dataset)``
        reference output go to one :func:`repro.core.sweep.run_specs`
        call, so with more than one worker one process pool serves them
        all.  Returns the reference outputs, keyed by ``(workload name,
        dataset)``.
        """
        missing: dict[tuple, RunSpec] = {}
        for spec in specs:
            key = spec.cell_key()
            if key not in self._memo:
                missing.setdefault(key, spec)
        if not references and (workers == 1 or not missing):
            for key, spec in missing.items():
                self._memo[key] = self.runner.run(spec)
            return {}
        from repro.core.sweep import run_specs

        exp = run_specs(
            self.runner, name, list(missing.values()),
            workers=workers, references=references,
        )
        for key, record in zip(missing, exp.records):
            self._memo[key] = record
        return exp.references


def _normalize_workloads(
    workloads: _t.Sequence[str] | str | None,
) -> tuple[str, ...]:
    if workloads is None or workloads == "all":
        return WORKLOAD_NAMES
    if isinstance(workloads, str):
        workloads = (workloads,)
    if any(w == "all" for w in workloads):
        return WORKLOAD_NAMES
    # validate (and normalize case) via the registry
    return tuple(get_workload(w).name for w in workloads)


def _scale_identity(scale: str | float) -> tuple[float, str | None, str]:
    """(multiplier, scale-factor name or None, content hash or "")."""
    multiplier = resolve_scale(scale)
    if isinstance(scale, str) and scale.lower() in SCALE_FACTORS:
        sf = SCALE_FACTORS[scale.lower()]
        return multiplier, sf.name, sf.content_hash()
    # a numeric scale that happens to equal a named factor still gets
    # the name (they share every cache entry, so they are the same run)
    for sf in SCALE_FACTORS.values():
        if sf.multiplier == multiplier:
            return multiplier, sf.name, sf.content_hash()
    return multiplier, None, ""


def _dataset_targets(
    datasets: _t.Sequence[str], multiplier: float
) -> list[dict]:
    """Per-dataset target-vs-actual sizes (targets use the same floor
    the generator applies, so target == actual is the expected case)."""
    out = []
    for name in datasets:
        spec = dataset_spec(name)
        target_v = max(int(spec.default_scaled_vertices * multiplier), 64)
        g = load_dataset(name, scale=multiplier)
        out.append({
            "dataset": name,
            "target_vertices": target_v,
            "target_edges": int(target_v * spec.avg_degree),
            "actual_vertices": g.num_vertices,
            "actual_edges": g.num_edges,
        })
    return out


def run_benchmark(
    *,
    workloads: _t.Sequence[str] | str | None = None,
    platforms: _t.Sequence[str] | None = None,
    datasets: _t.Sequence[str] | None = None,
    scale: str | float = "tiny",
    workers: int = 1,
    seed: int = 202,
    runner: Runner | None = None,
    grid: BenchmarkGrid | None = None,
    name: str = "graphbench",
) -> BenchmarkReport:
    """Run a validated benchmark and return its report.

    For every requested workload, the full platforms x datasets grid
    executes through a shared :class:`BenchmarkGrid`; each completed
    cell's output is validated against
    :func:`~repro.core.workloads.reference_output` (never the cached
    trace the platforms replayed), under the workload's declared
    semantics.
    Crashed and DNF cells appear in the report's failure list — they
    produce no output, so they get no validation verdict.  Completed
    cells are also checked against the workload's
    :attr:`~repro.core.workloads.Workload.target_wall_budget`; an
    over-budget cell is reported WARN, never FAIL.

    With ``workers > 1`` the whole grid — every workload's missing
    cells and each (workload, dataset) reference — runs on one process
    pool (:meth:`BenchmarkGrid.fill`); the report is identical to the
    serial one.
    """
    from repro import obs
    from repro.platforms.registry import get_platform

    session = obs.active()

    wl_names = _normalize_workloads(workloads)
    platform_names = tuple(platforms) if platforms else ALL_PLATFORMS
    dataset_names = tuple(datasets) if datasets else DATASET_NAMES
    multiplier, scale_name, scale_hash = _scale_identity(scale)

    if runner is None:
        runner = Runner(scale=multiplier, seed=seed)
    elif runner.scale != multiplier:
        raise ValueError(
            f"runner.scale={runner.scale:g} does not match the requested "
            f"scale factor x{multiplier:g}"
        )
    if grid is None:
        grid = BenchmarkGrid(runner)

    report = BenchmarkReport(
        name=name,
        scale=multiplier,
        scale_name=scale_name,
        scale_hash=scale_hash,
        workloads=wl_names,
        platforms=platform_names,
        datasets=dataset_names,
        workers=workers,
        targets=_dataset_targets(dataset_names, multiplier),
        platform_labels={
            p: get_platform(p).label for p in platform_names
        },
    )

    sweeps: list[tuple[Workload, SweepSpec]] = []
    for wl_name in wl_names:
        wl = get_workload(wl_name)
        report.workload_titles[wl.name] = (
            f"{wl.label} [{wl.algorithm}] — {wl.semantics} validation"
        )
        sweeps.append((wl, SweepSpec.make(
            f"{name}:{wl.name}",
            platforms=platform_names,
            algorithms=(wl.algorithm,),
            datasets=dataset_names,
            **wl.params_dict(),
        )))
    # In parallel, one pool runs every missing cell of every workload
    # and computes the references, so its workers keep their partition
    # and context memos from one workload to the next.
    references: dict[tuple[str, str], object] = {}
    if workers > 1:
        references = grid.fill(
            name,
            (spec for _, sweep in sweeps for spec in sweep.cells()),
            workers=workers,
            references=[(wl, ds) for wl, _ in sweeps for ds in dataset_names],
        )

    for wl, sweep in sweeps:
        exp = grid.run_sweep(sweep, workers=workers)
        # canonical cell order: dataset-major, then platform
        records = iter(exp.records)
        for ds in dataset_names:
            # the pool's, in parallel; otherwise computed on first use
            reference = references.get((wl.name, ds))
            for plat in platform_names:
                rec = next(records)
                if not rec.ok:
                    report.cells.append(BenchmarkCell(
                        workload=wl.name,
                        platform=plat,
                        dataset=ds,
                        status=rec.status.value,
                        failure_reason=rec.failure_reason,
                    ))
                    if session is not None:
                        session.emit(
                            "gate_verdict",
                            workload=wl.name, platform=plat, dataset=ds,
                            status=rec.status.value, verdict=None,
                        )
                    continue
                if reference is None:
                    reference = reference_output(
                        wl, load_dataset(ds, scale=multiplier)
                    )
                assert rec.result is not None
                verdict = wl.validate(reference, rec.result.output)
                cell = BenchmarkCell(
                    workload=wl.name,
                    platform=plat,
                    dataset=ds,
                    status=rec.status.value,
                    execution_time=rec.execution_time,
                    verdict=verdict,
                    wall_budget=wl.target_wall_budget,
                )
                report.cells.append(cell)
                if session is not None:
                    session.metrics.count("benchmark.cells_validated")
                    if not verdict:
                        session.metrics.count("benchmark.validation_failures")
                    session.emit(
                        "gate_verdict",
                        workload=wl.name, platform=plat, dataset=ds,
                        status=rec.status.value, verdict=verdict.status,
                        over_budget=cell.over_budget,
                    )

    report.cache_stats = runner.cache_stats()
    return report
