"""The chaos-sweep scenario matrix: fault plans x the experiment grid.

The paper's §4.1 robustness findings are anecdotal cells — platform X
crashed on dataset Y.  This module systematizes them: cross a set of
fault-plan *templates* (:class:`~repro.des.faults.PlanTemplate`,
horizon-relative so "crash at 50% of the job" means the same thing in
every cell) with the full platform x algorithm x dataset grid, run the
whole matrix through the parallel sweep executor, and report per-cell
degradation against each cell's own fault-free baseline as a
:class:`~repro.core.report.ChaosReport` — graceful-degradation curves,
retry/restart accounting, and the availability / recovery-cost
frontier.

Two phases, both deterministic:

1. **baseline** — the fault-free grid runs first (parallel, trace
   cached); each completed cell's simulated makespan is the *horizon*
   its chaos plans are materialized against.
2. **chaos** — one :class:`~repro.core.spec.RunSpec` per (template x
   surviving baseline cell), executed through
   :func:`~repro.core.sweep.run_specs`.  Per-cell derived seeds and
   one plan-free recording per (algorithm, dataset), shared by every
   plan because faults are charged on replay, make ``workers=N``
   bit-identical to ``workers=1``.

Baseline cells that crash without faults (e.g. Giraph heap exhaustion
— the paper's findings) surface as ``"no-baseline"`` chaos cells:
there is nothing to degrade, which is itself part of the frontier.

The methodology itself is validated by the known-truth net
(:mod:`repro.des.known_truth`): run ``graphbench chaos-sweep
--selftest`` or the hypothesis suite in ``tests/test_known_truth.py``.
"""

from __future__ import annotations

import dataclasses
import typing as _t

from repro import obs
from repro.cluster.spec import ClusterSpec, das4_cluster
from repro.core.report import ChaosCell, ChaosReport
from repro.core.results import RunRecord
from repro.core.spec import RunSpec, SweepSpec
from repro.core.sweep import run_specs
from repro.des.faults import NAMED_PLANS, PlanTemplate

if _t.TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.runner import Runner

__all__ = [
    "DEFAULT_TEMPLATES",
    "resolve_templates",
    "run_chaos_sweep",
]

#: the canonical scenario set: one template per fault class, placed
#: where each hurts (mid-job crash, long mid-job degradation windows,
#: a whole-run memory ceiling)
DEFAULT_TEMPLATES: tuple[PlanTemplate, ...] = (
    PlanTemplate("crash", at=0.5),
    PlanTemplate("partition", at=0.5, duration=0.2),
    PlanTemplate("straggler", at=0.3, duration=0.3),
    PlanTemplate("disk", at=0.3, duration=0.3),
    PlanTemplate("memory", at=0.0, severity=0.5),
)


def resolve_templates(
    names: _t.Sequence[str],
    *,
    at: float = 0.5,
    duration: float = 0.2,
    severity: float | None = None,
    seed: int = 202,
    num_faults: int = 3,
) -> tuple[PlanTemplate, ...]:
    """Turn CLI plan names into templates.

    ``"all"`` expands to :data:`DEFAULT_TEMPLATES` (each fault class at
    its canonical placement); ``"seeded"`` draws ``num_faults`` mixed
    faults from ``seed``; any :data:`~repro.des.faults.NAMED_PLANS`
    name builds a single-fault template at the given fractions.
    """
    templates: list[PlanTemplate] = []
    for name in names:
        name = name.lower()
        if name == "all":
            templates.extend(DEFAULT_TEMPLATES)
        elif name == "seeded":
            templates.append(
                PlanTemplate("seeded", seed=seed, num_faults=num_faults)
            )
        elif name in NAMED_PLANS:
            templates.append(
                PlanTemplate(
                    name, at=at, duration=duration, severity=severity
                )
            )
        else:
            raise KeyError(
                f"unknown plan {name!r}; choose from "
                f"{', '.join(NAMED_PLANS + ('seeded', 'all'))}"
            )
    # de-duplicate while keeping order (e.g. "--plans all crash")
    return tuple(dict.fromkeys(templates))


def _accounting(record: RunRecord) -> dict[str, _t.Any]:
    result = record.result
    if result is None:
        return {}
    return {
        "task_retries": result.task_retries,
        "speculative_tasks": result.speculative_tasks,
        "job_restarts": result.job_restarts,
        "recovery_seconds": result.recovery_seconds,
        "faults_fired": result.faults_injected,
    }


def run_chaos_sweep(
    runner: "Runner",
    *,
    templates: _t.Sequence[PlanTemplate] = DEFAULT_TEMPLATES,
    platforms: _t.Sequence[str],
    algorithms: _t.Sequence[str],
    datasets: _t.Sequence[str],
    cluster: ClusterSpec | None = None,
    workers: int = 1,
    name: str = "chaos-sweep",
) -> ChaosReport:
    """Run the scenario matrix and return its :class:`ChaosReport`.

    Deterministic end to end: the baseline grid fixes each cell's
    horizon (simulated seconds, not wall clock), templates materialize
    against those horizons, and both phases run through the
    bit-identical sweep executor — so the report is the same object for
    any ``workers`` count.
    """
    templates = tuple(templates)
    if not templates:
        raise ValueError("chaos sweep needs at least one plan template")
    names = [t.name for t in templates]
    if len(set(names)) != len(names):
        raise ValueError(
            f"plan template names must be distinct, got {names}"
        )
    session = obs.active()
    num_nodes = (cluster or das4_cluster()).num_workers

    baseline_sweep = SweepSpec(
        name=f"{name}-baseline",
        platforms=tuple(platforms),
        algorithms=tuple(algorithms),
        datasets=tuple(datasets),
        cluster=cluster,
    )
    baseline_specs = list(baseline_sweep.cells())
    if session is not None:
        session.emit(
            "chaos_sweep_started",
            sweep=name,
            plans=list(names),
            platforms=list(baseline_sweep.platforms),
            algorithms=list(baseline_sweep.algorithms),
            datasets=list(baseline_sweep.datasets),
            cells=len(templates) * len(baseline_specs),
            workers=workers,
        )
    baseline = runner.run_grid(baseline_sweep, workers=workers)
    baseline_records = list(baseline)
    assert len(baseline_records) == len(baseline_specs)

    # Materialize one concrete plan per (template x surviving baseline
    # cell): the cell's fault-free simulated makespan is the horizon.
    chaos_specs: list[RunSpec] = []
    matrix: list[tuple[PlanTemplate, RunSpec, RunRecord, bool]] = []
    for template in templates:
        for spec, record in zip(baseline_specs, baseline_records):
            runnable = record.ok and bool(record.execution_time)
            matrix.append((template, spec, record, runnable))
            if not runnable:
                continue
            assert record.execution_time is not None
            plan = template.materialize(
                record.execution_time, num_nodes=num_nodes
            )
            chaos_specs.append(dataclasses.replace(spec, fault_plan=plan))
    chaos_exp = run_specs(runner, name, chaos_specs, workers=workers)
    chaos_records = iter(chaos_exp)

    report = ChaosReport(
        name=name,
        scale=runner.scale,
        workers=workers,
        plans=tuple(names),
        platforms=baseline_sweep.platforms,
        algorithms=baseline_sweep.algorithms,
        datasets=baseline_sweep.datasets,
        baselines=[
            {
                "platform": spec.platform_name,
                "algorithm": spec.algorithm,
                "dataset": spec.dataset_name,
                "status": record.status.value,
                "execution_time": record.execution_time,
                "failure_reason": record.failure_reason or None,
            }
            for spec, record in zip(baseline_specs, baseline_records)
        ],
        platform_labels=_platform_labels(baseline_sweep.platforms),
    )
    for template, spec, base_record, runnable in matrix:
        if not runnable:
            cell = ChaosCell(
                plan=template.name,
                platform=spec.platform_name,
                algorithm=spec.algorithm,
                dataset=spec.dataset_name,
                status="no-baseline",
                baseline_time=None,
                failure_reason=base_record.failure_reason,
            )
        else:
            record = next(chaos_records)
            cell = ChaosCell(
                plan=template.name,
                platform=spec.platform_name,
                algorithm=spec.algorithm,
                dataset=spec.dataset_name,
                status=record.status.value,
                baseline_time=base_record.execution_time,
                execution_time=record.execution_time,
                failure_reason=record.failure_reason,
                **_accounting(record),
            )
        report.cells.append(cell)
        if session is not None:
            session.emit(
                "chaos_cell",
                sweep=name,
                plan=cell.plan,
                cell=f"{cell.platform}/{cell.algorithm}/{cell.dataset}",
                status=cell.status,
                slowdown=(
                    round(cell.slowdown, 6)
                    if cell.slowdown is not None else None
                ),
                recovery_seconds=round(cell.recovery_seconds, 6),
            )
    if session is not None:
        summary = report.summary()
        session.emit(
            "chaos_sweep_finished",
            sweep=name,
            cells=summary["cells"],
            survived=summary["survived"],
            crashed=summary["crashed"],
            no_baseline=summary["no_baseline"],
        )
    return report


def _platform_labels(platforms: _t.Sequence[str]) -> dict[str, str]:
    from repro.platforms.registry import get_platform

    labels: dict[str, str] = {}
    for p in platforms:
        try:
            labels[p] = getattr(get_platform(p), "label", p)
        except KeyError:  # pragma: no cover - unknown names fail earlier
            labels[p] = p
    return labels
