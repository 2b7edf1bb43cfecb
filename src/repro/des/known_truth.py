"""Known-truth recovery-semantics scenarios: analytic validation.

The chaos matrix (:mod:`repro.core.chaos`) reports how much a fault
plan costs each platform.  Those numbers are only trustworthy if the
per-platform recovery models provably implement the semantics they
claim — so this module builds *synthetic* scenarios whose outcomes are
derivable in closed form and drives the **real** recovery code against
them (KIF-style validation: independent reference semantics, not
smoke tests).

The synthetic workload is a :class:`UniformJob`: ``steps`` identical
phases of ``step_seconds`` each, total fault-free cost ``T = steps *
step_seconds``.  Three drivers execute it through the production
recovery implementations:

* :func:`run_whole_job_restart` — the abort-and-resubmit model shared
  by GraphLab, Stratosphere, and Neo4j
  (:meth:`Platform._recover_whole_job
  <repro.platforms.base.Platform._recover_whole_job>`, the default
  ``_recover_crashes`` policy);
* :func:`run_task_retry` — Hadoop/YARN per-task retry
  (:meth:`MapReduceEngine._retry_crashed_tasks
  <repro.platforms.mapreduce.MapReduceEngine._retry_crashed_tasks>`);
* :func:`run_checkpoint_restart` — Giraph checkpoint-restart
  (:meth:`Giraph._recover_crashes
  <repro.platforms.giraph.Giraph._recover_crashes>`).

In a platform run these policies are invoked by the charging skeleton
(:class:`~repro.platforms.base.Charge`): the boundary policies at the
end of every superstep and after the final phase, over the crash
window since the previous scan; the task-retry policy inside every
MapReduce job step.  The drivers here call the same methods with the
same arguments, minus the cost formulas.

Each driver has an ``expected_*`` twin computing the same outcome as
bare arithmetic over the documented semantics — no
:class:`~repro.des.faults.FaultInjector`, no platform code.  The
closed forms (``s`` = step seconds, ``R`` = restart latency):

* **whole-job restart** — a crash at nominal time ``a`` is detected at
  the end of the superstep in flight, ``t_d = k*s`` with
  ``k = floor(a/s) + 1``; the job re-pays *all* simulated work so far
  plus the resubmission latency: ``extra = R + t_d``.  Each restart
  grows the scan window, so ``k`` crashes landing in the first step
  compound as ``t_k = 2^k * s + (2^k - 1) * R``.
* **per-task retry** — only the dead node's share re-runs:
  ``retry_i = (E_i - S) / w + L`` where ``E_i`` is the job wall so far
  (including earlier retries), ``S`` the job-startup time, ``w`` the
  node count, and ``L`` the retry launch latency.  With ``a = 1 + 1/w``
  this recurrence has the closed form
  ``E_k = a^k * E_0 - (S - L*w) * (a^k - 1)``, and the charged
  recovery is exactly ``E_k - E_0``.
* **checkpoint-restart** — with checkpoints every ``c`` supersteps, a
  crash detected at step ``k`` re-pays ``R`` plus only the work since
  the last checkpoint barrier: ``lost = (k mod c) * s``, so
  ``extra = R + lost <= R + c*s`` — lost work is bounded by the
  checkpoint interval.

:func:`verify_recovery_semantics` packages one scenario per platform
recovery family into :class:`ScenarioCheck` rows (the ``graphbench
chaos-sweep --selftest`` surface); the hypothesis-driven sweep over
crash fractions, retry counts, checkpoint intervals, and seeds lives
in ``tests/test_known_truth.py``.
"""

from __future__ import annotations

import dataclasses
import typing as _t

from repro.des.faults import Fault, FaultInjector, FaultKind, FaultPlan

if _t.TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.platforms.base import Platform
    from repro.platforms.giraph import Giraph
    from repro.platforms.mapreduce import MapReduceEngine

__all__ = [
    "REL_TOL",
    "UniformJob",
    "KnownTruthOutcome",
    "ScenarioCheck",
    "crash_plan",
    "run_whole_job_restart",
    "expected_whole_job_restart",
    "run_task_retry",
    "expected_task_retry",
    "closed_form_task_retry",
    "run_checkpoint_restart",
    "expected_checkpoint_restart",
    "verify_recovery_semantics",
]

#: the relative error every analytic scenario must hold to
REL_TOL: float = 1e-9


@dataclasses.dataclass(frozen=True)
class UniformJob:
    """A synthetic uniform-cost job: ``steps`` phases of equal length."""

    steps: int
    step_seconds: float

    def __post_init__(self) -> None:
        if self.steps < 1:
            raise ValueError(f"steps must be >= 1, got {self.steps}")
        if self.step_seconds <= 0.0:
            raise ValueError(
                f"step_seconds must be > 0, got {self.step_seconds}"
            )

    @property
    def total(self) -> float:
        """The fault-free makespan ``T``."""
        return self.steps * self.step_seconds


@dataclasses.dataclass(frozen=True)
class KnownTruthOutcome:
    """What a scenario cost: the makespan, the charged recovery, and
    the retry/restart accounting — comparable field-by-field between a
    real-model driver and its analytic twin."""

    makespan: float
    recovery_seconds: float
    job_restarts: int = 0
    task_retries: int = 0
    crashed: bool = False
    failure: str = ""


def crash_plan(times: _t.Iterable[float], *, node: int = 0) -> FaultPlan:
    """A plan of pure node crashes at the given nominal times."""
    faults = tuple(
        Fault(FaultKind.NODE_CRASH, at=float(at), node=node) for at in times
    )
    return FaultPlan(faults=faults, name="known-truth-crashes")


def _crash_times(plan: FaultPlan) -> list[float]:
    return sorted(
        f.at for f in plan.faults if f.kind is FaultKind.NODE_CRASH
    )


# -- whole-job restart (GraphLab / Stratosphere / Neo4j) ---------------------


def run_whole_job_restart(
    platform: "Platform", plan: FaultPlan, job: UniformJob
) -> KnownTruthOutcome:
    """Drive ``job`` through the real abort-and-resubmit recovery of
    ``platform`` (its inherited :meth:`Platform._recover_whole_job
    <repro.platforms.base.Platform._recover_whole_job>`, with its own
    ``restart_seconds`` / ``max_job_restarts`` constants)."""
    from repro.platforms.base import PlatformCrash

    faults = FaultInjector(plan, num_workers=1)
    t = 0.0
    scan_from = 0.0
    try:
        for step in range(1, job.steps + 1):
            t += job.step_seconds
            _, t = platform._recover_whole_job(
                faults, scan_from, t, stage=f"known-truth step {step}",
                tele=None,
            )
            scan_from = t
    except PlatformCrash as exc:
        return KnownTruthOutcome(
            makespan=t,
            recovery_seconds=faults.recovery_seconds,
            job_restarts=faults.job_restarts,
            crashed=True,
            failure=str(exc),
        )
    return KnownTruthOutcome(
        makespan=t,
        recovery_seconds=faults.recovery_seconds,
        job_restarts=faults.job_restarts,
    )


def expected_whole_job_restart(
    plan: FaultPlan,
    job: UniformJob,
    *,
    restart_seconds: float,
    max_restarts: int,
) -> KnownTruthOutcome:
    """The analytic twin of :func:`run_whole_job_restart`: bare
    arithmetic over the whole-job-restart semantics (each crash is
    detected at the end of the step in flight and re-pays all work so
    far plus ``restart_seconds``, within ``max_restarts``)."""
    crashes = _crash_times(plan)
    i = 0
    restarts = 0
    recovery_total = 0.0
    t = 0.0
    for _ in range(job.steps):
        t += job.step_seconds
        while i < len(crashes) and crashes[i] < t:
            if restarts >= max_restarts:
                return KnownTruthOutcome(
                    makespan=t,
                    recovery_seconds=recovery_total,
                    job_restarts=restarts,
                    crashed=True,
                    failure="restart budget exhausted",
                )
            recovery = restart_seconds + t
            recovery_total += recovery
            t += recovery
            restarts += 1
            i += 1
    return KnownTruthOutcome(
        makespan=t,
        recovery_seconds=recovery_total,
        job_restarts=restarts,
    )


# -- per-task retry (Hadoop / YARN) ------------------------------------------


def run_task_retry(
    engine: "MapReduceEngine",
    plan: FaultPlan,
    job: UniformJob,
    *,
    nodes: int,
) -> KnownTruthOutcome:
    """Drive one MapReduce job of wall ``startup + T`` through the real
    per-task retry recovery (:meth:`MapReduceEngine._retry_crashed_tasks
    <repro.platforms.mapreduce.MapReduceEngine._retry_crashed_tasks>`,
    with the engine's own budget and launch-latency constants)."""
    from repro.platforms.base import PlatformCrash

    startup = engine.job_startup_seconds
    job_time = startup + job.total
    faults = FaultInjector(plan, num_workers=nodes)
    try:
        _, _, job_time = engine._retry_crashed_tasks(
            faults, 0.0, job_time,
            startup=startup, nodes=nodes, stage="known-truth job",
        )
    except PlatformCrash as exc:
        return KnownTruthOutcome(
            makespan=job_time,
            recovery_seconds=faults.recovery_seconds,
            task_retries=faults.task_retries,
            crashed=True,
            failure=str(exc),
        )
    return KnownTruthOutcome(
        makespan=job_time,
        recovery_seconds=faults.recovery_seconds,
        task_retries=faults.task_retries,
    )


def expected_task_retry(
    plan: FaultPlan,
    job: UniformJob,
    *,
    startup: float,
    nodes: int,
    retry_launch_seconds: float,
    max_task_retries: int,
) -> KnownTruthOutcome:
    """The analytic twin of :func:`run_task_retry`: each crash inside
    the (growing) job window re-runs the dead node's ``1/nodes`` share
    of post-startup work plus the launch latency."""
    job_time = startup + job.total
    retries = 0
    recovery_total = 0.0
    for at in _crash_times(plan):
        if at >= job_time:
            continue
        if retries >= max_task_retries:
            return KnownTruthOutcome(
                makespan=job_time,
                recovery_seconds=recovery_total,
                task_retries=retries,
                crashed=True,
                failure="task retry budget exhausted",
            )
        retry = (job_time - startup) / nodes + retry_launch_seconds
        recovery_total += retry
        job_time += retry
        retries += 1
    return KnownTruthOutcome(
        makespan=job_time,
        recovery_seconds=recovery_total,
        task_retries=retries,
    )


def closed_form_task_retry(
    k: int,
    *,
    base: float,
    startup: float,
    nodes: int,
    retry_launch_seconds: float,
) -> float:
    """The non-iterative solution of the retry recurrence for ``k``
    early crashes (all landing before the nominal job completes):
    ``E_k = a^k * E_0 - (S - L*w) * (a^k - 1)`` with ``a = 1 + 1/w``."""
    a = 1.0 + 1.0 / nodes
    growth = a**k
    return growth * base - (startup - retry_launch_seconds * nodes) * (
        growth - 1.0
    )


# -- checkpoint-restart (Giraph) ---------------------------------------------


def run_checkpoint_restart(
    giraph: "Giraph", plan: FaultPlan, job: UniformJob
) -> KnownTruthOutcome:
    """Drive ``job`` through the real Giraph checkpoint-restart
    recovery (:meth:`Giraph._recover_crashes
    <repro.platforms.giraph.Giraph._recover_crashes>`), mirroring the
    production superstep loop: a zero-cost checkpoint barrier lands at
    the end of every ``checkpoint_interval``-th step *before* the crash
    scan, exactly as :meth:`Charge.checkpoint
    <repro.platforms.base.Charge.checkpoint>` inside the step body
    precedes the recovery that :meth:`Charge.supersteps
    <repro.platforms.base.Charge.supersteps>` runs after it."""
    from repro.platforms.base import PlatformCrash

    interval = giraph.checkpoint_interval
    faults = FaultInjector(plan, num_workers=1)
    t = 0.0
    scan_from = 0.0
    last_ckpt_t = 0.0
    try:
        for step in range(1, job.steps + 1):
            t += job.step_seconds
            if interval > 0 and step % interval == 0:
                last_ckpt_t = t
            _, t = giraph._recover_crashes(
                faults, scan_from, t, last_ckpt_t,
                stage=f"known-truth superstep {step}", tele=None,
            )
            scan_from = t
    except PlatformCrash as exc:
        return KnownTruthOutcome(
            makespan=t,
            recovery_seconds=faults.recovery_seconds,
            job_restarts=faults.job_restarts,
            crashed=True,
            failure=str(exc),
        )
    return KnownTruthOutcome(
        makespan=t,
        recovery_seconds=faults.recovery_seconds,
        job_restarts=faults.job_restarts,
    )


def expected_checkpoint_restart(
    plan: FaultPlan,
    job: UniformJob,
    *,
    interval: int,
    restart_seconds: float,
) -> KnownTruthOutcome:
    """The analytic twin of :func:`run_checkpoint_restart`: a crash
    detected at step ``k`` re-pays ``restart_seconds`` plus the work
    since the last checkpoint barrier (``(k mod interval) * s`` on the
    unshifted timeline); with checkpointing off the job dies at the
    first detection."""
    crashes = _crash_times(plan)
    i = 0
    restarts = 0
    recovery_total = 0.0
    t = 0.0
    last_ckpt_t = 0.0
    for step in range(1, job.steps + 1):
        t += job.step_seconds
        if interval > 0 and step % interval == 0:
            last_ckpt_t = t
        while i < len(crashes) and crashes[i] < t:
            if interval <= 0:
                return KnownTruthOutcome(
                    makespan=t,
                    recovery_seconds=recovery_total,
                    job_restarts=restarts,
                    crashed=True,
                    failure="checkpointing is off",
                )
            recovery = restart_seconds + (t - last_ckpt_t)
            recovery_total += recovery
            t += recovery
            restarts += 1
            i += 1
    return KnownTruthOutcome(
        makespan=t,
        recovery_seconds=recovery_total,
        job_restarts=restarts,
    )


# -- the packaged self-test ---------------------------------------------------


@dataclasses.dataclass(frozen=True)
class ScenarioCheck:
    """One known-truth scenario verdict: the real model's outcome
    against its closed-form expectation."""

    scenario: str
    platform: str
    quantity: str
    expected: float
    actual: float

    @property
    def rel_error(self) -> float:
        scale = max(abs(self.expected), abs(self.actual), 1e-300)
        return abs(self.actual - self.expected) / scale

    @property
    def ok(self) -> bool:
        return self.rel_error <= REL_TOL


def _compare(
    scenario: str, platform: str, expected: KnownTruthOutcome,
    actual: KnownTruthOutcome,
) -> list[ScenarioCheck]:
    return [
        ScenarioCheck(scenario, platform, "makespan",
                      expected.makespan, actual.makespan),
        ScenarioCheck(scenario, platform, "recovery_seconds",
                      expected.recovery_seconds, actual.recovery_seconds),
    ]


def verify_recovery_semantics() -> list[ScenarioCheck]:
    """Run one representative known-truth scenario per recovery family
    against every platform that implements it; returns the verdict
    rows (all :attr:`ScenarioCheck.ok` when the models are faithful).

    This is the ``graphbench chaos-sweep --selftest`` surface; the
    hypothesis-driven parameter sweep lives in the test suite.
    """
    from repro.platforms.giraph import Giraph
    from repro.platforms.graphlab import GraphLab
    from repro.platforms.hadoop import Hadoop
    from repro.platforms.neo4j import Neo4j
    from repro.platforms.stratosphere import Stratosphere
    from repro.platforms.yarn import Yarn

    checks: list[ScenarioCheck] = []
    job = UniformJob(steps=8, step_seconds=25.0)

    # whole-job restart: one crash at 37% of the fault-free makespan
    plan = crash_plan([0.37 * job.total])
    for platform in (GraphLab(), Stratosphere(), Neo4j()):
        actual = run_whole_job_restart(platform, plan, job)
        expected = expected_whole_job_restart(
            plan, job,
            restart_seconds=platform.restart_seconds,
            max_restarts=platform.max_job_restarts,
        )
        checks.extend(
            _compare("whole-job restart", platform.name, expected, actual)
        )

    # per-task retry: three crashes spread through the job wall
    for engine in (Hadoop(), Yarn()):
        nodes = 20
        wall = engine.job_startup_seconds + job.total
        plan = crash_plan([0.2 * wall, 0.5 * wall, 0.8 * wall])
        actual = run_task_retry(engine, plan, job, nodes=nodes)
        expected = expected_task_retry(
            plan, job,
            startup=engine.job_startup_seconds,
            nodes=nodes,
            retry_launch_seconds=engine.retry_launch_seconds,
            max_task_retries=engine.max_task_retries,
        )
        checks.extend(
            _compare("per-task retry", engine.name, expected, actual)
        )

    # checkpoint-restart: crash in step 7 with checkpoints every 3
    giraph = Giraph(checkpoint_interval=3)
    plan = crash_plan([6.4 * job.step_seconds])
    actual = run_checkpoint_restart(giraph, plan, job)
    expected = expected_checkpoint_restart(
        plan, job, interval=3, restart_seconds=giraph.restart_seconds
    )
    checks.extend(
        _compare("checkpoint-restart", giraph.name, expected, actual)
    )
    return checks
