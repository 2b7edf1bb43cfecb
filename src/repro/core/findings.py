"""Automated verification of the paper's key findings.

Each of the paper's boxed "Key findings" (Sections 4.1-4.4) is
codified as a predicate over suite results.  ``verify_findings`` runs
the necessary experiments once and returns a checklist — the
reproduction's self-audit, also exposed as ``graphbench findings``.

Like the figure suite, findings are **consumers of benchmark
results**: every evidence cell executes through a shared
:class:`~repro.core.benchmark.BenchmarkGrid`, so cells the BFS
evidence grid already ran (or that a co-resident suite ran) are never
re-simulated.
"""

from __future__ import annotations

import dataclasses
import typing as _t

from repro.cluster.spec import das4_cluster
from repro.core.benchmark import BenchmarkGrid
from repro.core.report import render_table
from repro.core.results import ExperimentResult, RunStatus
from repro.core.runner import Runner
from repro.core.spec import RunSpec, SweepSpec
from repro.datasets.registry import DATASET_NAMES

__all__ = ["Finding", "verify_findings", "render_findings"]


@dataclasses.dataclass(frozen=True)
class Finding:
    """One verified (or refuted) paper claim."""

    section: str
    claim: str
    holds: bool
    evidence: str


def _bfs_grid(grid: BenchmarkGrid) -> ExperimentResult:
    return grid.run_sweep(SweepSpec.make(
        "findings:bfs",
        platforms=("hadoop", "yarn", "stratosphere", "giraph", "graphlab"),
        algorithms=("bfs",),
        datasets=DATASET_NAMES,
    ))


def verify_findings(
    *, runner: Runner | None = None, grid: BenchmarkGrid | None = None
) -> list[Finding]:
    """Run the evidence experiments and check every key finding.

    Pass ``grid`` to share executed cells with other consumers (the
    figure suite, a benchmark report); ``runner`` alone builds a fresh
    grid over it.
    """
    if grid is None:
        grid = BenchmarkGrid(runner or Runner())
    elif runner is not None and grid.runner is not runner:
        raise ValueError("grid.runner must be the given runner")
    findings: list[Finding] = []
    bfs = _bfs_grid(grid)

    def t(plat: str, ds: str) -> float | None:
        rec = bfs.get(plat, "bfs", ds)
        return rec.execution_time if rec and rec.ok else None

    # -- 4.1: "There is no overall winner, but Hadoop is the worst
    #    performer in all cases."
    hadoop_worst = True
    worst_ev = []
    for ds in DATASET_NAMES:
        h = t("hadoop", ds)
        if h is None:
            continue
        for plat in ("yarn", "stratosphere", "giraph", "graphlab"):
            o = t(plat, ds)
            if o is not None and o >= h:
                hadoop_worst = False
                worst_ev.append(f"{plat} >= hadoop on {ds}")
    findings.append(Finding(
        "4.1", "Hadoop is the worst performer in all cases",
        hadoop_worst,
        "no faster platform ever loses to Hadoop"
        if hadoop_worst else "; ".join(worst_ev),
    ))

    # -- 4.1: "Multi-iteration algorithms suffer additional performance
    #    penalties in Hadoop and YARN."
    ratios = {}
    for plat in ("hadoop", "giraph"):
        hi, lo = t(plat, "amazon"), t(plat, "wikitalk")
        ratios[plat] = (hi / lo) if (hi and lo) else None
    ok = (
        ratios["hadoop"] is not None
        and ratios["giraph"] is not None
        and ratios["hadoop"] > 3 * ratios["giraph"]
    )
    findings.append(Finding(
        "4.1", "multi-iteration algorithms penalize Hadoop/YARN most",
        ok,
        f"amazon/wikitalk time ratio: hadoop {ratios['hadoop']:.1f}x "
        f"vs giraph {ratios['giraph']:.1f}x",
    ))

    # -- 4.1: "Several of the platforms are unable to process all
    #    datasets for all algorithms, and crash."
    crash_cells = [
        ("giraph", "stats", "wikitalk"),
        ("giraph", "bfs", "friendster"),
        ("hadoop", "stats", "dotaleague"),
        ("yarn", "bfs", "friendster"),
    ]
    crashed = []
    for plat, algo, ds in crash_cells:
        rec = grid.run(RunSpec(plat, algo, ds))
        crashed.append(rec.status is RunStatus.CRASHED)
    findings.append(Finding(
        "4.1", "several platforms crash on some (algorithm, dataset) cells",
        all(crashed),
        f"{sum(crashed)}/{len(crash_cells)} expected crash cells crashed",
    ))

    # -- 4.2: "Few resources are needed for the master node."
    rec = grid.run(RunSpec("giraph", "bfs", "dotaleague"))
    master_ok = False
    if rec.ok and rec.result is not None:
        cpu_peak = rec.result.trace.peak("master", "cpu") * 100
        master_ok = cpu_peak < 0.5
        master_ev = f"master CPU peak {cpu_peak:.2f}% (< 0.5%)"
    else:  # pragma: no cover - giraph completes dotaleague
        master_ev = "run failed"
    findings.append(Finding(
        "4.2", "few resources are needed for the master node",
        master_ok, master_ev,
    ))

    # -- 4.3.1: horizontal scalability "only for Friendster"
    cluster50 = das4_cluster(50)
    h20 = t("hadoop", "friendster")
    h50 = grid.run(RunSpec("hadoop", "bfs", "friendster", cluster50)).execution_time
    d20 = t("hadoop", "dotaleague")
    d50 = grid.run(RunSpec("hadoop", "bfs", "dotaleague", cluster50)).execution_time
    ok = bool(h20 and h50 and d20 and d50 and h50 < 0.75 * h20 and d50 > 0.85 * d20)
    findings.append(Finding(
        "4.3", "horizontal scalability is significant only for the largest graph",
        ok,
        f"friendster 20->50: {h20:.0f}->{h50:.0f}s; "
        f"dotaleague: {d20:.0f}->{d50:.0f}s",
    ))

    # -- 4.3.2: vertical gains saturate after ~3 cores
    v = {c: grid.run(RunSpec("hadoop", "bfs", "friendster",
                             das4_cluster(20, c))).execution_time
         for c in (1, 3, 7)}
    ok = bool(v[1] and v[3] and v[7] and v[3] < 0.9 * v[1] and v[7] > 0.8 * v[3])
    findings.append(Finding(
        "4.3", "vertical scalability saturates after ~3 cores",
        ok, f"1/3/7 cores: {v[1]:.0f}/{v[3]:.0f}/{v[7]:.0f}s",
    ))

    # -- 4.3: NEPS decreases with added resources
    from repro.core.metrics import normalized_eps

    r20 = grid.run(RunSpec("stratosphere", "bfs", "friendster"))
    r50 = grid.run(RunSpec("stratosphere", "bfs", "friendster", cluster50))
    ok = bool(
        r20.ok and r50.ok
        and normalized_eps(r50.result) < normalized_eps(r20.result)
    )
    findings.append(Finding(
        "4.3", "normalized performance per computing unit decreases with scale",
        ok,
        f"stratosphere NEPS 20 vs 50 nodes: "
        f"{normalized_eps(r20.result):.3g} vs {normalized_eps(r50.result):.3g}",
    ))

    # -- 4.4: Neo4j ingestion takes much longer than HDFS
    from repro.datasets.registry import load_dataset
    from repro.platforms.registry import get_platform

    g = load_dataset("kgs", scale=grid.runner.scale)
    t_hdfs = get_platform("hadoop").ingest_seconds(g)
    t_neo = get_platform("neo4j").ingest_seconds(g)
    ok = t_neo > 100 * t_hdfs
    findings.append(Finding(
        "4.4", "data ingestion takes much longer for Neo4j than for HDFS",
        ok, f"kgs: HDFS {t_hdfs:.1f}s vs Neo4j {t_neo / 3600:.1f}h",
    ))

    # -- 4.4: overhead fraction varies across platforms
    fracs = {}
    for plat in ("hadoop", "giraph", "graphlab"):
        rec = grid.run(RunSpec(plat, "bfs", "dotaleague"))
        if rec.ok and rec.result:
            fracs[plat] = rec.result.overhead_time / rec.result.execution_time
    ok = len(fracs) == 3 and (max(fracs.values()) - min(fracs.values())) > 0.02
    findings.append(Finding(
        "4.4", "the overhead share of execution time varies across platforms",
        ok,
        ", ".join(f"{p}={f:.0%}" for p, f in fracs.items()),
    ))

    return findings


def render_findings(findings: _t.Sequence[Finding]) -> str:
    """Checklist table for reports and the CLI."""
    rows = [
        [f.section, "PASS" if f.holds else "FAIL", f.claim, f.evidence]
        for f in findings
    ]
    return render_table(
        ["sec", "status", "paper claim", "evidence"],
        rows,
        title="Key-findings verification (paper Sections 4.1-4.4)",
    )
