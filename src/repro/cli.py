"""Command-line interface: ``graphbench`` / ``python -m repro``.

Every experiment-running subcommand builds a
:class:`~repro.core.spec.RunSpec` / :class:`~repro.core.spec.SweepSpec`
and hands it to the runner — the CLI is a thin spec factory.

Subcommands::

    graphbench run --platform giraph --algorithm bfs --dataset dotaleague
    graphbench benchmark --workloads all --scale tiny --json report.json
    graphbench figure 1            # regenerate a paper figure
    graphbench table 5             # regenerate a paper table
    graphbench list                # platforms, algorithms, datasets,
                                   # workloads and scale factors
    graphbench sweep --dataset friendster --mode horizontal
    graphbench sweep --mode grid --algorithms bfs conn \\
        --datasets amazon --workers 4 --json sweep_telemetry.jsonl
    graphbench chaos-sweep --plans crash --platforms hadoop \\
        --algorithms bfs --datasets dotaleague
    graphbench serve --port 8040   # the what-if prediction service

Flag vocabulary is uniform across subcommands: ``--workers`` is always
the sweep executor's *process* count, ``--workers-per-cell`` is always
the *modeled* cluster size, and ``--json``/``--events``/``--strict``/
``--seed`` mean the same thing everywhere (one shared argparse parent
defines them).
"""

from __future__ import annotations

import argparse
import contextlib
import sys

from repro.algorithms.base import ALGORITHM_NAMES

#: CLI-selectable algorithms: the paper's five plus the extensions
CLI_ALGORITHMS = ALGORITHM_NAMES + (
    "pagerank", "sssp", "triangles", "diameter", "mis", "sampling",
)
from repro.cluster.spec import das4_cluster
from repro.core.metrics import job_metrics
from repro.core.report import format_seconds, render_table
from repro.core.runner import Runner
from repro.core.spec import RunSpec, SweepSpec
from repro.core.suite import BenchmarkSuite
from repro.datasets.registry import resolve_scale
from repro.platforms.registry import PLATFORM_NAMES

__all__ = ["main"]


# -- argument validation via the registry discovery API ----------------------

def _discover(kind: str) -> list[tuple[str, str]]:
    """The ``(name, description)`` listing for one registry kind."""
    if kind == "platform":
        from repro.platforms.registry import list_platforms

        return list_platforms()
    if kind == "algorithm":
        from repro.algorithms.base import list_algorithms

        return list_algorithms()
    if kind == "workload":
        from repro.core.workloads import list_workloads

        return list_workloads()
    if kind == "scale-factor":
        from repro.datasets.registry import list_scale_factors

        return list_scale_factors()
    assert kind == "dataset"
    from repro.datasets.registry import list_datasets

    return list_datasets()


def _known(kind: str):
    """An argparse ``type=`` validator whose error message comes from
    the registry discovery API (and points at ``graphbench list``)."""

    def parse(value: str) -> str:
        v = value.lower()
        names = [name for name, _ in _discover(kind)]
        if v not in names:
            raise argparse.ArgumentTypeError(
                f"unknown {kind} {value!r} — choose from "
                f"{', '.join(names)} (see `graphbench list`)"
            )
        return v

    parse.__name__ = kind
    return parse


def _workload_arg(value: str) -> str:
    """``--workloads`` validator: a workload name or the literal
    ``all``."""
    v = value.lower()
    if v == "all":
        return v
    names = [name for name, _ in _discover("workload")]
    if v not in names:
        raise argparse.ArgumentTypeError(
            f"unknown workload {value!r} — choose from all, "
            f"{', '.join(names)} (see `graphbench list workloads`)"
        )
    return v


def _scale_arg(value: str) -> str | float:
    """``--scale`` validator: a named scale factor or a float."""
    try:
        return float(value)
    except ValueError:
        pass
    v = value.lower()
    names = [name for name, _ in _discover("scale-factor")]
    if v not in names:
        raise argparse.ArgumentTypeError(
            f"unknown scale factor {value!r} — choose a number or one of "
            f"{', '.join(names)} (see `graphbench list scale-factors`)"
        )
    return v


def _scale_multiplier(value: str) -> float:
    """The global ``--scale``: :func:`_scale_arg`, resolved to the float
    multiplier every runner and cache keys on."""
    return resolve_scale(_scale_arg(value))


# -- the unified flag vocabulary ---------------------------------------------
#
# Every experiment-running subcommand shares two argparse parents, so
# help text, defaults and validators exist in exactly one place:
#
# * ``--workers``          worker *processes* for the sweep executor
# * ``--json PATH``        export the subcommand's primary payload
# * ``--events PATH``      stream harness observability to JSONL
# * ``--strict``           promote modeled failures to exit code 1
# * ``--seed``             base seed for derived per-cell streams
# * ``--workers-per-cell`` the *modeled* cluster size (paper: 20 DAS4
#   nodes); ``--cores`` the modeled cores per cluster worker
#
# ``--workers`` always means processes and ``--workers-per-cell``
# always means the simulated cluster — no subcommand may redefine
# either.

def _unified_parent() -> argparse.ArgumentParser:
    """The shared ``--workers/--json/--events/--strict/--seed`` flags."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument("--workers", type=int, default=1,
                        help="worker processes for the sweep executor "
                        "(default 1 = serial)")
    parent.add_argument("--json", metavar="PATH",
                        help="export the subcommand's primary payload "
                        "(report JSON / accounting or telemetry JSONL / "
                        "serve metrics snapshot)")
    parent.add_argument("--events", metavar="PATH",
                        help="stream harness observability events to a "
                        "JSONL file (render with `graphbench stats`)")
    parent.add_argument("--strict", action="store_true",
                        help="fail (exit 1) on modeled failures that are "
                        "otherwise reported as findings (crashed/DNF "
                        "cells; serve: any 5xx answered)")
    parent.add_argument("--seed", type=int, default=202,
                        help="base seed for derived per-cell streams")
    return parent


def _cluster_parent() -> argparse.ArgumentParser:
    """The shared modeled-cluster flags (``--workers-per-cell`` and
    ``--cores``)."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument("--workers-per-cell", type=int, default=20,
                        help="modeled cluster size per cell (paper "
                        "default: 20 DAS4 nodes)")
    parent.add_argument("--cores", type=int, default=1,
                        help="modeled cores per cluster worker")
    return parent


@contextlib.contextmanager
def _harness_events(path: str | None):
    """Record harness observability (events + metrics) to ``path`` for
    the enclosed block; a no-op when no ``--events`` was given."""
    if not path:
        yield None
        return
    from repro import obs

    session = obs.start(events_path=path)
    try:
        yield session
    finally:
        obs.stop()
        print()
        print(
            f"wrote {session.events.emitted} harness events to {path} "
            f"(render with `graphbench stats --events {path}`)"
        )


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.api import PredictRequest

    # a thin client of the public API facade: the spec comes from the
    # same PredictRequest the serve endpoints parse off the wire
    request = PredictRequest(
        platform=args.platform,
        algorithm=args.algorithm,
        dataset=args.dataset,
        scale=args.scale,
        num_workers=args.workers_per_cell,
        cores_per_worker=args.cores,
        repetitions=args.repetitions,
    )
    spec = request.to_run_spec()
    cluster = spec.cluster
    runner = Runner(scale=args.scale, repetitions=args.repetitions)
    record = runner.run(spec)
    print(
        f"{args.platform} / {args.algorithm} / {args.dataset} "
        f"({cluster.num_workers} workers x {cluster.cores_per_worker} cores)"
    )
    if not record.ok:
        print(f"  status: {record.status}")
        print(f"  reason: {record.failure_reason}")
        return 1
    assert record.result is not None
    m = job_metrics(record.result)
    print(f"  execution time : {format_seconds(m.execution_time)}")
    print(f"  computation    : {format_seconds(m.computation_time)}")
    print(f"  overhead       : {format_seconds(m.overhead_time)} "
          f"({m.overhead_fraction * 100:.0f}%)")
    print(f"  supersteps     : {m.supersteps}")
    print(f"  EPS / VPS      : {m.eps:.3g} / {m.vps:.3g}")
    print(f"  NEPS (nodes)   : {m.neps:.3g}")
    for phase, seconds in record.result.breakdown.items():
        print(f"    {phase:<14s} {format_seconds(seconds)}")
    return 0


def _cmd_figure(args: argparse.Namespace) -> int:
    suite = BenchmarkSuite(scale=args.scale)
    dispatch = {
        "1": suite.fig01_bfs,
        "2": suite.fig02_throughput,
        "3": suite.fig03_giraph_all,
        "4": suite.fig04_dotaleague,
        "5": suite.fig05_07_master_resources,
        "6": suite.fig05_07_master_resources,
        "7": suite.fig05_07_master_resources,
        "8": suite.fig08_10_worker_resources,
        "9": suite.fig08_10_worker_resources,
        "10": suite.fig08_10_worker_resources,
        "11": suite.fig11_12_horizontal,
        "12": suite.fig11_12_horizontal,
        "13": suite.fig13_14_vertical,
        "14": suite.fig13_14_vertical,
        "15": suite.fig15_breakdown,
        "16": suite.fig16_graphlab_breakdown,
    }
    fn = dispatch.get(args.number)
    if fn is None:
        print(f"unknown figure {args.number}; choose 1-16", file=sys.stderr)
        return 2
    _, text = fn()
    print(text)
    return 0


def _cmd_table(args: argparse.Namespace) -> int:
    suite = BenchmarkSuite(scale=args.scale)
    dispatch = {
        "1": suite.table1_metrics,
        "2": suite.table2_datasets,
        "3": suite.table3_algorithm_survey,
        "4": suite.table4_platforms,
        "5": suite.table5_bfs_statistics,
        "6": suite.table6_ingestion,
        "7": suite.table7_dev_effort,
        "8": suite.table8_related_work,
    }
    fn = dispatch.get(args.number)
    if fn is None:
        print(f"unknown table {args.number}; choose 1-8", file=sys.stderr)
        return 2
    _, text = fn()
    print(text)
    return 0


def _cmd_findings(args: argparse.Namespace) -> int:
    from repro.core.findings import render_findings, verify_findings
    from repro.core.runner import Runner

    findings = verify_findings(runner=Runner(scale=args.scale))
    print(render_findings(findings))
    return 0 if all(f.holds for f in findings) else 1


def _cmd_graph500(args: argparse.Namespace) -> int:
    from repro.core.graph500 import run_graph500

    res = run_graph500(
        scale=args.graph_scale,
        edge_factor=args.edge_factor,
        num_roots=args.roots,
    )
    print(f"Graph500 scale={res.scale} edgefactor={res.edge_factor}")
    print(f"  construction       : {res.construction_seconds:.2f}s")
    print(f"  roots              : {res.num_roots}")
    print(f"  harmonic mean TEPS : {res.harmonic_mean_teps:,.0f}")
    print(f"  validation         : {'passed' if res.all_valid else 'FAILED'}")
    return 0 if res.all_valid else 1


def _cmd_tuning(args: argparse.Namespace) -> int:
    from repro.core.tuning import TuningStudy

    _, text = TuningStudy(
        algorithm=args.algorithm, dataset=args.dataset
    ).run()
    print(text)
    return 0


def _render_span(span, tele, depth: int, lines: list[str]) -> None:
    pad = "  " * depth
    if span.is_cost:
        comp = span.attrs.get("component", "")
        tc = " Tc" if span.attrs.get("computation") else ""
        lines.append(
            f"{pad}- {span.name:<18s} {format_seconds(span.seconds):>10s}"
            f"  [{comp}]{tc}"
        )
        return
    lines.append(
        f"{pad}{span.kind} {span.name}  "
        f"[{span.t0:.2f}s .. {span.t1:.2f}s]  {format_seconds(span.seconds)}"
    )
    for child in tele.children(span.span_id):
        _render_span(child, tele, depth + 1, lines)


def _render_span_tree(tele, *, max_steps: int) -> str:
    """The provenance tree as text, collapsing long superstep runs."""
    lines: list[str] = []
    job = tele.span(0)
    lines.append(
        f"job {job.name}  [{job.t0:.2f}s .. {job.t1:.2f}s]  "
        f"{format_seconds(job.seconds)}"
    )
    for phase in tele.children(0):
        if phase.is_cost:
            _render_span(phase, tele, 1, lines)
            continue
        lines.append(
            f"  {phase.kind} {phase.name}  "
            f"[{phase.t0:.2f}s .. {phase.t1:.2f}s]  "
            f"{format_seconds(phase.seconds)}"
        )
        steps = tele.children(phase.span_id)
        shown = steps
        skipped = 0
        if len(steps) > max_steps:
            head = max(max_steps - 1, 1)
            shown = steps[:head] + steps[-1:]
            skipped = len(steps) - len(shown)
        for i, child in enumerate(shown):
            if skipped and i == len(shown) - 1:
                lines.append(f"    ... {skipped} more supersteps ...")
            _render_span(child, tele, 2, lines)
    return "\n".join(lines)


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.cluster.monitoring import worker_node
    from repro.core import telemetry
    from repro.core.export import export

    cluster = das4_cluster(args.workers_per_cell, args.cores)
    runner = Runner(scale=args.scale)
    with telemetry.enabled():
        record = runner.run(
            RunSpec(args.platform, args.algorithm, args.dataset, cluster)
        )
    if not record.ok:
        print(f"  status: {record.status}")
        print(f"  reason: {record.failure_reason}")
        return 1
    assert record.result is not None
    result = record.result
    tele = result.telemetry
    assert tele is not None

    print(_render_span_tree(tele, max_steps=args.max_steps))

    bd = result.cost_breakdown()
    assert bd is not None
    print()
    print(f"charged total    : {format_seconds(bd.total)}")
    print(f"computation (Tc) : {format_seconds(bd.computation)}")
    print(f"overhead (To)    : {format_seconds(bd.overhead)}")

    print()
    print(f"top {args.top} cost rules:")
    for rule, seconds in tele.top_rules(args.top):
        share = seconds / bd.total if bd.total else 0.0
        print(f"  {rule:<20s} {format_seconds(seconds):>10s}  "
              f"{share * 100:5.1f}%")

    counters = dict(tele.counters)
    counters.update(
        (k, v)
        for k, v in runner.cache_stats().items()
        if isinstance(v, (int, float))
    )
    print()
    print("counters:")
    for name, value in sorted(counters.items()):
        print(f"  {name:<24s} {value:g}")

    node = worker_node(0)
    peak = result.trace.peak_attribution(node, "net_in")
    if peak["contributors"]:
        print()
        print(f"peak worker net_in: {peak['value'] * 8 / 1e6:.1f} Mbit/s "
              f"at t={peak['time']:.2f}s, charged by:")
        for value, t0, t1, span_id in peak["contributors"][:3]:
            rule = (
                tele.span(span_id).name if span_id is not None else "untracked"
            )
            print(f"  {rule:<20s} {value * 8 / 1e6:8.1f} Mbit/s  "
                  f"[{t0:.2f}s .. {t1:.2f}s]")

    if args.json:
        n = export(
            tele, path=args.json,
            extra_counters=runner.cache_stats(),
        )
        print()
        print(f"wrote {n} JSONL records to {args.json}")
    return 0


def _cmd_chaos_sweep(args: argparse.Namespace) -> int:
    if args.selftest:
        return _chaos_selftest()
    with _harness_events(args.events):
        return _chaos_sweep_impl(args)


def _chaos_selftest() -> int:
    """Run the known-truth recovery-semantics net and render it."""
    from repro.des.known_truth import REL_TOL, verify_recovery_semantics

    checks = verify_recovery_semantics()
    rows = []
    for c in checks:
        rows.append([
            c.scenario,
            c.platform,
            c.quantity,
            f"{c.expected:.6f}",
            f"{c.actual:.6f}",
            f"{c.rel_error:.2e}",
            "ok" if c.ok else "FAIL",
        ])
    print(render_table(
        ["scenario", "platform", "quantity", "expected", "actual",
         "rel error", "verdict"],
        rows,
        title="known-truth recovery semantics "
        f"(analytic vs model, tol {REL_TOL:g})",
    ))
    failed = [c for c in checks if not c.ok]
    print()
    print(f"{len(checks) - len(failed)}/{len(checks)} checks passed")
    return 1 if failed else 0


def _chaos_sweep_impl(args: argparse.Namespace) -> int:
    from repro.core.chaos import resolve_templates, run_chaos_sweep
    from repro.core.export import export

    try:
        templates = resolve_templates(
            args.plans,
            at=args.at,
            duration=args.duration,
            severity=args.severity,
            seed=args.seed,
            num_faults=args.num_faults,
        )
    except KeyError as exc:
        print(f"chaos-sweep: {exc.args[0]}", file=sys.stderr)
        return 2
    runner = Runner(scale=args.scale)
    report = run_chaos_sweep(
        runner,
        templates=templates,
        platforms=tuple(args.platforms or PLATFORM_NAMES),
        algorithms=tuple(args.algorithms),
        datasets=tuple(args.datasets),
        cluster=das4_cluster(args.workers_per_cell, args.cores),
        workers=args.workers,
        name=args.name,
    )
    print(report.render())
    if args.json:
        export(report, kind="chaos", path=args.json)
        print()
        print(f"wrote chaos-sweep report to {args.json}")
    # Crashed faulted cells are the recovery models' *intended*
    # behavior (budget exhaustion, checkpointing off), so they only
    # fail the run under --strict.
    return 1 if args.strict and report.failures() else 0


def _cmd_benchmark(args: argparse.Namespace) -> int:
    with _harness_events(args.events):
        return _benchmark_impl(args)


def _benchmark_impl(args: argparse.Namespace) -> int:
    from repro.core.benchmark import run_benchmark
    from repro.core.export import export

    report = run_benchmark(
        workloads=tuple(args.workloads),
        platforms=tuple(args.platforms) if args.platforms else None,
        datasets=tuple(args.datasets) if args.datasets else None,
        scale=args.scale,
        workers=args.workers,
        seed=args.seed,
        name=args.name,
    )
    print(report.render())
    if args.json:
        export(report, kind="benchmark", path=args.json)
        print()
        print(f"wrote benchmark report to {args.json}")
    # Crashed/DNF cells are the platform models' *intended* capacity
    # failures (a paper finding), so they only fail the run under
    # --strict; a wrong output always does.
    if not report.all_validated:
        return 1
    return 1 if args.strict and report.failures() else 0


def _cmd_list(args: argparse.Namespace) -> int:
    singular = {
        "platforms": "platform",
        "algorithms": "algorithm",
        "datasets": "dataset",
        "workloads": "workload",
        "scale-factors": "scale-factor",
    }
    kinds = (
        tuple(singular.values())
        if args.kind == "all"
        else (singular[args.kind],)
    )
    chunks = []
    for kind in kinds:
        rows = [[name, description] for name, description in _discover(kind)]
        chunks.append(
            render_table([kind, "description"], rows, title=f"{kind}s")
        )
    print("\n\n".join(chunks))
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    with _harness_events(args.events):
        return _sweep_impl(args)


def _sweep_impl(args: argparse.Namespace) -> int:
    if args.mode in ("horizontal", "vertical"):
        if args.dataset is None:
            print("sweep: --dataset is required for scalability modes",
                  file=sys.stderr)
            return 2
        suite = BenchmarkSuite(scale=args.scale)
        if args.mode == "horizontal":
            _, text = suite.fig11_12_horizontal([args.dataset])
        else:
            _, text = suite.fig13_14_vertical([args.dataset])
        print(text)
        return 0

    # -- grid mode: a SweepSpec dispatched to worker processes ---------------
    from repro.core import telemetry
    from repro.core.export import export
    from repro.core.report import render_cache_stats

    datasets = args.datasets or ([args.dataset] if args.dataset else None)
    if not datasets:
        print("sweep: grid mode needs --datasets (or --dataset)",
              file=sys.stderr)
        return 2
    sweep = SweepSpec.make(
        args.name,
        platforms=tuple(args.platforms or PLATFORM_NAMES),
        algorithms=tuple(args.algorithms),
        datasets=tuple(datasets),
        cluster=das4_cluster(args.workers_per_cell, args.cores),
        workers=args.workers,
    )
    runner = Runner(
        scale=args.scale, repetitions=args.repetitions, jitter=args.jitter,
        seed=args.seed,
    )
    with telemetry.enabled(bool(args.json)):
        exp = runner.run_grid(sweep)

    rows = []
    for algo in sweep.algorithms:
        for ds in sweep.datasets:
            row: list[object] = [f"{algo}/{ds}"]
            for plat in sweep.platforms:
                rec = exp.get(plat, algo, ds)
                row.append(rec.describe() if rec else "-")
            rows.append(row)
    print(render_table(
        ["cell"] + list(sweep.platforms),
        rows,
        title=f"sweep '{sweep.name}': {len(exp)} cells, "
        f"{sweep.workers} worker process(es)",
    ))
    print()
    print(render_cache_stats(runner.cache_stats()))

    if args.json:
        n = export(
            exp, kind="sweep-telemetry", path=args.json,
            extra_counters=runner.cache_stats(),
        )
        print()
        print(f"wrote {n} JSONL records to {args.json}")
    # Crashed/DNF cells are capacity findings; they fail the sweep
    # only under --strict (same policy as benchmark/chaos-sweep).
    return 1 if args.strict and any(not r.ok for r in exp) else 0


def _cmd_stats(args: argparse.Namespace) -> int:
    from repro.obs.render import load_events_jsonl, render_stats_from_file

    if args.events is None and not args.demo:
        print(
            "stats: pass --events PATH (written by `sweep`/`benchmark`/"
            "`chaos-sweep --events PATH`) or --demo for a live sample",
            file=sys.stderr,
        )
        return 2
    if args.demo:
        from repro import obs
        from repro.obs.render import render_session

        with obs.observed(events_path=args.events) as session:
            sweep = SweepSpec.make(
                "stats-demo",
                platforms=("giraph", "graphlab"),
                algorithms=("bfs", "conn"),
                datasets=("amazon",),
            )
            Runner(scale=args.scale).run_grid(sweep, workers=args.workers)
            if args.prometheus:
                print(session.metrics.to_prometheus(), end="")
            else:
                print(render_session(session))
        return 0
    if args.prometheus:
        metrics, _counts, _lines = load_events_jsonl(args.events)
        print(metrics.to_prometheus(), end="")
        return 0
    print(render_stats_from_file(args.events))
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio
    import json as _json

    from repro.core.trace_cache import TraceCache
    from repro.serve.app import GraphbenchServer

    trace_cache = (
        TraceCache(spill_dir=args.spill_dir) if args.spill_dir
        else TraceCache()
    )
    runner = Runner(scale=args.scale, seed=args.seed,
                    trace_cache=trace_cache)
    server = GraphbenchServer(
        runner=runner,
        host=args.host,
        port=args.port,
        workers=args.workers,
        max_pending=args.max_pending,
        deadline_seconds=args.deadline,
        events_path=args.events,
    )

    async def _serve() -> None:
        await server.start()
        print(f"graphbench serve listening on "
              f"http://{server.host}:{server.port}")
        print("routes: POST /v1/predict, POST /v1/sweep, "
              "GET /v1/jobs/{id}, GET /healthz, GET /metrics")
        try:
            if args.duration is not None:
                await asyncio.wait_for(
                    server.serve_forever(), timeout=args.duration
                )
            else:
                await server.serve_forever()
        except (asyncio.TimeoutError, asyncio.CancelledError):
            pass
        finally:
            await server.aclose()

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        pass
    print(f"served {server.requests_served} requests "
          f"({server.errors_total} errors)")
    if args.json:
        with open(args.json, "w") as fh:
            _json.dump(server._health_payload(), fh, indent=2)
            fh.write("\n")
        print(f"wrote serve stats snapshot to {args.json}")
    return 1 if args.strict and server.errors_total else 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser."""
    p = argparse.ArgumentParser(
        prog="graphbench",
        description="Graph-processing platform benchmarking suite "
        "(Guo et al., IPDPS'14 reproduction)",
    )
    p.add_argument("--scale", type=_scale_multiplier, default=1.0,
                   metavar="SCALE",
                   help="dataset scale factor: a named factor "
                   "(tiny/xs/s/m/l/xl) or a number (default 1.0 = mini "
                   "scale)")
    sub = p.add_subparsers(dest="command", required=True)

    # the shared flag vocabulary (defined once, see module comment)
    unified = _unified_parent()
    cluster = _cluster_parent()

    run = sub.add_parser("run", parents=[cluster],
                         help="run one experiment cell")
    run.add_argument("--platform", required=True, type=_known("platform"),
                     metavar="PLATFORM")
    run.add_argument("--algorithm", required=True, type=_known("algorithm"),
                     metavar="ALGORITHM")
    run.add_argument("--dataset", required=True, type=_known("dataset"),
                     metavar="DATASET")
    run.add_argument("--repetitions", type=int, default=1)
    run.set_defaults(func=_cmd_run)

    tr = sub.add_parser(
        "trace",
        parents=[cluster],
        help="run one cell with cost-provenance telemetry and show "
        "the span tree",
    )
    tr.add_argument("--platform", required=True, type=_known("platform"),
                    metavar="PLATFORM")
    tr.add_argument("--algorithm", required=True, type=_known("algorithm"),
                    metavar="ALGORITHM")
    tr.add_argument("--dataset", required=True, type=_known("dataset"),
                    metavar="DATASET")
    tr.add_argument("--top", type=int, default=8,
                    help="number of cost rules to list")
    tr.add_argument("--max-steps", type=int, default=6,
                    help="supersteps to show per phase before collapsing")
    tr.add_argument("--json", metavar="PATH",
                    help="also export the session as JSON Lines")
    tr.set_defaults(func=_cmd_trace)

    fig = sub.add_parser("figure", help="regenerate a paper figure")
    fig.add_argument("number", help="figure number, 1-16")
    fig.set_defaults(func=_cmd_figure)

    tab = sub.add_parser("table", help="regenerate a paper table")
    tab.add_argument("number", help="table number, 1-8")
    tab.set_defaults(func=_cmd_table)

    from repro.des.faults import NAMED_PLANS

    cs = sub.add_parser(
        "chaos-sweep",
        parents=[unified, cluster],
        help="cross fault-plan templates with the experiment grid and "
        "report the availability / recovery-cost frontier",
    )
    cs.add_argument("--plans", nargs="+", default=["all"],
                    metavar="PLAN",
                    help="plan templates: 'all' (one per fault class), "
                    "'seeded', or any of "
                    + ", ".join(NAMED_PLANS)
                    + " (default: all)")
    cs.add_argument("--platforms", nargs="+", type=_known("platform"),
                    metavar="PLATFORM",
                    help="platforms (default: the six paper platforms)")
    cs.add_argument("--algorithms", nargs="+", type=_known("algorithm"),
                    metavar="ALGORITHM", default=["bfs"],
                    help="algorithms (default: bfs)")
    cs.add_argument("--datasets", nargs="+", type=_known("dataset"),
                    metavar="DATASET", default=["amazon"],
                    help="datasets (default: amazon)")
    cs.add_argument("--at", type=float, default=0.5,
                    help="fault time as a fraction of each cell's "
                    "baseline makespan (named --plans)")
    cs.add_argument("--duration", type=float, default=0.2,
                    help="fault window as a fraction of each cell's "
                    "baseline makespan (windowed --plans)")
    cs.add_argument("--severity", type=float, default=None,
                    help="slowdown factor / remaining-memory fraction "
                    "(plan-specific default)")
    cs.add_argument("--num-faults", type=int, default=3,
                    help="fault count for --plans seeded")
    cs.add_argument("--name", default="chaos-sweep",
                    help="report name for rendering and export")
    cs.add_argument("--selftest", action="store_true",
                    help="run the known-truth recovery-semantics net "
                    "instead of a sweep")
    cs.set_defaults(func=_cmd_chaos_sweep)

    li = sub.add_parser(
        "list",
        help="discover registered platforms, algorithms, datasets, "
        "workloads and scale factors",
    )
    li.add_argument("kind", nargs="?", default="all",
                    choices=("all", "platforms", "algorithms", "datasets",
                             "workloads", "scale-factors"))
    li.set_defaults(func=_cmd_list)

    be = sub.add_parser(
        "benchmark",
        parents=[unified],
        help="run validated workloads over platforms x datasets and "
        "render a benchmark report",
    )
    be.add_argument("--workloads", nargs="+", type=_workload_arg,
                    metavar="WORKLOAD", default=["all"],
                    help="workloads to run ('all' = every registered "
                    "workload)")
    be.add_argument("--platforms", nargs="+", type=_known("platform"),
                    metavar="PLATFORM",
                    help="platforms (default: the six paper platforms)")
    be.add_argument("--datasets", nargs="+", type=_known("dataset"),
                    metavar="DATASET",
                    help="datasets (default: all seven)")
    be.add_argument("--scale", type=_scale_arg, default="tiny",
                    metavar="SCALE",
                    help="named scale factor (tiny/xs/s/m/l/xl) or a "
                    "numeric multiplier (default: tiny)")
    be.add_argument("--name", default="graphbench",
                    help="report name for rendering and export")
    be.set_defaults(func=_cmd_benchmark)

    sw = sub.add_parser(
        "sweep",
        parents=[unified, cluster],
        help="scalability sweep, or a (possibly parallel) grid sweep",
    )
    sw.add_argument("--mode", choices=("horizontal", "vertical", "grid"),
                    default="horizontal")
    sw.add_argument("--dataset", type=_known("dataset"), metavar="DATASET",
                    help="dataset for horizontal/vertical modes "
                    "(grid shorthand for a one-dataset --datasets)")
    sw.add_argument("--name", default="sweep",
                    help="sweep name for reports and exports (grid mode)")
    sw.add_argument("--platforms", nargs="+", type=_known("platform"),
                    metavar="PLATFORM",
                    help="grid platforms (default: all)")
    sw.add_argument("--algorithms", nargs="+", type=_known("algorithm"),
                    metavar="ALGORITHM", default=["bfs"],
                    help="grid algorithms (default: bfs)")
    sw.add_argument("--datasets", nargs="+", type=_known("dataset"),
                    metavar="DATASET", help="grid datasets")
    sw.add_argument("--repetitions", type=int, default=1)
    sw.add_argument("--jitter", type=float, default=0.0,
                    help="repetition jitter fraction (grid mode)")
    sw.set_defaults(func=_cmd_sweep)

    sv = sub.add_parser(
        "serve",
        parents=[unified],
        help="long-running what-if prediction service (POST "
        "/v1/predict, POST /v1/sweep, GET /v1/jobs/{id}, /healthz, "
        "/metrics); misses are computed in --workers persistent "
        "worker processes",
    )
    sv.add_argument("--host", default="127.0.0.1",
                    help="bind address (default 127.0.0.1)")
    sv.add_argument("--port", type=int, default=8040,
                    help="bind port; 0 picks a free one (default 8040)")
    sv.add_argument("--max-pending", type=int, default=64,
                    help="admission bound: requests beyond it are "
                    "refused with 429 + Retry-After (default 64)")
    sv.add_argument("--deadline", type=float, default=30.0,
                    help="per-request deadline in seconds; expiry "
                    "answers 504 while the computation still warms "
                    "the cache (default 30)")
    sv.add_argument("--spill-dir", metavar="DIR",
                    help="TraceCache spill directory, shared with "
                    "sweep worker processes")
    sv.add_argument("--duration", type=float, default=None, metavar="SECONDS",
                    help="serve for a fixed time then exit cleanly "
                    "(smoke tests; default: run until interrupted)")
    sv.set_defaults(func=_cmd_serve)

    st = sub.add_parser(
        "stats",
        help="render harness observability: histogram quantiles, "
        "worker utilization, cache hit rates, event counts",
    )
    st.add_argument("--events", metavar="PATH",
                    help="events JSONL file written by `sweep`/"
                    "`benchmark`/`chaos-sweep --events`")
    st.add_argument("--demo", action="store_true",
                    help="run a small observed sweep live instead of "
                    "reading a file (combine with --events to keep the "
                    "JSONL)")
    st.add_argument("--workers", type=int, default=1,
                    help="worker processes for --demo (default 1)")
    st.add_argument("--prometheus", action="store_true",
                    help="print the Prometheus text exposition instead "
                    "of tables")
    st.set_defaults(func=_cmd_stats)

    fi = sub.add_parser(
        "findings", help="verify the paper's key findings end to end"
    )
    fi.set_defaults(func=_cmd_findings)

    g5 = sub.add_parser("graph500", help="run a Graph500-style BFS benchmark")
    g5.add_argument("--graph-scale", type=int, default=12,
                    help="log2 of the vertex count")
    g5.add_argument("--edge-factor", type=int, default=16)
    g5.add_argument("--roots", type=int, default=16)
    g5.set_defaults(func=_cmd_graph500)

    tu = sub.add_parser(
        "tuning", help="SPEC-style baseline vs peak (tuned) comparison"
    )
    tu.add_argument("--algorithm", default="bfs", type=_known("algorithm"),
                    metavar="ALGORITHM")
    tu.add_argument("--dataset", default="dotaleague",
                    type=_known("dataset"), metavar="DATASET")
    tu.set_defaults(func=_cmd_tuning)
    return p


def main(argv: list[str] | None = None) -> int:
    """CLI entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
