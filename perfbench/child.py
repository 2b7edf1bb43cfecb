"""One run of one workload, in a fresh process started by ``run.py``.

    python3 perfbench/child.py --workload NAME --seed N --seconds T \
        --trace 0|1 --t0 MONOTONIC --out RESULT.json [--setup-only]

``--t0`` is the parent's ``time.monotonic()`` just before it started
this process, so ``setup_s`` runs from process start (interpreter,
imports, datasets from the benchmark's cache directory, traces for the
warm workloads, server start and warm-up) to the first measured
operation.  The result goes to ``--out`` as JSON.

``--calibrate`` prints the record digests and CRASHED/DNF counts that
``expected.json`` stores (run it once after a change to the program's
simulated results).
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import resource
import time

HERE = pathlib.Path(__file__).resolve().parent

WORKLOADS = (
    "cold-benchmark", "scaling-sweep", "serve-whatif", "parallel-benchmark",
)
#: serve-whatif request rate on a 2-core x86 VM; it sets the number of
#: passes (``whatif.PASS_REQUESTS`` each) from --seconds
NOMINAL_RPS = 250


def percentile(values, q: float) -> float:
    """Linear-interpolated ``q``-th percentile (0-100)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("no samples")
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def peak_rss_mb(children: bool = False) -> float:
    """Peak RSS of this process (or of its largest finished child)."""
    usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if children:
        usage = max(
            usage, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        )
    return usage / 1024.0  # ru_maxrss is KiB on Linux


def environment() -> dict:
    import numpy

    from repro.kernels import active_backend

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "kernel_backend": active_backend(),
    }


def make_workload(name: str, seed: int, state_dir: pathlib.Path):
    expected = json.loads((HERE / "expected.json").read_text())
    if name == "serve-whatif":
        from whatif import ServeWhatIf

        return ServeWhatIf(seed)
    from sweeps import ScalingSweep, ValidatedGrid

    if name == "scaling-sweep":
        return ScalingSweep(seed, expected)
    workers = 2 if name == "parallel-benchmark" else 1
    return ValidatedGrid(seed, state_dir, workers, expected)


# -- sweeps ----------------------------------------------------------------
# A shared machine's speed swings by half for tens of seconds at a time;
# such noise only ever adds time.  So a run measures several equal
# chunks of work and reports the best chunk's figures.


def measure_sweep(wl, seconds: float) -> dict:
    """Enough whole grids to fill ``seconds`` at nominal speed (at least
    three); the best grid's throughput and per-cell latencies."""
    grids = max(3, round(seconds / wl.nominal_s))
    iterations = [wl.iteration() for _ in range(grids)]
    problems = sorted({p for it in iterations for p in it.problems})
    return {
        "attempted": sum(it.cells for it in iterations),
        "failed": sum(it.failed for it in iterations),
        "problems": problems,
        "metrics": {
            "cells_per_s": max(it.cells / it.wall_s for it in iterations),
            "latency_p50_ms": min(
                percentile(it.cell_walls, 50) for it in iterations
            ) * 1e3,
            "latency_p99_ms": min(
                percentile(it.cell_walls, 99) for it in iterations
            ) * 1e3,
        },
        "info": {
            "grids": grids,
            "grid_walls_s": [round(it.wall_s, 3) for it in iterations],
            "cells_per_grid": iterations[0].cells,
            "latency_samples_per_grid": len(iterations[0].cell_walls),
            "digest": iterations[0].counters.get("digest"),
        },
    }


def trace_sweep(wl, tracer) -> dict:
    """A warm-up grid, an untraced grid, then one traced grid.

    The warm-up pays first-call costs that would otherwise bias the
    overhead estimate (traced wall minus untraced wall).
    """
    setup_self = dict(tracer.self_s)
    setup_calls = dict(tracer.calls)
    tracer.enabled = False
    wl.iteration()
    untraced = wl.iteration()
    tracer.reset()
    tracer.enabled = True
    traced = wl.iteration()
    tracer.enabled = False
    s, c, n = tracer.self_s, tracer.calls, tracer.counters
    k = traced.counters
    metrics = {
        "datasets.load_s": setup_self.get("datasets.load", 0.0)
        + s.get("datasets.load", 0.0),
        "datasets.loads": setup_calls.get("datasets.load", 0)
        + c.get("datasets.load", 0),
        "trace.record_s": s.get("trace.record", 0.0),
        # the cache's own counters: sweep workers merge theirs back
        "trace.records": k["trace_misses"],
        "trace.hits": k["trace_hits"],
        "trace.bytes": n.get("trace.bytes", 0),
        "validate.reference_s": s.get("validate.reference", 0.0),
        "validate.check_s": s.get("validate.check", 0.0),
        "validate.cells": c.get("validate.check", 0),
        "partition.build_s": s.get("partition.build", 0.0),
        "partition.builds": c.get("partition.build", 0),
        "context.build_s": s.get("context.build", 0.0),
        "context.builds": c.get("context.build", 0),
        "context.hits": c.get("context.hit", 0),
        "step_costs.s": s.get("step_costs", 0.0),
        "step_costs.calls": c.get("step_costs", 0),
        "step_costs.memo_hit_rate": (
            n.get("step_costs.memo_hits", 0) / c["step_costs"]
            if c.get("step_costs") else 0.0
        ),
        "graph.text_size_s": s.get("graph.text_size", 0.0),
        "graph.text_size_calls": c.get("graph.text_size", 0),
        "des.run_s": s.get("des.run", 0.0),
        "des.runs": c.get("des.run", 0),
        "charge.self_s": s.get("charge", 0.0),
        "charge.calls": c.get("charge", 0),
        "runner.self_s": s.get("runner", 0.0),
        "runner.cells": c.get("runner", 0),
        "sweep.pool_s": s.get("sweep.pool", 0.0),
        "sweep.pools": c.get("sweep.pool", 0),
        "sweep.disk_stores": k.get("disk_stores", 0),
        "sweep.disk_hits": k.get("disk_hits", 0),
        "sweep.extra_records": (
            k["trace_misses"] - k["serial_records"]
            if "serial_records" in k else 0
        ),
        "unattributed_s": traced.wall_s - tracer.self_total(),
        "traced_wall_s": traced.wall_s,
        "untraced_wall_s": untraced.wall_s,
        "trace_overhead_s": traced.wall_s - untraced.wall_s,
    }
    from tracer import KERNELS

    for kernel in KERNELS:
        metrics[f"kernels.{kernel}.s"] = s.get(f"kernels.{kernel}", 0.0)
        metrics[f"kernels.{kernel}.calls"] = c.get(f"kernels.{kernel}", 0)
    problems = sorted(set(untraced.problems) | set(traced.problems))
    return {
        "attempted": untraced.cells + traced.cells,
        "failed": untraced.failed + traced.failed,
        "problems": problems,
        "metrics": metrics,
        "info": {"digest": traced.counters.get("digest")},
    }


# -- serve -----------------------------------------------------------------
def _serve_problems(wl, *outcomes) -> tuple[int, list[str]]:
    from whatif import HOT_CELLS, identity_problems

    expected = json.loads((HERE / "expected.json").read_text())
    problems = []
    bad_status = sum(
        1 for outcome in outcomes for s in outcome.statuses if s != 200
    )
    if bad_status:
        problems.append(f"{bad_status} requests did not answer 200")
    samples = [s for outcome in outcomes for s in outcome.samples]
    samples += list(zip(HOT_CELLS, wl.hot_envelopes))[:2]
    mismatched = identity_problems(samples)
    problems += mismatched
    non_ok = sum(
        1 for env in wl.hot_envelopes if env["result"]["status"] != "ok"
    )
    if non_ok != expected["serve_hot_non_ok"]:
        problems.append(
            f"{non_ok} hot cells CRASHED/DNF, expected "
            f"{expected['serve_hot_non_ok']}"
        )
    return bad_status + len(mismatched), problems


def measure_serve(wl, seconds: float) -> dict:
    """Enough passes to fill ``seconds`` at nominal speed (at least
    three); the best pass's throughput and latencies."""
    from whatif import PASS_REQUESTS

    passes = max(3, round(seconds * NOMINAL_RPS / PASS_REQUESTS))
    chunks = [wl.run(requests=PASS_REQUESTS) for _ in range(passes)]
    rss = wl.peak_rss_mb()
    failed, problems = _serve_problems(wl, *chunks)

    def best(q: float) -> float:
        return min(percentile(c.latency_s, q) for c in chunks) * 1e3

    return {
        "attempted": sum(len(c.statuses) for c in chunks),
        "failed": failed,
        "problems": problems,
        "metrics": {
            "cells_per_s": max(c.ok / c.wall_s for c in chunks),
            "latency_p50_ms": best(50),
            "latency_p99_ms": best(99),
            "peak_rss_mb": rss,
        },
        "info": {
            "passes": passes,
            "chunk_walls_s": [round(c.wall_s, 3) for c in chunks],
            "hits": sum(sum(c.cached) for c in chunks),
            "fresh": sum(sum(c.fresh) for c in chunks),
            **_serve_latency_split(chunks[-1]),
        },
    }


def _serve_latency_split(outcome) -> dict:
    hits = [x * 1e3 for x, c in zip(outcome.latency_s, outcome.cached) if c]
    misses = [
        x * 1e3 for x, c, f in zip(
            outcome.latency_s, outcome.cached, outcome.fresh
        ) if f and not c
    ]
    return {
        "serve.hit_p50_ms": percentile(hits, 50),
        "serve.hit_p99_ms": percentile(hits, 99),
        "serve.miss_p50_ms": percentile(misses, 50),
    }


def trace_serve(wl) -> dict:
    """One pass bracketed by ``/metrics`` scrapes; the deltas are the
    per-layer numbers an operator sees.

    The scrapes are all the tracing this workload adds, and they do not
    overlap a request, so the overhead is their own wall time.  One
    client sends the pass: with two, a fresh cell can land in another's
    micro-batch window, and the batch count would not repeat exactly.
    """
    from whatif import PASS_REQUESTS

    t0 = time.perf_counter()
    before = wl.scrape()
    scrape_s = time.perf_counter() - t0
    traced = wl.run(requests=PASS_REQUESTS, clients=1)
    t0 = time.perf_counter()
    after = wl.scrape()
    scrape_s += time.perf_counter() - t0

    def delta(name: str) -> float:
        key = f"graphbench_{name}"
        return after.get(key, 0.0) - before.get(key, 0.0)

    http_s = delta("serve_request_latency_seconds_sum")
    client_s = sum(traced.latency_s)
    batch_count = delta("serve_batch_size_count")
    metrics = {
        "serve.http_s": http_s,
        "serve.client_gap_s": client_s - http_s,
        "serve.batches": delta("serve_batches_total"),
        "serve.batch_size_mean": (
            delta("serve_batch_size_sum") / batch_count if batch_count else 0.0
        ),
        "serve.batch_wall_s": delta("serve_batch_wall_seconds_sum"),
        "serve.coalesced": delta("serve_coalesced_total"),
        "answer_cache.hits": delta("serve_answer_cache_hits_total"),
        "answer_cache.misses": delta("serve_answer_cache_misses_total"),
        "admission.admitted": delta("serve_admitted_total"),
        "admission.rejected": delta("serve_rejected_total"),
        "admission.timeouts": delta("serve_deadline_timeouts_total"),
        "serve.runner_cell_s": delta("runner_cell_wall_seconds_sum"),
        **_serve_latency_split(traced),
        # client time spent outside any request
        "unattributed_s": traced.wall_s - client_s,
        "traced_wall_s": traced.wall_s + scrape_s,
        "untraced_wall_s": traced.wall_s,
        "trace_overhead_s": scrape_s,
    }
    failed, problems = _serve_problems(wl, traced)
    return {
        "attempted": len(traced.statuses),
        "failed": failed,
        "problems": problems,
        "metrics": metrics,
        "info": {},
    }


# -- calibration -----------------------------------------------------------
def calibrate(state_dir: pathlib.Path) -> dict:
    """The values ``expected.json`` stores, from one serial pass each."""
    from sweeps import ScalingSweep, ValidatedGrid
    from whatif import HOT_CELLS

    from repro.api import PredictRequest
    from repro.core.runner import Runner

    unchecked = {
        "grid_non_ok": None, "grid_digest": None,
        "scaling_non_ok": None, "scaling_digest": None, "scaling_cells": 0,
    }
    grid = ValidatedGrid(0, state_dir, 1, unchecked)
    grid.setup()
    g = grid.iteration()
    scaling = ScalingSweep(0, unchecked)
    scaling.setup()
    s = scaling.iteration()
    runner = Runner()
    hot_non_ok = sum(
        1 for cell in HOT_CELLS
        if not runner.run(PredictRequest(**cell).to_run_spec()).ok
    )
    return {
        "grid_non_ok": g.counters["non_ok"],
        "grid_digest": g.counters["digest"],
        "scaling_cells": s.cells,
        "scaling_non_ok": s.counters["non_ok"],
        "scaling_digest": s.counters["digest"],
        "serve_hot_non_ok": hot_non_ok,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, default=None)
    parser.add_argument("--out")
    parser.add_argument("--state", default=".perfbench_state")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--calibrate", action="store_true")
    args = parser.parse_args(argv)
    t0 = time.monotonic() if args.t0 is None else args.t0
    state_dir = pathlib.Path(args.state).resolve()

    if args.calibrate:
        print(json.dumps(calibrate(state_dir), indent=2))
        return 0

    tracer = None
    if args.trace and args.workload != "serve-whatif":
        from tracer import Tracer, install

        tracer = Tracer()
        install(tracer)
        tracer.enabled = True
    wl = make_workload(args.workload, args.seed, state_dir)
    try:
        wl.setup()
        setup_s = time.monotonic() - t0
        if args.setup_only:
            result = {"setup_s": setup_s}
        elif args.workload == "serve-whatif":
            result = (
                trace_serve(wl) if args.trace
                else measure_serve(wl, args.seconds)
            )
        elif tracer:
            result = trace_sweep(wl, tracer)
        else:
            result = measure_sweep(wl, args.seconds)
            result["metrics"]["peak_rss_mb"] = peak_rss_mb(
                children=args.workload == "parallel-benchmark"
            )
    finally:
        if args.workload == "serve-whatif":
            wl.close()
    if not args.setup_only:
        result["setup_s"] = setup_s
        result["env"] = environment()
        if tracer is not None:
            tracer.dump(str(
                state_dir / "spans" / f"{args.workload}-{args.seed}.npz"
            ))
    pathlib.Path(args.out).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
