#!/usr/bin/env python3
"""Record a harness performance snapshot into ``BENCH_harness.json``.

Runs the harness micro-benchmarks — the cold-vs-warm trace-cache
sweep, the sparse-vs-dense report sweep, the serial-vs-parallel
grid sweep, the per-kernel superstep micro walls,
validated benchmark-mode smokes at the two smallest scale factors,
the harness-observability off-vs-on sweep (overhead, worker
utilization, per-cell wall quantiles), and the serving-layer
open-loop load profile (latency quantiles, cache hit rate,
coalescing ratio, served-vs-direct byte identity) — and writes their wall times,
trace-memory numbers, and validation summary as one JSON document.  CI uploads the file as a
build artifact and ``scripts/perf_gate.py`` compares it against the
committed reference, so every PR leaves a gated perf data point; the
committed copy at the repo root is the reference snapshot for the
machine that produced it (its ``cores`` field says which budgets are
comparable).

Run:  python scripts/bench_snapshot.py [output_path]
"""

from __future__ import annotations

import json
import pathlib
import platform as _platform
import sys


def _ensure_benchmarks_importable() -> None:
    repo_root = pathlib.Path(__file__).resolve().parent.parent
    if str(repo_root) not in sys.path:
        sys.path.insert(0, str(repo_root))


def _available_cores() -> int:
    import os

    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        return os.cpu_count() or 1


def measure_benchmark_mode(scale: str = "tiny") -> dict:
    """A validated benchmark-mode smoke: a representative workload
    subset at the given scale factor, timed, with the validation
    summary and cache counters kept as the regression surface."""
    import time

    from repro.core.benchmark import run_benchmark

    start = time.perf_counter()
    report = run_benchmark(
        workloads=("bfs", "wcc", "pr"),
        platforms=("giraph", "graphlab", "hadoop"),
        datasets=("kgs", "amazon"),
        scale=scale,
        name="snapshot",
    )
    wall = time.perf_counter() - start
    return {
        "scale": {
            "name": report.scale_name,
            "multiplier": report.scale,
            "content_hash": report.scale_hash,
        },
        "wall_seconds": round(wall, 3),
        "summary": report.summary(),
        "cache_stats": {
            k: v for k, v in report.cache_stats.items()
            if isinstance(v, (int, float))
        },
    }


def collect_snapshot() -> dict:
    """Run every bench and return the combined snapshot document."""
    _ensure_benchmarks_importable()
    from benchmarks.bench_kernels import measure_kernels, render_kernels
    from benchmarks.bench_obs_overhead import measure_harness_observability
    from benchmarks.bench_sparse_reports import (
        measure_sparse_vs_dense,
        render_sparse_vs_dense,
    )
    from benchmarks.bench_parallel_sweep import measure_parallel_sweep
    from benchmarks.bench_serve_load import measure_serve_load
    from benchmarks.bench_trace_cache import measure_cold_vs_warm

    trace_data, trace_text = measure_cold_vs_warm()
    sparse_data = measure_sparse_vs_dense()
    parallel_data, parallel_text = measure_parallel_sweep()
    kernels_data = measure_kernels()
    obs_data, obs_text = measure_harness_observability()
    benchmark_data = measure_benchmark_mode("tiny")
    benchmark_xs_data = measure_benchmark_mode("xs")
    serve_data, serve_text = measure_serve_load()
    print(trace_text)
    print(render_sparse_vs_dense(sparse_data))
    print(parallel_text)
    print(render_kernels(kernels_data))
    print(obs_text)
    print(serve_text)
    for label, section in (("tiny", benchmark_data), ("xs", benchmark_xs_data)):
        print(
            f"benchmark mode ({label}): "
            f"{section['summary']['validated_pass']} PASS, "
            f"{section['summary']['validated_fail']} FAIL in "
            f"{section['wall_seconds']:.2f}s"
        )
    return {
        "schema": 5,
        "python": _platform.python_version(),
        "machine": _platform.machine(),
        "cores": _available_cores(),
        "trace_cache": trace_data,
        "sparse_reports": sparse_data,
        "parallel_sweep": parallel_data,
        "kernels": kernels_data,
        "harness_observability": obs_data,
        "benchmark_mode": benchmark_data,
        "benchmark_mode_xs": benchmark_xs_data,
        "serve": serve_data,
    }


def main(out_path: str = "BENCH_harness.json") -> None:
    snapshot = collect_snapshot()
    target = pathlib.Path(out_path)
    target.write_text(json.dumps(snapshot, indent=2, sort_keys=True) + "\n")
    print(f"wrote {target}")


if __name__ == "__main__":
    main(*sys.argv[1:2])
