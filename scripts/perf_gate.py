#!/usr/bin/env python3
"""Compare a fresh perf snapshot against the committed baseline.

Usage:  python scripts/perf_gate.py CURRENT.json BASELINE.json

The gate reads two ``bench_snapshot.py`` documents and enforces three
kinds of budget:

* **wall budgets** — absolute timings may not exceed the baseline by
  more than ``WALL_TOLERANCE`` (machines differ, schedulers jitter, so
  the tolerance is deliberately loose; it catches order-of-magnitude
  regressions, not percent-level drift).
* **ratio budgets** — the harness's headline speedups (trace-cache
  warm/cold, sparse-vs-dense, parallel sweep) may not collapse below
  ``RATIO_FLOOR`` of the baseline value.  Ratio budgets are **skipped
  when either machine reports fewer than four cores** — mirroring
  ``bench_parallel_sweep``'s skip, a 1-core CI container cannot
  reproduce parallel or cache-contention ratios.
* **overhead budget** — absolute ceilings (not baseline-relative):
  the harness-observability layer may not cost more than
  ``OVERHEAD_CEILING`` of serial sweep wall when enabled, and the
  serving layer's warm-path (answer-cache hit) p99 may not exceed
  ``SERVE_WARM_P99_CEILING`` seconds.  Skipped below
  ``MIN_CORES_FOR_RATIOS`` cores — a loaded small container cannot
  resolve these deltas above its own scheduling noise — and skipped
  when the baseline predates the metric (older schema).
* **correctness flags** — never skipped: the parallel sweep must stay
  bit-identical to the serial one, the observed sweep bit-identical to
  the unobserved one, every benchmark-mode cell must validate, and a
  served predict answer must stay byte-identical to a direct
  ``Runner.run(spec)``, on any machine.

A metric present in the budget table but missing from the *baseline*
snapshot is reported as a skip, not a failure, so the gate tolerates
baselines recorded by an older-schema harness.  A metric missing from
the *current* snapshot fails: the harness stopped measuring something
it is budgeted to measure.

Exit status 0 when every enforced budget holds, 1 otherwise.
"""

from __future__ import annotations

import json
import pathlib
import sys

#: current wall may be at most baseline * WALL_TOLERANCE
WALL_TOLERANCE = 2.5
#: current ratio must be at least baseline * RATIO_FLOOR
RATIO_FLOOR = 0.5
#: memory ratios are deterministic (trace bytes, not walls) — hold tighter
MEMORY_RATIO_FLOOR = 0.9
MIN_CORES_FOR_RATIOS = 4
#: enabled harness observability may cost at most this fraction of
#: serial sweep wall (absolute, not baseline-relative)
OVERHEAD_CEILING = 0.03
#: a warm-path (answer-cache hit) predict may take at most this many
#: seconds at p99 — absolute: the warm path is a dict lookup plus a
#: socket round-trip and must stay orders of magnitude under a sweep
SERVE_WARM_P99_CEILING = 0.25

#: dotted paths of wall metrics (seconds / milliseconds, lower=better)
WALL_BUDGETS = (
    "trace_cache.cold_seconds",
    "trace_cache.warm_seconds",
    "sparse_reports.sparse_wall",
    "benchmark_mode.wall_seconds",
    "benchmark_mode.cache_stats.record_seconds",
    "benchmark_mode_xs.wall_seconds",
    "kernels.micro.part_bincount.active_ms",
    "kernels.micro.comm_degrees.active_ms",
    "kernels.micro.cut_count.active_ms",
    "kernels.micro.gather_neighbors.active_ms",
    "kernels.micro.gather_with_sources.active_ms",
    "kernels.micro.scatter_min.active_ms",
    "kernels.micro.ldg_assign.active_ms",
    "harness_observability.cell_wall_p99_seconds",
)

#: dotted paths of speedup ratios (higher=better) -> floor factor
RATIO_BUDGETS = {
    "trace_cache.speedup": RATIO_FLOOR,
    "sparse_reports.wall_ratio": RATIO_FLOOR,
    "sparse_reports.memory_ratio": MEMORY_RATIO_FLOOR,
    "parallel_sweep.speedup": RATIO_FLOOR,
    "harness_observability.utilization": RATIO_FLOOR,
}

#: dotted paths of overhead fractions (lower=better) -> absolute ceiling
OVERHEAD_BUDGETS = {
    "harness_observability.overhead_fraction": OVERHEAD_CEILING,
    "serve.warm_p99_seconds": SERVE_WARM_P99_CEILING,
}

#: dotted paths that must be truthy in the current snapshot
CORRECTNESS_FLAGS = (
    "parallel_sweep.identical",
    "harness_observability.identical",
    "benchmark_mode.summary.all_validated",
    "benchmark_mode_xs.summary.all_validated",
    "serve.identical",
)


def _lookup(doc: dict, dotted: str):
    node = doc
    for key in dotted.split("."):
        if not isinstance(node, dict) or key not in node:
            return None
        node = node[key]
    return node


def _cores(doc: dict) -> int:
    # schema 3 records cores at top level; schema 2 only inside the
    # parallel-sweep section.
    return int(_lookup(doc, "cores") or _lookup(doc, "parallel_sweep.cores") or 1)


class Gate:
    def __init__(self) -> None:
        self.failures: list[str] = []

    def ok(self, msg: str) -> None:
        print(f"  PASS  {msg}")

    def skip(self, msg: str) -> None:
        print(f"  skip  {msg}")

    def fail(self, msg: str) -> None:
        self.failures.append(msg)
        print(f"  FAIL  {msg}")


def run_gate(current: dict, baseline: dict) -> list[str]:
    gate = Gate()
    cores = min(_cores(current), _cores(baseline))
    ratios_comparable = cores >= MIN_CORES_FOR_RATIOS

    print(f"perf gate: cores={_cores(current)} (baseline {_cores(baseline)})")

    for path in WALL_BUDGETS:
        base = _lookup(baseline, path)
        cur = _lookup(current, path)
        if base is None:
            gate.skip(f"{path}: not in baseline snapshot")
            continue
        if cur is None:
            gate.fail(f"{path}: missing from current snapshot")
            continue
        budget = base * WALL_TOLERANCE
        if cur <= budget:
            gate.ok(f"{path}: {cur:g} <= {budget:g} (baseline {base:g})")
        else:
            gate.fail(f"{path}: {cur:g} exceeds {budget:g} (baseline {base:g})")

    for path, floor_factor in RATIO_BUDGETS.items():
        base = _lookup(baseline, path)
        cur = _lookup(current, path)
        if base is None:
            gate.skip(f"{path}: not in baseline snapshot")
            continue
        if cur is None:
            gate.fail(f"{path}: missing from current snapshot")
            continue
        if not ratios_comparable:
            gate.skip(
                f"{path}: ratio budgets need >= {MIN_CORES_FOR_RATIOS} "
                f"cores on both machines (have {cores})"
            )
            continue
        floor = base * floor_factor
        if cur >= floor:
            gate.ok(f"{path}: {cur:g} >= {floor:g} (baseline {base:g})")
        else:
            gate.fail(f"{path}: {cur:g} below {floor:g} (baseline {base:g})")

    for path, ceiling in OVERHEAD_BUDGETS.items():
        base = _lookup(baseline, path)
        cur = _lookup(current, path)
        if base is None:
            gate.skip(f"{path}: not in baseline snapshot")
            continue
        if cur is None:
            gate.fail(f"{path}: missing from current snapshot")
            continue
        if not ratios_comparable:
            gate.skip(
                f"{path}: overhead budget needs >= "
                f"{MIN_CORES_FOR_RATIOS} cores on both machines "
                f"(have {cores})"
            )
            continue
        if cur <= ceiling:
            gate.ok(f"{path}: {cur:g} <= {ceiling:g} ceiling")
        else:
            gate.fail(f"{path}: {cur:g} exceeds {ceiling:g} ceiling")

    for path in CORRECTNESS_FLAGS:
        cur = _lookup(current, path)
        if cur is None:
            # benchmark_mode_xs only exists from schema 3 on
            if _lookup(baseline, path) is None:
                gate.skip(f"{path}: not measured by either snapshot")
            else:
                gate.fail(f"{path}: missing from current snapshot")
            continue
        if cur:
            gate.ok(f"{path}: true")
        else:
            gate.fail(f"{path}: false — correctness flags are never skipped")

    return gate.failures


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__)
        return 2
    current = json.loads(pathlib.Path(argv[0]).read_text())
    baseline = json.loads(pathlib.Path(argv[1]).read_text())
    failures = run_gate(current, baseline)
    if failures:
        print(f"perf gate: {len(failures)} budget(s) violated")
        return 1
    print("perf gate: all enforced budgets hold")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
