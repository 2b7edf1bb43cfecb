"""Superstep-kernel micro benchmark.

Each kernel of :mod:`repro.kernels.dispatch` is timed in isolation on
inputs drawn from the amazon dataset (hash partition, mid-BFS-sized
frontier).  ``scripts/bench_snapshot.py`` records the best-of walls
into ``BENCH_harness.json`` as ``kernels.micro.<kernel>.active_ms``,
and ``scripts/perf_gate.py`` budgets each of them.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.report import render_table
from repro.datasets import load_dataset
from repro.graph.partition import hash_partition
from repro.kernels import dispatch as kernels

MICRO_DATASET = "amazon"
MICRO_SCALE = 0.125  # the "tiny" scale factor
NUM_PARTS = 20
#: micro repeats (best-of); the LDG case streams every vertex through a
#: python-level loop, so it gets fewer repeats
MICRO_REPEATS = 5
LDG_REPEATS = 2


def _best(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _micro_cases() -> dict[str, tuple[int, "object"]]:
    """``name -> (repeats, call(fn))`` micro cases on amazon inputs."""
    g = load_dataset(MICRO_DATASET, scale=MICRO_SCALE)
    part = hash_partition(g, NUM_PARTS)
    assign = part.assignment
    indptr, indices = g.out_indptr, g.out_indices
    n = g.num_vertices
    deg64 = np.asarray(g.out_degree(), dtype=np.float64)
    rng = np.random.default_rng(7)
    # A mid-BFS-sized frontier: ~5 % of the vertices, sorted ids.
    frontier = np.sort(
        rng.choice(n, size=max(1, n // 20), replace=False)
    ).astype(np.int64)
    frontier_parts = assign[frontier]
    frontier_vals = deg64[frontier]
    gathered = kernels.gather_neighbors(indptr, indices, frontier)
    scatter_vals = rng.random(len(gathered))
    dist = np.full(n, np.inf)
    degree = np.asarray(g.degree(), dtype=np.int64)
    weight = np.maximum(degree, 1)
    capacity = 1.05 * float(weight.sum()) / NUM_PARTS
    order = np.argsort(-degree, kind="stable")

    return {
        "part_bincount": (
            MICRO_REPEATS,
            lambda fn: fn(frontier_parts, frontier_vals, NUM_PARTS),
        ),
        "comm_degrees": (
            MICRO_REPEATS,
            lambda fn: fn(indptr, indices, assign, g.directed),
        ),
        "cut_count": (
            MICRO_REPEATS,
            lambda fn: fn(indptr, indices, assign),
        ),
        "gather_neighbors": (
            MICRO_REPEATS,
            lambda fn: fn(indptr, indices, frontier),
        ),
        "gather_with_sources": (
            MICRO_REPEATS,
            lambda fn: fn(indptr, indices, frontier),
        ),
        "scatter_min": (
            MICRO_REPEATS,
            lambda fn: fn(dist.copy(), gathered, scatter_vals),
        ),
        "ldg_assign": (
            LDG_REPEATS,
            lambda fn: fn(
                indptr, indices, g.in_indptr, g.in_indices,
                g.directed, order, weight, capacity, NUM_PARTS,
            ),
        ),
    }


def measure_micro() -> dict:
    """Per-kernel best-of walls (ms)."""
    out: dict[str, dict[str, float]] = {}
    for name, (repeats, call) in _micro_cases().items():
        fn = getattr(kernels, name)
        call(fn)  # warm caches and allocator before timing
        wall = _best(lambda: call(fn), repeats)
        out[name] = {"active_ms": round(wall * 1e3, 4)}
    return out


def measure_kernels() -> dict:
    """The snapshot's ``kernels`` section: per-kernel micro walls."""
    return {"micro": measure_micro()}


def render_kernels(data: dict) -> str:
    rows = [
        [name, f"{row['active_ms']:.3f} ms"]
        for name, row in data["micro"].items()
    ]
    return render_table(
        ["kernel", "best wall"], rows, title="Superstep kernels (micro)",
    )
