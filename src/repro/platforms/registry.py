"""Platform lookup and shared partition cache."""

from __future__ import annotations

import typing as _t

from repro.graph.graph import Graph
from repro.graph.partition import (
    Partition,
    greedy_partition,
    hash_partition,
    range_partition,
)

if _t.TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.platforms.base import PartitionContext, Platform
    from repro.platforms.scale import ScaleModel

__all__ = [
    "PLATFORM_NAMES",
    "get_platform",
    "list_platforms",
    "cached_partition",
    "cached_context",
    "context_memo_stats",
    "clear_context_caches",
    "reset_for_isolation",
]

#: paper Table 4 order, plus the GraphLab(mp) tuning variant
PLATFORM_NAMES: tuple[str, ...] = (
    "hadoop",
    "yarn",
    "stratosphere",
    "giraph",
    "graphlab",
    "graphlab_mp",
    "neo4j",
)


def get_platform(name: str) -> "Platform":
    """Instantiate a platform model by short code."""
    from repro.platforms.giraph import Giraph
    from repro.platforms.graphlab import GraphLab
    from repro.platforms.hadoop import Hadoop
    from repro.platforms.neo4j import Neo4j
    from repro.platforms.stratosphere import Stratosphere
    from repro.platforms.yarn import Yarn

    name = name.lower()
    factory: dict[str, _t.Callable[[], Platform]] = {
        "hadoop": Hadoop,
        "yarn": Yarn,
        "stratosphere": Stratosphere,
        "giraph": Giraph,
        "graphlab": GraphLab,
        "graphlab_mp": lambda: GraphLab(pre_split=True),
        "neo4j": Neo4j,
    }
    try:
        return factory[name]()
    except KeyError:
        raise KeyError(
            f"unknown platform {name!r}; choose from {', '.join(PLATFORM_NAMES)}"
        ) from None


def list_platforms() -> list[tuple[str, str]]:
    """Discovery API: sorted ``(name, one-line description)`` pairs for
    every registered platform model (mirrors ``list_algorithms`` and
    ``list_datasets`` — the CLI's ``graphbench list`` and its argument
    validation messages are built on these three)."""
    out = []
    for name in sorted(PLATFORM_NAMES):
        p = get_platform(name)
        deployment = "distributed" if p.distributed else "single machine"
        out.append((name, f"{p.label} — {p.kind}, {deployment}"))
    return out


_partition_cache: dict[tuple[int, int, str], Partition] = {}


def cached_partition(graph: Graph, num_parts: int, policy: str) -> Partition:
    """Memoized partitioner front end (partitions are pure functions of
    graph identity, part count, and policy — and LDG is not free)."""
    key = (id(graph), num_parts, policy)
    part = _partition_cache.get(key)
    if part is not None and part.graph is graph:
        return part
    builder = {
        "hash": hash_partition,
        "range": range_partition,
        "greedy": greedy_partition,
    }[policy]
    part = builder(graph, num_parts)
    _partition_cache[key] = part
    return part


_context_cache: dict[tuple, "PartitionContext"] = {}


def cached_context(
    graph: Graph, num_parts: int, policy: str, scale: "ScaleModel"
) -> "PartitionContext":
    """Memoized :class:`~repro.platforms.base.PartitionContext` front end.

    A context's precomputation (remote-degree arrays, per-part shares)
    walks every edge; it is a pure function of (graph identity, part
    count, policy, scale model), so platform ``_execute`` paths share
    one instance — which also shares the per-report step-cost memo that
    makes trace replay cheap.
    """
    from repro.platforms.base import PartitionContext

    key = (id(graph), num_parts, policy, scale)
    ctx = _context_cache.get(key)
    if ctx is not None and ctx.graph is graph:
        return ctx
    ctx = PartitionContext(graph, cached_partition(graph, num_parts, policy), scale)
    _context_cache[key] = ctx
    return ctx


def clear_context_caches() -> None:
    """Drop the process-wide partition, context and scale-model memos.

    Cold-path measurements (benchmarks) need this: the memos are
    process-wide, so any earlier run in the same process pre-warms them
    and a "cold" sweep silently measures the warm path.
    """
    from repro.platforms.scale import clear_scale_memo

    _partition_cache.clear()
    _context_cache.clear()
    clear_scale_memo()


def reset_for_isolation() -> None:
    """Reset every process-wide memo this module owns to a cold state.

    The serve layer made warm process-wide state the normal condition,
    so isolation is an explicit benchmark-side request, not something a
    test fixture should have to reconstruct from internals.  Pairs with
    :meth:`repro.core.trace_cache.TraceCache.reset_for_isolation`: call
    both before a cold-path measurement and it is cold regardless of
    what ran earlier in the process.
    """
    clear_context_caches()


def context_memo_stats() -> dict[str, int]:
    """Aggregated step-cost memo counters over all cached contexts."""
    totals = {
        "contexts": len(_context_cache),
        "step_memo_entries": 0,
        "step_memo_hits": 0,
        "step_memo_misses": 0,
    }
    for ctx in _context_cache.values():
        for key, value in ctx.memo_stats().items():
            totals[key] += value
    return totals
