"""Classic random graphs: Erdős–Rényi G(n, m)."""

from __future__ import annotations

import numpy as np

from repro.graph.builder import from_edges
from repro.graph.graph import Graph

__all__ = ["erdos_renyi"]


def erdos_renyi(
    num_vertices: int,
    num_edges: int,
    *,
    directed: bool = False,
    seed: int = 1,
    name: str = "erdos_renyi",
) -> Graph:
    """G(n, m): ``num_edges`` uniform random edges (post-dedupe, the
    realized count can be slightly lower; we oversample 5 % to
    compensate and trim).
    """
    rng = np.random.default_rng(seed)
    want = num_edges
    oversample = int(want * 1.08) + 16
    src = rng.integers(0, num_vertices, size=oversample, dtype=np.int64)
    dst = rng.integers(0, num_vertices, size=oversample, dtype=np.int64)
    keep = src != dst
    src, dst = src[keep], dst[keep]
    if directed:
        key = src * np.int64(num_vertices) + dst
    else:
        lo, hi = np.minimum(src, dst), np.maximum(src, dst)
        key = lo * np.int64(num_vertices) + hi
    _, first = np.unique(key, return_index=True)
    first = np.sort(first)[:want]
    edges = np.column_stack([src[first], dst[first]])
    return from_edges(num_vertices, edges, directed=directed, name=name)

