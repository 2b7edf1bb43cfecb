"""Single-source shortest paths (graph-traversal class).

Bellman-Ford-style label-correcting SSSP over *weighted* edges: weights
are derived deterministically from endpoint ids (the paper's text
format carries no weights), so results are reproducible and platform
models exercise a traversal whose frontier does not collapse to plain
BFS levels.  With unit weights the result equals BFS.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.base import (
    Algorithm,
    SuperstepProgram,
    SuperstepReport,
    frontier_report,
    register_algorithm,
)
from repro.graph.graph import Graph
from repro.kernels.dispatch import gather_with_sources, scatter_min

__all__ = ["SSSP", "SsspProgram", "edge_weights"]


def edge_weights(
    src: np.ndarray, dst: np.ndarray, *, max_weight: int = 8
) -> np.ndarray:
    """Deterministic pseudo-random integer weight per arc in
    [1, max_weight], derived by hashing endpoint ids."""
    mix = (
        src.astype(np.uint64) * np.uint64(0x9E3779B97F4A7C15)
        ^ dst.astype(np.uint64) * np.uint64(0xC2B2AE3D27D4EB4F)
    )
    return ((mix >> np.uint64(33)) % np.uint64(max_weight)).astype(np.float64) + 1.0


class SsspProgram(SuperstepProgram):
    """Label-correcting SSSP: changed vertices relax their out-edges."""

    def __init__(self, graph: Graph, source: int, *, max_weight: int = 8) -> None:
        super().__init__(graph)
        n = graph.num_vertices
        if not 0 <= source < n:
            raise ValueError(f"source {source} out of range")
        self.source = source
        self.max_weight = int(max_weight)
        self.dist = np.full(n, np.inf)
        self.dist[source] = 0.0
        self._changed = np.zeros(n, dtype=bool)
        self._changed[source] = True
        self._deg = np.asarray(graph.out_degree(), dtype=np.int64)

    def step(self) -> SuperstepReport:
        g = self.graph
        senders = np.flatnonzero(self._changed)
        deg = self._deg[senders].astype(np.float64)

        src, dst = gather_with_sources(g.out_indptr, g.out_indices, senders)
        new_dist = self.dist.copy()
        if len(src):
            w = edge_weights(src, dst.astype(np.int64), max_weight=self.max_weight)
            proposals = self.dist[src] + w
            scatter_min(new_dist, dst, proposals)
        changed = new_dist < self.dist
        self.dist = new_dist
        self._changed = changed
        return frontier_report(
            g.num_vertices,
            senders,
            compute_edges=deg,
            messages=deg.copy(),
            halted=not bool(changed.any()),
        )

    def result(self) -> np.ndarray:
        return self.dist


class SSSP(Algorithm):
    """Weighted-traversal exemplar."""

    name = "sssp"
    label = "SSSP"
    combinable = True  # min-distance combiner

    def default_params(self, graph: Graph) -> dict[str, object]:
        from repro.datasets.registry import bfs_source

        return {"source": bfs_source(graph), "max_weight": 8}

    def program(self, graph: Graph, **params: object) -> SsspProgram:
        source = int(params.get("source", 0))  # type: ignore[arg-type]
        max_weight = int(params.get("max_weight", 8))  # type: ignore[arg-type]
        return SsspProgram(graph, source, max_weight=max_weight)


register_algorithm(SSSP())
