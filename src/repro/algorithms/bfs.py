"""Breadth-first search (paper Algorithm 2).

Frontier-based level-synchronous BFS over CSR out-edges.  The paper
traverses directed graphs along out-edges only ("thus the directed
graphs are not entirely traversed", Section 3.2) — the Citation
coverage effect.

One BFS level = one superstep, matching the iteration counts in the
paper's Table 5.
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
from repro.kernels.dispatch import gather_neighbors

__all__ = ["BFS", "BfsProgram", "bfs_levels"]


def bfs_levels(graph: Graph, source: int) -> np.ndarray:
    """Reference BFS: per-vertex level array (-1 = unreached).

    Fully vectorized frontier expansion: gather all out-neighbors of
    the frontier in one fancy-indexing pass per level.
    """
    n = graph.num_vertices
    levels = np.full(n, -1, dtype=np.int64)
    if not 0 <= source < n:
        raise ValueError(f"source {source} out of range")
    levels[source] = 0
    frontier = np.array([source], dtype=np.int64)
    indptr, indices = graph.out_indptr, graph.out_indices
    level = 0
    while len(frontier):
        level += 1
        nbrs = gather_neighbors(indptr, indices, frontier)
        if len(nbrs) == 0:
            break
        fresh = nbrs[levels[nbrs] == -1]
        if len(fresh) == 0:
            break
        fresh = np.unique(fresh)
        levels[fresh] = level
        frontier = fresh.astype(np.int64)
    return levels


class BfsProgram(SuperstepProgram):
    """Superstep program: one frontier expansion per superstep.

    Active vertices are the current frontier; each sends one message
    per out-edge (its distance) — exactly the Pregel formulation.
    """

    def __init__(self, graph: Graph, source: int) -> None:
        super().__init__(graph)
        n = graph.num_vertices
        if not 0 <= source < n:
            raise ValueError(f"source {source} out of range")
        self.source = source
        self.levels = np.full(n, -1, dtype=np.int64)
        self.levels[source] = 0
        self._frontier = np.array([source], dtype=np.int64)
        self._level = 0  # level of the current frontier
        self._deg = np.asarray(graph.out_degree(), dtype=np.int64)

    def step(self) -> SuperstepReport:
        g = self.graph
        frontier = self._frontier
        deg = self._deg[frontier].astype(np.float64)

        nbrs = gather_neighbors(g.out_indptr, g.out_indices, frontier)
        if len(nbrs):
            distinct = np.unique(nbrs)
            fresh = distinct[self.levels[distinct] == -1]
        else:
            distinct = np.empty(0, dtype=np.int64)
            fresh = np.empty(0, dtype=np.int64)
        self._level += 1
        self.levels[fresh] = self._level
        self._frontier = fresh.astype(np.int64)
        return frontier_report(
            g.num_vertices,
            frontier,
            compute_edges=deg,
            messages=deg.copy(),
            halted=len(fresh) == 0,
            distinct_receivers=len(distinct),
        )

    def result(self) -> np.ndarray:
        return self.levels

    def coverage(self) -> float:
        """Fraction of vertices reached (Table 5)."""
        return float(np.count_nonzero(self.levels >= 0)) / max(
            self.graph.num_vertices, 1
        )


class BFS(Algorithm):
    """Graph traversal exemplar (paper's Graph500-aligned choice)."""

    name = "bfs"
    label = "BFS"
    combinable = True  # min-distance combiner

    def default_params(self, graph: Graph) -> dict[str, object]:
        from repro.datasets.registry import bfs_source

        return {"source": bfs_source(graph)}

    def program(self, graph: Graph, **params: object) -> BfsProgram:
        source = int(params.get("source", 0))  # type: ignore[arg-type]
        return BfsProgram(graph, source)


register_algorithm(BFS())
