"""PageRank as a superstep program (important-vertices class).

Synchronous power iteration with damping and dangling-mass
redistribution; every vertex is active every superstep and sends
``rank / out_degree`` along its out-edges — the canonical Pregel
example and one of the two algorithms LDBC Graphalytics added on top of
this paper's five.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.base import (
    Algorithm,
    SuperstepProgram,
    SuperstepReport,
    register_algorithm,
)
from repro.graph.graph import Graph

__all__ = ["PAGERANK", "PageRankProgram"]


class PageRankProgram(SuperstepProgram):
    """All-active synchronous PageRank."""

    def __init__(
        self,
        graph: Graph,
        *,
        damping: float = 0.85,
        iterations: int = 30,
        tolerance: float = 1e-9,
    ) -> None:
        super().__init__(graph)
        n = graph.num_vertices
        self.damping = float(damping)
        self.iterations = int(iterations)
        self.tolerance = float(tolerance)
        self.ranks = np.full(n, 1.0 / max(n, 1))
        self._out_deg = np.asarray(graph.out_degree(), dtype=np.float64)
        # float64 data: an int8 matrix times a float64 vector would make
        # scipy copy the matrix data to float64 on every superstep
        self._adj_in = graph.to_scipy("in").astype(np.float64)

    def step(self) -> SuperstepReport:
        g = self.graph
        n = g.num_vertices
        dangling_mask = self._out_deg == 0
        share = np.where(
            dangling_mask, 0.0, self.ranks / np.maximum(self._out_deg, 1.0)
        )
        incoming = np.asarray(self._adj_in @ share).ravel()
        dangling = float(self.ranks[dangling_mask].sum()) / max(n, 1)
        new = (1.0 - self.damping) / max(n, 1) + self.damping * (
            incoming + dangling
        )
        delta = float(np.abs(new - self.ranks).sum())
        self.ranks = new
        deg = np.asarray(g.out_degree(), dtype=np.int64)
        converged = delta < self.tolerance
        return SuperstepReport(
            active=None,
            compute_edges=deg.copy(),
            messages=deg.copy(),
            halted=converged or self.superstep + 1 >= self.iterations,
        )

    def result(self) -> np.ndarray:
        return self.ranks


class PAGERANK(Algorithm):
    """Important-vertices exemplar."""

    name = "pagerank"
    label = "PageRank"
    combinable = True  # sum combiner

    def default_params(self, graph: Graph) -> dict[str, object]:
        return {"damping": 0.85, "iterations": 30}

    def program(self, graph: Graph, **params: object) -> PageRankProgram:
        return PageRankProgram(graph, **params)  # type: ignore[arg-type]


register_algorithm(PAGERANK())
