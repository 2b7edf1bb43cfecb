"""Triangle counting (general-statistics / triangulation class).

Forward counting on the degree-ordered orientation
(:func:`repro.graph.properties.forward_adjacency`): every edge is
directed from the lower-rank endpoint to the higher-rank one, so each
triangle closes exactly once and the count is ``sum((L @ L) ∘ L)``
(:func:`repro.graph.properties.forward_triangle_count`) — O(E^{3/2})
work, the standard exact method.  Being an exact integer, it equals the
unoriented ``sum((A @ A) ∘ A) / 6``, which counts each triangle six times.

The superstep structure is STATS-like (two supersteps, neighbor-list
exchange) but ships only *forward* lists, so message volume is roughly
half of STATS's.
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
from repro.graph.properties import forward_adjacency, forward_triangle_count

__all__ = ["TRIANGLES", "TriangleProgram", "triangle_count"]


def triangle_count(graph: Graph) -> int:
    """Reference exact global triangle count (undirected skeleton)."""
    return forward_triangle_count(forward_adjacency(graph))


class TriangleProgram(SuperstepProgram):
    """Two-superstep forward-neighborhood exchange."""

    def __init__(self, graph: Graph) -> None:
        super().__init__(graph)
        self._count: int | None = None
        self._fwd = forward_adjacency(graph)
        # forward degree: neighbors with higher (degree, id) rank (int64
        # even where scipy narrowed the index arrays to int32)
        self._fwd_deg = np.diff(self._fwd.indptr).astype(np.int64)

    def step(self) -> SuperstepReport:
        g = self.graph
        fwd = self._fwd_deg
        if self.superstep == 0:
            # ship my forward list to each forward neighbor
            return SuperstepReport(
                active=None,
                compute_edges=fwd.copy(),
                messages=fwd.copy(),
                message_bytes=fwd * fwd * 8,
                quadratic_in_degree=True,
                halted=False,
            )
        self._count = forward_triangle_count(self._fwd)
        return SuperstepReport(
            active=None,
            compute_edges=fwd * fwd,
            messages=self._zeros(),
            halted=True,
            compute_quadratic=True,
        )

    def result(self) -> int:
        if self._count is None:
            raise RuntimeError("program has not completed")
        return self._count

    def output_bytes(self) -> int:
        return 16


class TRIANGLES(Algorithm):
    """Triangulation exemplar (Table 3's general-statistics class)."""

    name = "triangles"
    label = "Triangles"

    def program(self, graph: Graph, **params: object) -> TriangleProgram:
        return TriangleProgram(graph)


register_algorithm(TRIANGLES())
