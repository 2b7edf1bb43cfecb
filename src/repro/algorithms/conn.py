"""Connected components by min-label propagation (paper Algorithm 3).

The cloud-based connected-component algorithm of Wu & Du, as selected
by the paper: every vertex starts with its own id as label; each
superstep every *changed* vertex sends its label to its neighbors, and
each vertex adopts the minimum label it hears.  The fixed point labels
each weakly-connected component with its smallest vertex id.

For directed graphs labels flow along both edge directions (weak
connectivity), matching the paper's use of CONN as a whole-graph
grouping algorithm.
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

__all__ = ["CONN", "ConnProgram"]


class ConnProgram(SuperstepProgram):
    """Label propagation with dynamic (changed-only) activity.

    Superstep 0 is the initialization sweep (every vertex sends its
    own id), later supersteps only changed vertices speak — the
    dynamic-computation behaviour that makes Giraph/GraphLab cheap on
    late iterations (paper Section 4.1.1).
    """

    def __init__(self, graph: Graph) -> None:
        super().__init__(graph)
        n = graph.num_vertices
        self.labels = np.arange(n, dtype=np.int64)
        self._changed = np.ones(n, dtype=bool)
        self._deg = np.asarray(
            graph.degree() if graph.directed else graph.out_degree(),
            dtype=np.int64,
        )

    def step(self) -> SuperstepReport:
        g = self.graph
        senders = np.flatnonzero(self._changed)
        deg = self._deg[senders].astype(np.float64)

        # Deliver: for each arc from a changed sender, propose its label.
        new_labels = self.labels.copy()
        for indptr, indices in self._adjacencies():
            src, dst = gather_with_sources(indptr, indices, senders)
            if len(src) == 0:
                continue
            scatter_min(new_labels, dst, self.labels[src])
        changed = new_labels < self.labels
        self.labels = new_labels
        self._changed = changed
        return frontier_report(
            g.num_vertices,
            senders,
            compute_edges=deg,
            messages=deg.copy(),
            halted=not bool(changed.any()),
            direction="both" if g.directed else "out",
        )

    def _adjacencies(self):
        g = self.graph
        yield g.out_indptr, g.out_indices
        if g.directed:
            yield g.in_indptr, g.in_indices

    def result(self) -> np.ndarray:
        return self.labels

    def output_bytes(self) -> int:
        # "This algorithm produces a large amount of output" — a
        # (vertex, component) pair per vertex, written as text.
        return 20 * self.graph.num_vertices


class CONN(Algorithm):
    """Connected-components exemplar (Wu & Du cloud algorithm)."""

    name = "conn"
    label = "CONN"
    combinable = True  # min-label combiner

    def program(self, graph: Graph, **params: object) -> ConnProgram:
        return ConnProgram(graph)


register_algorithm(CONN())
