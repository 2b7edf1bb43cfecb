"""Maximal independent set by Luby's algorithm (components class,
Table 3's MIS entry).

Each round every undecided vertex draws a deterministic pseudo-random
priority; local maxima join the set and knock their neighbors out.
Expected O(log n) rounds; the result is a *maximal* (not maximum)
independent set, verified by the property tests.
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
from repro.kernels.dispatch import gather_with_sources

__all__ = ["MIS", "MisProgram", "maximal_independent_set"]

_UNDECIDED, _IN_SET, _OUT = 0, 1, 2


def _round_priority(vertices: np.ndarray, round_no: int, seed: int) -> np.ndarray:
    """Deterministic per-(vertex, round) priority in [0, 2^32)."""
    salt = np.uint64((round_no * 0x632BE59BD9B4E019 + seed) % (1 << 64))
    mix = vertices.astype(np.uint64) * np.uint64(0x9E3779B97F4A7C15) + salt
    mix ^= mix >> np.uint64(29)
    mix *= np.uint64(0xBF58476D1CE4E5B9)
    return (mix >> np.uint64(32)).astype(np.int64)


class MisProgram(SuperstepProgram):
    """Luby's algorithm over the undirected skeleton."""

    def __init__(self, graph: Graph, *, seed: int = 7) -> None:
        super().__init__(graph)
        self._und = graph.as_undirected() if graph.directed else graph
        self.seed = int(seed)
        self.state = np.full(graph.num_vertices, _UNDECIDED, dtype=np.int8)
        self._deg = np.asarray(self._und.out_degree(), dtype=np.int64)

    def step(self) -> SuperstepReport:
        und = self._und
        n = und.num_vertices
        undecided = np.flatnonzero(self.state == _UNDECIDED)
        deg = self._deg[undecided].astype(np.float64)

        if len(undecided) == 0:
            return frontier_report(
                n, undecided, compute_edges=deg, messages=deg.copy(),
                halted=True,
            )
        prio = np.full(n, -1, dtype=np.int64)
        prio[undecided] = _round_priority(undecided, self.superstep, self.seed)
        # a vertex wins if its priority strictly exceeds every undecided
        # neighbor's (ties broken by id)
        src, dst = gather_with_sources(und.out_indptr, und.out_indices, undecided)
        winners = np.ones(n, dtype=bool)
        winners[self.state != _UNDECIDED] = False
        if len(src):
            relevant = self.state[dst] == _UNDECIDED
            s, d = src[relevant], dst[relevant]
            loses = (prio[d] > prio[s]) | ((prio[d] == prio[s]) & (d > s))
            np.logical_and.at(winners, s, ~loses)
        new_in = np.flatnonzero(winners & (self.state == _UNDECIDED))
        self.state[new_in] = _IN_SET
        # knock out the winners' neighbors
        if len(new_in):
            _, nbrs = gather_with_sources(
                und.out_indptr, und.out_indices, new_in
            )
            out = nbrs[self.state[nbrs] == _UNDECIDED]
            self.state[out] = _OUT
        done = not bool((self.state == _UNDECIDED).any())
        return frontier_report(
            n, undecided, compute_edges=deg, messages=deg.copy(),
            halted=done,
        )

    def result(self) -> np.ndarray:
        """Boolean membership mask of the maximal independent set."""
        return self.state == _IN_SET


def maximal_independent_set(graph: Graph, *, seed: int = 7) -> np.ndarray:
    """Reference run of Luby's program."""
    prog = MisProgram(graph, seed=seed)
    for _ in prog:
        pass
    return prog.result()


class MIS(Algorithm):
    """Maximal-independent-set exemplar (Luby)."""

    name = "mis"
    label = "MIS"

    def default_params(self, graph: Graph) -> dict[str, object]:
        return {"seed": 7}

    def program(self, graph: Graph, **params: object) -> MisProgram:
        return MisProgram(graph, **params)  # type: ignore[arg-type]


register_algorithm(MIS())
