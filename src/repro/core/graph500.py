"""A Graph500-style BFS benchmark harness.

The paper positions itself against Graph500 ("the de-facto standard
for comparing the performance of the hardware infrastructure related
to graph processing"), whose method is: generate a Kronecker graph
(kernel 1), run BFS from 64 random roots (kernel 2), *validate* each
BFS tree, and report the harmonic-mean TEPS.  This module implements
that method over the suite's substrate so the two methodologies can be
compared side by side — including the official five-point BFS-tree
validation from the Graph500 specification.
"""

from __future__ import annotations

import dataclasses
import typing as _t

import numpy as np

from repro.algorithms.bfs import bfs_levels
from repro.graph.generators.kronecker import graph500_kronecker
from repro.graph.graph import Graph

__all__ = [
    "ValidationError",
    "validate_bfs_tree",
    "Graph500Result",
    "run_graph500",
]


class ValidationError(AssertionError):
    """A BFS parent tree failed the Graph500 validation rules."""


def validate_bfs_tree(
    graph: Graph, source: int, parent: np.ndarray
) -> None:
    """The Graph500 result-validation rules for one BFS tree.

    1. the BFS tree has no cycles (it is a tree rooted at ``source``);
    2. each tree edge connects vertices whose BFS levels differ by one;
    3. every edge in the graph connects vertices whose levels differ
       by at most one (or one endpoint is unreached);
    4. the tree spans exactly the vertices reachable from the source;
    5. a vertex and its parent are joined by a real graph edge.

    Raises :class:`ValidationError` on the first violated rule.
    """
    n = graph.num_vertices
    if parent.shape != (n,):
        raise ValidationError("parent array has wrong length")
    if parent[source] != source:
        raise ValidationError("rule 1: source must be its own parent")

    # Derive levels by walking up the tree; detect cycles via depth cap.
    levels = np.full(n, -1, dtype=np.int64)
    levels[source] = 0
    in_tree = parent >= 0
    order = np.flatnonzero(in_tree)
    # iteratively settle levels (at most n rounds; cycle => never settles)
    for _ in range(n):
        unsettled = in_tree & (levels < 0)
        if not unsettled.any():
            break
        idx = np.flatnonzero(unsettled)
        p = parent[idx]
        ready = levels[p] >= 0
        if not ready.any():
            raise ValidationError("rule 1: cycle detected in BFS tree")
        levels[idx[ready]] = levels[p[ready]] + 1
    if (in_tree & (levels < 0)).any():
        raise ValidationError("rule 1: cycle detected in BFS tree")

    # rule 5 + rule 2: parent edges exist and step exactly one level.
    kids = np.flatnonzero(in_tree & (np.arange(n) != source))
    if len(kids):
        parents = parent[kids]
        # membership test: child must appear in parent's sorted
        # out-neighbor list (BFS follows out-edges)
        starts = graph.out_indptr[parents]
        ends = graph.out_indptr[parents + 1]
        for v, p, lo, hi in zip(kids, parents, starts, ends):
            row = graph.out_indices[lo:hi]
            pos = np.searchsorted(row, v)
            if pos >= len(row) or row[pos] != v:
                raise ValidationError(f"rule 5: ({p}, {v}) is not a graph edge")
        if np.any(levels[kids] != levels[parents] + 1):
            raise ValidationError("rule 2: a tree edge skips levels")

    # rule 4: tree spans exactly the reachable set
    truth = bfs_levels(graph, source)
    if not np.array_equal(truth >= 0, in_tree):
        raise ValidationError("rule 4: tree does not span the reachable set")

    # rule 3: no edge skips a BFS level.  Undirected: |diff| <= 1.
    # Directed (BFS follows out-edges): level[dst] <= level[src] + 1,
    # and an arc from a reached vertex cannot point at an unreached one.
    src = np.repeat(np.arange(n, dtype=np.int64), np.diff(graph.out_indptr))
    dst = graph.out_indices.astype(np.int64)
    both = (levels[src] >= 0) & (levels[dst] >= 0)
    diff = levels[dst[both]] - levels[src[both]]
    if graph.directed:
        if np.any(diff > 1):
            raise ValidationError("rule 3: an arc skips a level forward")
        dangling = (levels[src] >= 0) & (levels[dst] < 0)
        if np.any(dangling):
            raise ValidationError(
                "rule 3: a reached vertex has an unreached out-neighbor"
            )
    else:
        if np.any(np.abs(diff) > 1):
            raise ValidationError("rule 3: an edge spans more than one level")


def _bfs_parent_tree(graph: Graph, source: int) -> np.ndarray:
    """BFS parent array (-1 = unreached), vectorized frontier sweep."""
    from repro.kernels.dispatch import gather_with_sources

    n = graph.num_vertices
    parent = np.full(n, -1, dtype=np.int64)
    parent[source] = source
    frontier = np.array([source], dtype=np.int64)
    while len(frontier):
        src, dst = gather_with_sources(
            graph.out_indptr, graph.out_indices, frontier
        )
        fresh_mask = parent[dst] == -1
        if not fresh_mask.any():
            break
        d, s = dst[fresh_mask], src[fresh_mask]
        # first writer wins deterministically: keep the first occurrence
        _, first = np.unique(d, return_index=True)
        parent[d[first]] = s[first]
        frontier = d[first].astype(np.int64)
    return parent


@dataclasses.dataclass(frozen=True)
class Graph500Result:
    """Output of one Graph500-style run."""

    scale: int
    edge_factor: int
    num_roots: int
    teps: tuple[float, ...]  # per-root traversed edges per second
    harmonic_mean_teps: float
    construction_seconds: float
    all_valid: bool


def run_graph500(
    scale: int = 12,
    edge_factor: int = 16,
    *,
    num_roots: int = 16,
    seed: int = 1,
    validate: bool = True,
    timer: _t.Callable[[], float] | None = None,
) -> Graph500Result:
    """Run the Graph500 method: generate, BFS from random roots,
    validate, report harmonic-mean TEPS (real wall-clock time)."""
    import time as _time

    clock = timer or _time.perf_counter
    t0 = clock()
    graph = graph500_kronecker(scale, edge_factor, seed=seed)
    construction = clock() - t0

    rng = np.random.default_rng(seed + 1)
    deg = np.asarray(graph.out_degree())
    candidates = np.flatnonzero(deg > 0)
    roots = rng.choice(candidates, size=min(num_roots, len(candidates)),
                       replace=False)
    teps: list[float] = []
    all_valid = True
    for root in roots:
        t1 = clock()
        parent = _bfs_parent_tree(graph, int(root))
        elapsed = max(clock() - t1, 1e-9)
        # traversed edges: sum of degrees of reached vertices
        reached = parent >= 0
        traversed = float(deg[reached].sum())
        teps.append(traversed / elapsed)
        if validate:
            try:
                validate_bfs_tree(graph, int(root), parent)
            except ValidationError:
                all_valid = False
                raise
    harmonic = len(teps) / float(np.sum(1.0 / np.asarray(teps)))
    return Graph500Result(
        scale=scale,
        edge_factor=edge_factor,
        num_roots=len(roots),
        teps=tuple(teps),
        harmonic_mean_teps=harmonic,
        construction_seconds=construction,
        all_valid=all_valid,
    )
