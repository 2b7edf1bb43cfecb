"""Independent reference outputs for the Graphalytics core six.

Benchmark validation (:func:`repro.core.workloads.reference_output`)
compares each platform's output with an answer computed here.  Every
function below works straight from a graph's CSR arrays through scipy's
sparse matrices and ``csgraph`` routines.  None of it shares code with
the superstep programs in :mod:`repro.algorithms`, with
:mod:`repro.kernels`, or with the triangle helpers in
:mod:`repro.graph.properties`, so a defect in a program moves only the
candidate side of the check (Graphalytics validates against independent
reference implementations; GAP ships a separate verifier per kernel).

=========  ==========================================================
workload   formulation
=========  ==========================================================
``bfs``    ``csgraph.shortest_path(unweighted=True)`` from the source
           along out-arcs; unreached vertices map ``inf`` -> ``-1``
``wcc``    ``csgraph.connected_components(connection="weak")``
``cdlp``   Leung et al.'s score vote as a sparse (receiver, label)
           weight matrix ``S @ W``; the smallest label at each row's
           maximum wins
``pr``     power iteration over the in-CSR with ``1/outdeg`` data,
           dangling mass spread evenly
``sssp``   ``csgraph.dijkstra`` over the hashed integer arc weights
``lcc``    triangles of the undirected skeleton: ``sum((U @ U) ∘ U)``
           for ``U`` the degree-ordered upper triangle, in row blocks
=========  ==========================================================

The constants each workload is defined by (PageRank damping, the CDLP
attenuation and degree exponent, the SSSP weight hash) are restated
here rather than imported, so changing a program's default cannot move
its reference with it; a test pins the two copies equal.
"""

from __future__ import annotations

import typing as _t

import numpy as np
from scipy.sparse import csgraph, csr_matrix

from repro.datasets.registry import bfs_source
from repro.graph.graph import Graph

__all__ = [
    "CDLP_DEGREE_EXPONENT",
    "CDLP_HOP_ATTENUATION",
    "CDLP_INITIAL_SCORE",
    "CDLP_MAX_ITERATIONS",
    "PR_DAMPING",
    "PR_ITERATIONS",
    "PR_TOLERANCE",
    "REFERENCES",
    "SSSP_MAX_WEIGHT",
    "bfs",
    "cdlp",
    "lcc",
    "pagerank",
    "sssp",
    "wcc",
]

#: PageRank: damping factor, iteration cap, and the L1 change between
#: two iterates below which the iteration stops
PR_DAMPING = 0.85
PR_ITERATIONS = 30
PR_TOLERANCE = 1e-9

#: CDLP (paper Section 3.2): at most 5 iterations, initial score 1.0,
#: hop attenuation 0.1; votes are weighted by ``score * degree ** 0.05``
CDLP_MAX_ITERATIONS = 5
CDLP_HOP_ATTENUATION = 0.1
CDLP_INITIAL_SCORE = 1.0
CDLP_DEGREE_EXPONENT = 0.05

#: SSSP arc weights are integers in ``[1, SSSP_MAX_WEIGHT]``, hashed
#: from the endpoint ids with these two odd 64-bit multipliers
SSSP_MAX_WEIGHT = 8
_SSSP_SRC_MULT = np.uint64(0x9E3779B97F4A7C15)
_SSSP_DST_MULT = np.uint64(0xC2B2AE3D27D4EB4F)

#: LCC row blocks are cut so one block's wedge product holds at most
#: about this many entries
_LCC_BLOCK_WEDGES = 1 << 21


def _csr(graph: Graph, indptr: np.ndarray, indices: np.ndarray,
         data: np.ndarray | None = None) -> csr_matrix:
    """A ``csr_matrix`` over the graph's own CSR arrays (float64 ones
    unless ``data`` is given).

    Duplicate arcs of a graph built with ``dedupe=False`` stay separate
    entries; no COO round trip, which costs more than the searches.
    """
    n = graph.num_vertices
    if data is None:
        data = np.ones(len(indices), dtype=np.float64)
    return csr_matrix((data, indices, indptr), shape=(n, n))


def _source(graph: Graph, source: int | None) -> int:
    if source is None:
        return bfs_source(graph)
    source = int(source)
    if not 0 <= source < graph.num_vertices:
        raise ValueError(f"source {source} out of range")
    return source


def bfs(graph: Graph, *, source: int | None = None) -> np.ndarray:
    """Hop distance from ``source`` along out-arcs; ``-1`` = unreached.

    ``source`` defaults to the dataset's BFS source
    (:func:`repro.datasets.registry.bfs_source`).
    """
    source = _source(graph, source)
    adj = _csr(graph, graph.out_indptr, graph.out_indices)
    dist = csgraph.shortest_path(
        adj, directed=True, unweighted=True, indices=source
    )
    levels = np.full(graph.num_vertices, -1, dtype=np.int64)
    reached = np.isfinite(dist)
    levels[reached] = dist[reached]
    return levels


def wcc(graph: Graph) -> np.ndarray:
    """Weakly connected component id per vertex (arbitrary numbering)."""
    adj = _csr(graph, graph.out_indptr, graph.out_indices)
    _, labels = csgraph.connected_components(
        adj, directed=graph.directed, connection="weak"
    )
    return labels


def _sssp_weights(src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    mix = (src.astype(np.uint64) * _SSSP_SRC_MULT) ^ (
        dst.astype(np.uint64) * _SSSP_DST_MULT
    )
    return (mix >> np.uint64(33)) % np.uint64(SSSP_MAX_WEIGHT) + 1.0


def sssp(graph: Graph, *, source: int | None = None) -> np.ndarray:
    """Weighted distance from ``source`` along out-arcs; ``inf`` =
    unreached.

    Each arc ``u -> v`` weighs ``1 + (h(u, v) >> 33) % SSSP_MAX_WEIGHT``,
    with ``h(u, v) = u * M1 ^ v * M2`` in 64-bit unsigned arithmetic.
    """
    source = _source(graph, source)
    n = graph.num_vertices
    src = np.repeat(np.arange(n, dtype=np.int64), np.diff(graph.out_indptr))
    weights = _sssp_weights(src, graph.out_indices)
    adj = _csr(graph, graph.out_indptr, graph.out_indices, weights)
    return csgraph.dijkstra(adj, directed=True, indices=source)


def pagerank(graph: Graph, *, iterations: int = PR_ITERATIONS) -> np.ndarray:
    """PageRank by power iteration, dangling mass spread evenly.

    ``r' = (1 - d) / n + d * (P @ r + dangling(r) / n)`` with ``d`` =
    ``PR_DAMPING`` and ``P`` the in-CSR carrying ``1 / outdeg(u)`` on
    each arc ``u -> v``.  Stops after ``iterations`` iterates, or at the
    first whose L1 change from its predecessor is below
    ``PR_TOLERANCE``.
    """
    n = graph.num_vertices
    if n == 0:
        return np.zeros(0)
    outdeg = np.diff(graph.out_indptr).astype(np.float64)
    inv = np.zeros(n)
    np.divide(1.0, outdeg, out=inv, where=outdeg > 0)
    trans = _csr(graph, graph.in_indptr, graph.in_indices,
                 inv[graph.in_indices])
    dangling = np.flatnonzero(outdeg == 0)
    ranks = np.full(n, 1.0 / n)
    for _ in range(max(int(iterations), 1)):
        new = trans @ ranks
        new += ranks[dangling].sum() / n
        new *= PR_DAMPING
        new += (1.0 - PR_DAMPING) / n
        delta = float(np.abs(new - ranks).sum())
        ranks = new
        if delta < PR_TOLERANCE:
            break
    return ranks


def cdlp(graph: Graph) -> np.ndarray:
    """Community labels by Leung et al.'s attenuated label propagation.

    Every vertex starts with its own id as label and
    ``CDLP_INITIAL_SCORE``.  Each round, a vertex hears every neighbour
    ``s`` (along both arc directions of a directed graph) vote for
    ``label(s)`` with weight ``score(s) * max(deg(s), 1) **
    CDLP_DEGREE_EXPONENT``, ``deg`` the total degree.  The label with
    the largest summed weight wins, the smallest such label on a tie; a
    vertex that hears nothing keeps its label.  A vertex whose label
    changes takes the largest score among the neighbours voting for its
    new label, less ``CDLP_HOP_ATTENUATION`` (floored at 0).  Rounds
    stop when no label changes, or after ``CDLP_MAX_ITERATIONS``.

    The votes are the sparse product ``S @ W``: ``S[r, s]`` has one
    entry per arc on which ``s`` speaks to ``r`` (in-arcs first, then
    out-arcs, each in CSR order) and ``W[s, label(s)]`` is the vote's
    weight.  Each row sums in that fixed arc order, so exact ties come
    out the same on every run.
    """
    n = graph.num_vertices
    if graph.directed:
        indeg = np.diff(graph.in_indptr)
        deg = np.diff(graph.out_indptr) + indeg
        # row r of S: the senders on r's in-arcs, then on its out-arcs
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(deg, out=indptr[1:])
        from_in = np.arange(indptr[-1]) - np.repeat(indptr[:-1], deg) < (
            np.repeat(indeg, deg)
        )
        indices = np.empty(indptr[-1], dtype=graph.in_indices.dtype)
        indices[from_in] = graph.in_indices
        indices[~from_in] = graph.out_indices
        speakers = _csr(graph, indptr, indices)
    else:
        deg = np.diff(graph.out_indptr)
        speakers = _csr(graph, graph.out_indptr, graph.out_indices)
    weight_of_degree = (
        np.maximum(deg, 1).astype(np.float64) ** CDLP_DEGREE_EXPONENT
    )
    one_per_row = np.arange(n + 1, dtype=np.int32)

    labels = np.arange(n, dtype=np.int32)
    scores = np.full(n, CDLP_INITIAL_SCORE)
    for _ in range(CDLP_MAX_ITERATIONS):
        votes = speakers @ csr_matrix(
            (scores * weight_of_degree, labels, one_per_row), shape=(n, n)
        )
        # Every weight is positive, so a receiver's row holds exactly
        # the labels it heard: the row maximum, then the smallest label
        # carrying it.
        heard = np.diff(votes.indptr)
        voters = np.flatnonzero(heard)
        starts = votes.indptr[voters]
        top = np.repeat(np.maximum.reduceat(votes.data, starts), heard[voters])
        new_labels = labels.copy()
        new_labels[voters] = np.minimum.reduceat(
            np.where(votes.data == top, votes.indices, n), starts
        )
        adopters = np.flatnonzero(new_labels != labels)
        if not len(adopters):
            break
        heard_by = speakers[adopters]
        senders = heard_by.indices
        arcs = np.diff(heard_by.indptr)
        for_new = labels[senders] == np.repeat(new_labels[adopters], arcs)
        best = np.maximum.reduceat(
            np.where(for_new, scores[senders], -np.inf), heard_by.indptr[:-1]
        )
        scores[adopters] = np.maximum(best - CDLP_HOP_ATTENUATION, 0.0)
        labels = new_labels
    return labels


def lcc(graph: Graph) -> int:
    """Triangles of the undirected skeleton (the LCC numerator).

    A directed graph's skeleton joins each pair of distinct vertices
    linked either way, once.  An undirected graph is its own skeleton,
    so a duplicate edge of one built with ``dedupe=False`` counts as a
    multiplicity: a triangle counts the product of its edges'
    multiplicities.  ``U`` keeps each skeleton edge once, pointing from
    the endpoint of lower degree to the higher (ties by id): the upper
    triangle in degree order, kept in vertex-id rows.  Each triangle
    closes once, as a wedge ``a -> b -> c`` masked by ``a -> c``, and
    no row of ``U`` is longer than ``O(sqrt(E))``.
    """
    n = graph.num_vertices
    indptr, indices = graph.out_indptr, graph.out_indices
    if graph.directed:
        arcs = csr_matrix(
            (np.ones(len(indices), dtype=bool), indices, indptr), shape=(n, n)
        )
        skeleton = arcs + arcs.T  # boolean: one entry per linked pair
        indptr, indices = skeleton.indptr, skeleton.indices
    deg = np.diff(indptr)
    rank = np.empty(n, dtype=np.int32)
    rank[np.argsort(deg, kind="stable")] = np.arange(n, dtype=np.int32)
    # self-loops (equal rank) drop out with the lower half
    upper = csr_matrix(
        (np.repeat(rank, deg) < rank[indices], indices, indptr),
        shape=(n, n), copy=True,
    )
    upper.eliminate_zeros()
    upper.data = np.ones(upper.nnz, dtype=np.int32)
    # wedges a -> b -> c opened at each row a, cumulated (an int32
    # vector keeps the product from upcasting a copy of U's data)
    wedges = np.cumsum(
        upper @ np.diff(upper.indptr).astype(np.int32), dtype=np.int64
    )
    triangles = 0
    lo = 0
    while lo < n:
        done = wedges[lo - 1] if lo else 0
        hi = int(np.searchsorted(wedges, done + _LCC_BLOCK_WEDGES,
                                 side="right"))
        block = upper[lo:max(hi, lo + 1)]
        # .data.sum(): the masked product holds no duplicate entries
        triangles += int((block @ upper).multiply(block).data.sum())
        lo = max(hi, lo + 1)
    return triangles


#: the reference for each core-six workload, by workload name
REFERENCES: dict[str, _t.Callable[..., object]] = {
    "bfs": bfs,
    "wcc": wcc,
    "cdlp": cdlp,
    "pr": pagerank,
    "sssp": sssp,
    "lcc": lcc,
}
