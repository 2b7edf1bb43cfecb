"""Whole-graph structural properties.

Implements the quantities in the paper's Table 2 — vertex/edge counts,
link density ``d``, average degree ``D`` — plus the per-vertex local
clustering coefficient needed by the STATS algorithm and
largest-connected-component extraction (footnote 1 of the paper: every
dataset is reduced to its largest connected component).
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.graph.graph import Graph

__all__ = [
    "GraphSummary",
    "link_density",
    "average_degree",
    "forward_adjacency",
    "forward_triangle_count",
    "local_clustering_coefficients",
    "mean_local_clustering",
    "connected_component_labels",
    "largest_connected_component",
    "degree_histogram",
    "summarize",
]


def link_density(graph: Graph) -> float:
    """Fraction of possible (ordered) vertex pairs that are linked.

    Matches the paper's ``d`` column: ``E / (V * (V - 1))`` for directed
    graphs and ``2E / (V * (V - 1))`` for undirected graphs.
    """
    v = graph.num_vertices
    if v < 2:
        return 0.0
    pairs = v * (v - 1)
    e = graph.num_edges
    return (e if graph.directed else 2 * e) / pairs


def average_degree(graph: Graph) -> float:
    """Paper's ``D``: average degree (undirected) or average out-degree."""
    if graph.num_vertices == 0:
        return 0.0
    return graph.num_edges / graph.num_vertices if graph.directed else (
        2 * graph.num_edges / graph.num_vertices
    )


def forward_adjacency(graph: Graph):
    """Degree-ordered orientation of the undirected skeleton.

    Ranks vertices by ``(degree, id)`` and keeps each skeleton half-edge
    only in the direction from the lower rank to the higher one, so every
    edge appears exactly once and no vertex has more than
    ``O(sqrt(E))`` forward neighbours (the forward method of the GAP
    benchmark suite).  Returned as an int64 ``csr_matrix`` built from the
    raw CSR arrays like :meth:`Graph.to_scipy`: duplicate half-edges of a
    graph built with ``dedupe=False`` stay separate entries, which every
    sparse product sums as edge multiplicities.
    """
    from scipy.sparse import csr_matrix

    und = graph.as_undirected() if graph.directed else graph
    n = und.num_vertices
    deg = np.diff(und.out_indptr)
    rank = np.empty(n, dtype=np.int32)  # vertex ids are int32
    rank[np.argsort(deg, kind="stable")] = np.arange(n)
    forward = np.repeat(rank, deg) < rank[und.out_indices]
    # Forward half-edges per row; reduceat over the non-empty rows only,
    # whose start offsets are strictly increasing.
    nonempty = deg > 0
    indptr = np.zeros(n + 1, dtype=np.int64)
    indptr[1:][nonempty] = np.add.reduceat(
        forward, und.out_indptr[:-1][nonempty], dtype=np.int64
    )
    np.cumsum(indptr, out=indptr)
    indices = und.out_indices[forward]
    data = np.ones(len(indices), dtype=np.int64)
    return csr_matrix((data, indices, indptr), shape=(n, n))


#: row blocks of a masked sparse product are cut so each block's product
#: has at most about this many entries (~25 MB of int64 data + indices)
_ROW_BLOCK_WORK = 1 << 21


def _masked_product_sums(left, right, mask) -> tuple[np.ndarray, np.ndarray]:
    """Row and column sums of ``(left @ right) ∘ mask``.

    Evaluated in row blocks of ``left`` and ``mask``; a row's work is the
    summed row lengths of ``right`` it touches, so a hub row cannot
    materialize an oversized intermediate.
    """
    n = left.shape[0]
    row_sums = np.zeros(n, dtype=np.int64)
    col_sums = np.zeros(mask.shape[1], dtype=np.int64)
    work = np.cumsum(left @ np.diff(right.indptr))
    if n == 0 or work[-1] == 0:
        return row_sums, col_sums
    cuts = np.searchsorted(
        work, np.arange(_ROW_BLOCK_WORK, work[-1], _ROW_BLOCK_WORK), side="right"
    ).tolist()
    for lo, hi in zip([0, *cuts], [*cuts, n]):
        if hi <= lo:
            continue
        block = (left[lo:hi] @ right).multiply(mask[lo:hi])
        row_sums[lo:hi] = np.asarray(block.sum(axis=1)).ravel()
        col_sums += np.asarray(block.sum(axis=0)).ravel()
    return row_sums, col_sums


def forward_triangle_count(fwd) -> int:
    """Triangles closed by a :func:`forward_adjacency` orientation.

    ``sum((L @ L) ∘ L)`` in row blocks: a triangle ``a < b < c`` (by
    rank) closes once, as the path ``a -> b -> c`` masked by ``a -> c``.
    """
    closed_at_lowest, _ = _masked_product_sums(fwd, fwd, fwd)
    return int(closed_at_lowest.sum())


def local_clustering_coefficients(graph: Graph) -> np.ndarray:
    """Per-vertex local clustering coefficient (LCC).

    Computed on the undirected skeleton: ``lcc(v) = 2 * tri(v) /
    (deg(v) * (deg(v) - 1))``, 0 for degree < 2.  With ``L`` the
    :func:`forward_adjacency` orientation, each triangle ``a < b < c``
    (by rank) is closed once in ``C = (L @ L) ∘ L`` (at entry ``(a,
    c)``) and once in ``(Lᵀ @ L) ∘ L`` (at entry ``(b, c)``), so
    ``tri = rowsum(C) + colsum(C) + rowsum((Lᵀ @ L) ∘ L)`` credits each
    triangle to its lowest, highest and middle vertex.  Every sum is an
    exact int64 count equal to the row sums of ``(A @ A) ∘ A`` halved,
    so the floats divided below are the same as the unoriented
    product's, bit for bit, at a fraction of its ``O(Σ deg²)`` work.
    """
    und = graph.as_undirected() if graph.directed else graph
    n = und.num_vertices
    if n == 0:
        return np.zeros(0, dtype=np.float64)
    fwd = forward_adjacency(und)
    low, high = _masked_product_sums(fwd, fwd, fwd)
    middle, _ = _masked_product_sums(fwd.T.tocsr(), fwd, fwd)
    two_tri = 2 * (low + high + middle)
    deg = np.asarray(und.out_degree(), dtype=np.float64)
    denom = deg * (deg - 1.0)
    lcc = np.zeros(n, dtype=np.float64)
    mask = denom > 0
    lcc[mask] = two_tri[mask] / denom[mask]
    return lcc


def mean_local_clustering(graph: Graph) -> float:
    """Graph-average LCC — the STATS headline number."""
    if graph.num_vertices == 0:
        return 0.0
    return float(np.mean(local_clustering_coefficients(graph)))


def connected_component_labels(graph: Graph) -> np.ndarray:
    """Weakly-connected-component label per vertex (int array).

    Labels are the smallest vertex id in each component, matching the
    fixed point of the paper's CONN label-propagation algorithm.
    """
    from scipy.sparse.csgraph import connected_components

    if graph.num_vertices == 0:
        return np.zeros(0, dtype=np.int64)
    adj = graph.to_scipy("out")
    _, comp = connected_components(adj, directed=graph.directed, connection="weak")
    # Re-label each component with its minimum vertex id.
    n = graph.num_vertices
    min_label = np.full(comp.max() + 1, n, dtype=np.int64)
    np.minimum.at(min_label, comp, np.arange(n, dtype=np.int64))
    return min_label[comp]


def largest_connected_component(graph: Graph) -> Graph:
    """Induced subgraph on the largest weakly-connected component.

    Vertices are re-labelled contiguously in increasing original-id
    order (the paper's datasets are all pre-reduced this way).
    """
    from repro.graph.builder import from_edges

    labels = connected_component_labels(graph)
    if graph.num_vertices == 0:
        return graph
    values, counts = np.unique(labels, return_counts=True)
    biggest = values[np.argmax(counts)]
    keep = labels == biggest
    new_id = np.cumsum(keep) - 1  # old id -> new id (valid where keep)
    src = np.repeat(
        np.arange(graph.num_vertices, dtype=np.int64), np.diff(graph.out_indptr)
    )
    dst = graph.out_indices.astype(np.int64)
    sel = keep[src] & keep[dst]
    edges = np.column_stack([new_id[src[sel]], new_id[dst[sel]]])
    return from_edges(
        int(np.count_nonzero(keep)),
        edges,
        directed=graph.directed,
        name=f"{graph.name}(lcc)",
    )


def degree_histogram(graph: Graph) -> np.ndarray:
    """Counts of vertices per degree value (index = degree)."""
    deg = np.asarray(graph.degree())
    return np.bincount(deg) if len(deg) else np.zeros(0, dtype=np.int64)


@dataclasses.dataclass(frozen=True)
class GraphSummary:
    """One row of the paper's Table 2."""

    name: str
    num_vertices: int
    num_edges: int
    link_density: float
    average_degree: float
    directed: bool
    max_degree: int
    text_size_bytes: int

    @property
    def directivity(self) -> str:
        return "directed" if self.directed else "undirected"


def summarize(graph: Graph) -> GraphSummary:
    """Compute a :class:`GraphSummary` (Table 2 row) for ``graph``."""
    deg = np.asarray(graph.degree())
    return GraphSummary(
        name=graph.name,
        num_vertices=graph.num_vertices,
        num_edges=graph.num_edges,
        link_density=link_density(graph),
        average_degree=average_degree(graph),
        directed=graph.directed,
        max_degree=int(deg.max()) if len(deg) else 0,
        text_size_bytes=graph.text_size_bytes(),
    )
