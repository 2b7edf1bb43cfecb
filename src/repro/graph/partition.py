"""Graph partitioning across workers.

The platform models need vertex->worker assignments.  Three policies:

* :func:`hash_partition` — the default of Giraph/Hadoop-style systems
  (multiplicative hash of the vertex id).
* :func:`range_partition` — contiguous id ranges (HDFS-block-like).
* :func:`greedy_partition` — Linear Deterministic Greedy (LDG)
  streaming partitioner, standing in for GraphLab's "smart dataset
  partitioning ... limiting the cut-edges between machines"
  (Section 4.1.1).

:class:`Partition` carries the assignment plus the derived statistics
the cost models consume: per-part vertex/edge counts and the cut-edge
count that drives network traffic.

The cut-edge pass and the LDG inner loop route through
:mod:`repro.kernels.dispatch`: compiled when the kernel tier is loaded,
pure numpy otherwise — identical assignments and counts either way.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.graph.graph import Graph
from repro.kernels import dispatch as kernels

__all__ = ["Partition", "hash_partition", "range_partition", "greedy_partition"]

_HASH_MULT = np.uint64(0x9E3779B97F4A7C15)


@dataclasses.dataclass(frozen=True)
class Partition:
    """A vertex->part assignment with cached statistics."""

    graph: Graph
    num_parts: int
    assignment: np.ndarray  # int32[num_vertices] in [0, num_parts)
    policy: str

    def __post_init__(self) -> None:
        if self.num_parts < 1:
            raise ValueError("num_parts must be >= 1")
        a = self.assignment
        if a.shape != (self.graph.num_vertices,):
            raise ValueError("assignment must have one entry per vertex")
        if len(a) and (a.min() < 0 or a.max() >= self.num_parts):
            raise ValueError("assignment values out of range")

    # -- derived statistics -------------------------------------------------
    def vertices_per_part(self) -> np.ndarray:
        """Number of vertices owned by each part."""
        return np.bincount(self.assignment, minlength=self.num_parts)

    def half_edges_per_part(self) -> np.ndarray:
        """Adjacency entries stored by each part (owner = source vertex)."""
        deg = np.asarray(self.graph.out_degree(), dtype=np.int64)
        return np.bincount(self.assignment, weights=deg, minlength=self.num_parts).astype(
            np.int64
        )

    def cut_edges(self) -> int:
        """Arcs whose endpoints live on different parts.

        For undirected graphs each cut edge is counted once.
        """
        g = self.graph
        cut = kernels.cut_count(g.out_indptr, g.out_indices, self.assignment)
        return cut if g.directed else cut // 2

    def cut_fraction(self) -> float:
        """Cut edges / total edges (0 when the graph has no edges)."""
        e = self.graph.num_edges
        return self.cut_edges() / e if e else 0.0

    def imbalance(self) -> float:
        """max(part size) / mean(part size), in half-edges (1.0 = perfect)."""
        sizes = self.half_edges_per_part().astype(np.float64)
        mean = sizes.mean()
        return float(sizes.max() / mean) if mean > 0 else 1.0


def hash_partition(graph: Graph, num_parts: int) -> Partition:
    """Multiplicative-hash vertex assignment (Giraph/Hadoop default)."""
    ids = np.arange(graph.num_vertices, dtype=np.uint64)
    mixed = ids * _HASH_MULT  # wraps mod 2**64, as intended for mixing
    assignment = ((mixed >> np.uint64(17)) % np.uint64(num_parts)).astype(np.int32)
    return Partition(graph, num_parts, assignment, policy="hash")


def range_partition(graph: Graph, num_parts: int) -> Partition:
    """Contiguous id ranges of near-equal vertex counts."""
    n = graph.num_vertices
    assignment = np.minimum(
        (np.arange(n, dtype=np.int64) * num_parts) // max(n, 1), num_parts - 1
    ).astype(np.int32)
    return Partition(graph, num_parts, assignment, policy="range")


def greedy_partition(graph: Graph, num_parts: int, *, slack: float = 1.05) -> Partition:
    """Linear Deterministic Greedy (LDG) streaming edge-cut partitioner.

    Stanton & Kliot's streaming heuristic: place each vertex on the
    part holding most of its already-placed neighbors, weighted by a
    linear penalty on part fullness.  This is the stand-in for
    GraphLab's cut-minimizing placement; the ablation bench
    (``benchmarks/bench_ablation_design_choices.py::test_ablation_partitioning``)
    compares its cut fraction and simulated network bytes against
    :func:`hash_partition`.

    Parameters
    ----------
    slack:
        Capacity headroom multiplier per part (1.05 = 5 % imbalance
        allowed).
    """
    n = graph.num_vertices
    if num_parts == 1:
        return Partition(
            graph, 1, np.zeros(n, dtype=np.int32), policy="greedy"
        )
    degree = np.asarray(graph.degree(), dtype=np.int64)
    # Balance *edges*, not vertices: distributed graph engines place
    # partitions by adjacency size, and hub vertices would otherwise
    # skew a vertex-balanced assignment badly.
    weight = np.maximum(degree, 1)
    capacity = slack * float(weight.sum()) / num_parts
    # Stream vertices in a degree-descending order: placing hubs first
    # gives the heuristic the most information (standard LDG practice).
    order = np.argsort(-degree, kind="stable")
    assignment = kernels.ldg_assign(
        graph.out_indptr, graph.out_indices,
        graph.in_indptr, graph.in_indices,
        graph.directed, order, weight, capacity, num_parts,
    )
    return Partition(graph, num_parts, assignment, policy="greedy")
