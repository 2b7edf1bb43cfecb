"""Pure-numpy superstep-kernel implementations (the reference tier).

These are vectorized numpy computations, except :func:`ldg_assign`,
whose streaming loop is inherently sequential and is therefore an exact
scalar loop over python floats, O(degree) per vertex.  A part's LDG
score is positive only if it holds a placed neighbor and is not yet
full, so the winner is either the best-scoring neighbor part or, when
every score is 0, the least-loaded, lowest-numbered part — the same
choice the elementwise ``lexsort`` formulation (kept as the oracle in
``tests/test_kernels.py``) makes, with the same IEEE operations.

:mod:`repro.kernels.dispatch` selects this tier when numba is
unavailable (or when ``GRAPHBENCH_KERNELS=numpy``).  The compiled tier
in :mod:`repro.kernels._compiled` is property-tested bit-identical
against every function here: integer kernels are exact by construction,
and float kernels add the same float64 terms in the same element order
numpy's C loops do.

Signatures are normalized by the dispatch wrappers (weights arrive as
float64, part counts as python ints), so implementations never coerce.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "part_bincount",
    "comm_degrees",
    "cut_count",
    "gather_neighbors",
    "gather_with_sources",
    "scatter_min",
    "ldg_assign",
]


def part_bincount(
    parts: np.ndarray, weights: np.ndarray, num_parts: int
) -> np.ndarray:
    """Weighted per-part totals: ``out[parts[i]] += weights[i]``."""
    return np.bincount(parts, weights=weights, minlength=num_parts)


def comm_degrees(
    indptr: np.ndarray,
    indices: np.ndarray,
    assign: np.ndarray,
    directed: bool,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-vertex cut-arc counts ``(remote_out, remote_in)`` in one
    edge-list pass.

    An arc (u, v) whose endpoints live on different parts is
    simultaneously a remote *out*-neighbor of u and a remote
    *in*-neighbor of v, so both arrays come from the same cut mask.
    Undirected graphs store both arc directions in the out-CSR, so the
    two counts coincide and ``remote_out`` is returned twice.
    """
    n = len(indptr) - 1
    src = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
    dst = indices.astype(np.int64)
    remote = assign[src] != assign[dst]
    remote_out = np.bincount(src[remote], minlength=n).astype(np.int64)
    if not directed:
        return remote_out, remote_out
    remote_in = np.bincount(dst[remote], minlength=n).astype(np.int64)
    return remote_out, remote_in


def cut_count(
    indptr: np.ndarray, indices: np.ndarray, assign: np.ndarray
) -> int:
    """Number of arcs whose endpoints live on different parts."""
    src_parts = np.repeat(assign, np.diff(indptr))
    return int(np.count_nonzero(src_parts != assign[indices]))


def gather_neighbors(
    indptr: np.ndarray, indices: np.ndarray, vertices: np.ndarray
) -> np.ndarray:
    """Concatenation of ``indices[indptr[v]:indptr[v+1]]`` for each v.

    Equivalent to ``np.concatenate([indices[indptr[v]:indptr[v+1]]
    for v in vertices])`` but in O(total) numpy ops.
    """
    if len(vertices) == 0:
        return np.empty(0, dtype=indices.dtype)
    starts = indptr[vertices]
    lens = indptr[vertices + 1] - starts
    total = int(lens.sum())
    if total == 0:
        return np.empty(0, dtype=indices.dtype)
    # For each output slot, its offset within its slice:
    # slot_in_slice = arange(total) - repeat(cumulative_slice_starts)
    cum = np.concatenate([[0], np.cumsum(lens)[:-1]])
    within = np.arange(total, dtype=np.int64) - np.repeat(cum, lens)
    return indices[np.repeat(starts, lens) + within]


def gather_with_sources(
    indptr: np.ndarray, indices: np.ndarray, vertices: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Like :func:`gather_neighbors` but also returns the source vertex
    of every gathered entry (for edge-wise scatter/reduce)."""
    if len(vertices) == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, np.empty(0, dtype=indices.dtype)
    starts = indptr[vertices]
    lens = indptr[vertices + 1] - starts
    total = int(lens.sum())
    if total == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, np.empty(0, dtype=indices.dtype)
    cum = np.concatenate([[0], np.cumsum(lens)[:-1]])
    within = np.arange(total, dtype=np.int64) - np.repeat(cum, lens)
    nbrs = indices[np.repeat(starts, lens) + within]
    srcs = np.repeat(np.asarray(vertices, dtype=np.int64), lens)
    return srcs, nbrs


def scatter_min(
    target: np.ndarray, idx: np.ndarray, values: np.ndarray
) -> None:
    """In-place ``target[idx[i]] = min(target[idx[i]], values[i])``."""
    np.minimum.at(target, idx, values)


def ldg_assign(
    indptr: np.ndarray,
    indices: np.ndarray,
    in_indptr: np.ndarray,
    in_indices: np.ndarray,
    directed: bool,
    order: np.ndarray,
    weight: np.ndarray,
    capacity: float,
    num_parts: int,
) -> np.ndarray:
    """Linear Deterministic Greedy streaming assignment (inner loop of
    :func:`repro.graph.partition.greedy_partition`).

    Vertices stream in ``order``; each lands on the part maximizing
    ``affinity * max(1 - load / capacity, 0)`` (affinity = placed
    neighbors on the part), ties broken toward the least-loaded then
    lowest-numbered part.

    Only the vertex's neighbor parts are scored (see the module
    docstring for why that is exact); the all-zero-score fallback is a
    C-level scan of the ``num_parts`` loads.
    """
    n = len(indptr) - 1
    part = [-1] * n
    loads = [0.0] * num_parts
    out_ptr = indptr.tolist()
    in_ptr = in_indptr.tolist()
    w = weight.tolist()
    for v in order.tolist():
        # Adjacency is converted per vertex: a whole-array tolist()
        # would hold ~36 bytes per edge for the duration of the loop.
        nbrs = indices[out_ptr[v] : out_ptr[v + 1]].tolist()
        if directed:
            nbrs += in_indices[in_ptr[v] : in_ptr[v + 1]].tolist()
        affinity: dict[int, int] = {}
        for u in nbrs:
            p = part[u]
            if p >= 0:
                affinity[p] = affinity.get(p, 0) + 1
        best, best_score, best_load = -1, 0.0, 0.0
        for p, count in affinity.items():
            load = loads[p]
            penalty = 1.0 - load / capacity
            if penalty <= 0.0:
                continue  # score 0: never beats a positive one
            score = count * penalty
            if score > best_score or (
                score == best_score
                and (load < best_load or (load == best_load and p < best))
            ):
                best, best_score, best_load = p, score, load
        if best < 0:
            best = loads.index(min(loads))
        part[v] = best
        loads[best] += w[v]
    return np.array(part, dtype=np.int32)
