"""The superstep kernels, as plain numpy functions.

Every function here is a vectorized numpy computation, except
:func:`ldg_assign`, whose streaming loop is inherently sequential and is
therefore an exact scalar loop over python floats, O(degree) per
vertex.

Call sites import this module and call its kernels
(``from repro.kernels import dispatch as kernels``).  Each kernel
normalizes its arguments first (weights to float64, part counts to
python ints, flags to bools), so the same inputs always reach the same
numpy arithmetic.  While an observability session is ambient, every
call is timed and folded into per-kernel counters
(``kernels.numpy.<name>.calls`` / ``.wall_seconds``); when none is, the
whole cost is one ``is None`` check.

Kernels never call each other through this module's globals: a tracer
that rebinds one kernel must see exactly the calls its callers make.
"""

from __future__ import annotations

import functools
import time

import numpy as np

from repro import obs

__all__ = [
    "active_backend",
    "part_bincount",
    "comm_degrees",
    "cut_count",
    "gather_neighbors",
    "gather_with_sources",
    "scatter_min",
    "ldg_assign",
]


def active_backend() -> str:
    """The kernel implementation serving calls; always ``"numpy"``
    (the label on the per-kernel obs counters)."""
    return "numpy"


def _observed(fn):
    """Time ``fn`` into the ambient observability session, if any."""
    calls = f"kernels.numpy.{fn.__name__}.calls"
    wall_seconds = f"kernels.numpy.{fn.__name__}.wall_seconds"

    @functools.wraps(fn)
    def kernel(*args, **kwargs):
        session = obs.active()
        if session is None:
            return fn(*args, **kwargs)
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        wall = time.perf_counter() - start
        session.metrics.count(calls)
        session.metrics.count(wall_seconds, wall)
        return result

    return kernel


@_observed
def part_bincount(
    parts: np.ndarray, weights: np.ndarray, num_parts: int
) -> np.ndarray:
    """Float64 per-part totals: ``out[parts[i]] += weights[i]``, in
    element order."""
    return np.bincount(
        parts,
        weights=np.asarray(weights, dtype=np.float64),
        minlength=int(num_parts),
    )


@_observed
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


@_observed
def cut_count(
    indptr: np.ndarray, indices: np.ndarray, assign: np.ndarray
) -> int:
    """Number of CSR arcs crossing parts (before any undirected
    halving)."""
    src_parts = np.repeat(assign, np.diff(indptr))
    return int(np.count_nonzero(src_parts != assign[indices]))


def _gather(
    indptr: np.ndarray, indices: np.ndarray, vertices: np.ndarray
) -> tuple[np.ndarray, np.ndarray] | None:
    """``(concatenated adjacency slices of vertices, slice lengths)`` in
    O(total) numpy ops, or ``None`` when they gather nothing."""
    if len(vertices) == 0:
        return None
    starts = indptr[vertices]
    lens = indptr[vertices + 1] - starts
    total = int(lens.sum())
    if total == 0:
        return None
    # For each output slot, its offset within its slice:
    # slot_in_slice = arange(total) - repeat(cumulative_slice_starts)
    cum = np.concatenate([[0], np.cumsum(lens)[:-1]])
    within = np.arange(total, dtype=np.int64) - np.repeat(cum, lens)
    return indices[np.repeat(starts, lens) + within], lens


@_observed
def gather_neighbors(
    indptr: np.ndarray, indices: np.ndarray, vertices: np.ndarray
) -> np.ndarray:
    """Concatenated adjacency slices of ``vertices`` (frontier
    expansion); output dtype matches ``indices``."""
    found = _gather(indptr, indices, vertices)
    if found is None:
        return np.empty(0, dtype=indices.dtype)
    return found[0]


@_observed
def gather_with_sources(
    indptr: np.ndarray, indices: np.ndarray, vertices: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Like :func:`gather_neighbors` plus the int64 source vertex of
    every gathered entry (for edge-wise scatter/reduce)."""
    found = _gather(indptr, indices, vertices)
    if found is None:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=indices.dtype)
    nbrs, lens = found
    return np.repeat(np.asarray(vertices, dtype=np.int64), lens), nbrs


@_observed
def scatter_min(
    target: np.ndarray, idx: np.ndarray, values: np.ndarray
) -> None:
    """In-place ``target[idx[i]] = min(target[idx[i]], values[i])``."""
    np.minimum.at(target, idx, values)


@_observed
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
    :func:`repro.graph.partition.greedy_partition`); int32 assignment.

    Vertices stream in ``order``; each lands on the part maximizing
    ``affinity * max(1 - load / capacity, 0)`` (affinity = placed
    neighbors on the part), ties broken toward the least-loaded then
    lowest-numbered part.

    A part's score is positive only if it holds a placed neighbor and
    is not yet full, so only the vertex's neighbor parts are scored:
    the winner is the best-scoring neighbor part or, when every score
    is 0, the least-loaded, lowest-numbered part — the same choice the
    elementwise ``lexsort`` formulation (kept as the oracle in
    ``tests/test_kernels.py``) makes, with the same IEEE operations.
    """
    directed = bool(directed)
    capacity = float(capacity)
    n = len(indptr) - 1
    part = [-1] * n
    loads = [0.0] * int(num_parts)
    out_ptr = indptr.tolist()
    in_ptr = in_indptr.tolist()
    w = np.asarray(weight, dtype=np.float64).tolist()
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
