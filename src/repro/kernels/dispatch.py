"""The superstep kernels, as plain numpy functions.

Every function here is a vectorized numpy computation, except
:func:`ldg_assign`, whose streaming loop is inherently sequential and is
therefore an exact scalar loop over python floats.  Numpy feeds that
loop in blocks — the parts of a dense vertex's placed neighbors counted
and ranked, a sparse vertex's earlier-placed neighbors gathered — so
the python work per vertex is a few parts, not its whole adjacency.

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
import heapq
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
) -> tuple[np.ndarray, np.ndarray]:
    """``(concatenated adjacency slices of vertices, slice lengths)`` in
    O(total) numpy ops."""
    if len(vertices) == 0:
        return np.empty(0, dtype=indices.dtype), np.empty(0, dtype=np.int64)
    starts = indptr[vertices]
    lens = indptr[vertices + 1] - starts
    # Output slot j of slice i reads indices[starts[i] + j - firsts[i]],
    # where firsts[i] is the slice's offset in the output.
    firsts = np.cumsum(lens) - lens
    total = int(lens.sum())
    return indices[np.arange(total) + np.repeat(starts - firsts, lens)], lens


@_observed
def gather_neighbors(
    indptr: np.ndarray, indices: np.ndarray, vertices: np.ndarray
) -> np.ndarray:
    """Concatenated adjacency slices of ``vertices`` (frontier
    expansion); output dtype matches ``indices``."""
    return _gather(indptr, indices, vertices)[0]


@_observed
def gather_with_sources(
    indptr: np.ndarray, indices: np.ndarray, vertices: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Like :func:`gather_neighbors` plus the int64 source vertex of
    every gathered entry (for edge-wise scatter/reduce)."""
    nbrs, lens = _gather(indptr, indices, vertices)
    return np.repeat(np.asarray(vertices, dtype=np.int64), lens), nbrs


@_observed
def scatter_min(
    target: np.ndarray, idx: np.ndarray, values: np.ndarray
) -> None:
    """In-place ``target[idx[i]] = min(target[idx[i]], values[i])``."""
    np.minimum.at(target, idx, values)


#: a stream position is *dense* when its vertex's (out+in) degree
#: reaches this; the leading run of dense positions goes in blocks
_DENSE_DEGREE = 32
#: stream positions per block of the dense loop
_BLOCK = 64
#: stream positions per chunk of the sparse loop
_CHUNK = 2048


def _gather_rows(
    csrs: list[tuple[np.ndarray, np.ndarray]], vertices: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``(row, neighbor)`` pairs of ``vertices`` over every CSR in
    ``csrs``, where ``row`` is the vertex's index in ``vertices``;
    grouped per CSR, in row order within each."""
    rows, nbrs = [], []
    for ptr, idx in csrs:
        found, lens = _gather(ptr, idx, vertices)
        rows.append(np.repeat(np.arange(len(vertices)), lens))
        nbrs.append(found)
    # intp neighbors: numpy indexes with them at half the cost of int32
    if len(csrs) == 1:
        return rows[0], nbrs[0].astype(np.intp)
    return np.concatenate(rows), np.concatenate(nbrs, dtype=np.intp)


def _by_row(
    rows: np.ndarray, values: np.ndarray, num_rows: int, regroup: bool
) -> tuple[list, list[int]]:
    """``values`` as a python list sorted by ``rows`` (stably, only when
    ``regroup``: a single CSR's pairs are in row order already), and
    each row's end offset in it."""
    if regroup:
        values = values[np.argsort(rows, kind="stable")]
    ends = np.cumsum(np.bincount(rows, minlength=num_rows))
    return values.tolist(), ends.tolist()


def _least_loaded(
    by_load: list[tuple[float, int]], loads: list[float]
) -> tuple[float, int]:
    """``(load, part)`` of the least-loaded, lowest-numbered part.

    ``by_load`` is a heap holding one ``(load, part)`` entry per part,
    each its part's load when last refreshed.  Loads only grow, so a
    stale entry sorts no later than its part's current one, and the
    first valid top is the minimum: each call refreshes only the stale
    entries that reach the top, O(log k) apiece.
    """
    while True:
        load, part = by_load[0]
        if load == loads[part]:
            return load, part
        heapq.heapreplace(by_load, (loads[part], part))


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

    Vertices stream in ``order`` (a permutation of the vertices); each
    lands on the part maximizing ``affinity * max(1 - load / capacity,
    0)`` (affinity = placed neighbors on the part, over out- and, when
    directed, in-arcs), ties broken toward the least-loaded then
    lowest-numbered part.  When every score is 0 that is the
    least-loaded, lowest-numbered part — the choice the elementwise
    ``lexsort`` formulation (kept as the oracle in
    ``tests/test_kernels.py``) makes, with the same IEEE operations.

    A score is positive only on a part that holds a placed neighbor and
    is not yet full, so only neighbor parts are scored, in two loops:

    * *Dense* stream positions (degree >= ``_DENSE_DEGREE``) that lead
      the stream go in blocks of ``_BLOCK``.  One ``bincount`` counts
      each block vertex's neighbors per part as placed before the
      block, one ``argsort`` ranks each row's parts by that count, and
      one filter lists each row's arcs to vertices earlier in the
      block.  The scalar loop scores the parts of those in-block
      neighbors by hand (with their whole counts), then walks the
      ranked parts and stops at the first whose ``count * (1 - min_load
      / capacity)`` is below the best score: no later part can reach
      it, since IEEE division, subtraction and multiplication are
      monotone.  (It must not stop at an equal bound: that part may
      tie the best score and win the tie on load or number.)
    * The remaining positions go in chunks of ``_CHUNK``: one gather
      per chunk keeps only the neighbors streamed earlier, and the
      scalar loop counts their parts from a python list.

    Both loops track the least-loaded part incrementally, in a heap of
    the part loads (:func:`_least_loaded`), so ``weight`` must be
    non-negative.  Transient memory is per block or chunk; nothing is
    edge-sized.  On a 2-core x86 VM a dense kgs vertex (mean degree
    112) costs about 3 us and a sparse amazon vertex about 1.1 us.
    """
    directed = bool(directed)
    capacity = float(capacity)
    num_parts = int(num_parts)
    n = len(indptr) - 1
    order = np.asarray(order, dtype=np.int64)
    csrs = [(indptr, indices)]
    if directed:
        csrs.append((in_indptr, in_indices))
    degree = sum(np.diff(ptr)[order] for ptr, _ in csrs)
    sparse = np.flatnonzero(degree < _DENSE_DEGREE)
    dense_end = int(sparse[0]) if len(sparse) else len(order)
    w = np.asarray(weight, dtype=np.float64).tolist()
    loads = [0.0] * num_parts
    by_load = [(0.0, p) for p in range(num_parts)]  # a heap already
    min_load, min_part = 0.0, 0

    # -- dense loop: blocks of the leading high-degree positions ---------
    # ``key``: a placed vertex's part, ``num_parts`` for one not placed
    # yet, and ``num_parts + 1 + slot`` for the vertices of the current
    # block
    stride = num_parts + 1
    key = np.full(n, num_parts, dtype=np.int64)
    for b0 in range(0, dense_end, _BLOCK):
        block = order[b0 : min(b0 + _BLOCK, dense_end)]
        size = len(block)
        key[block] = np.arange(stride, stride + size)
        rows, nbrs = _gather_rows(csrs, block)
        keys = key[nbrs]
        # each row's neighbors per part placed before the block; block
        # vertices count as not placed yet (bucket ``num_parts``)
        counts = np.bincount(
            rows * stride + np.minimum(keys, num_parts),
            minlength=size * stride,
        ).reshape(size, stride)[:, :num_parts]
        # each row's arcs to block vertices streamed before its own
        inside = np.flatnonzero(keys > num_parts)
        early_rows, early_slots = rows[inside], keys[inside] - stride
        earlier = early_slots < early_rows
        early_slots, early_ends = _by_row(
            early_rows[earlier], early_slots[earlier], size, directed
        )
        ranked = np.argsort(-counts, axis=1, kind="stable")
        placed: list[int] = []
        start = 0
        for v, base, parts, end in zip(
            block.tolist(), counts.tolist(), ranked.tolist(), early_ends
        ):
            # parts of neighbors placed earlier in the block, with
            # their whole counts: scored by hand, skipped by the walk
            affinity: dict[int, int] = {}
            for s in early_slots[start:end]:
                p = placed[s]
                affinity[p] = affinity.get(p, base[p]) + 1
            start = end
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
            bound = 1.0 - min_load / capacity  # the largest penalty
            if bound > 0.0:
                for p in parts:
                    count = base[p]
                    if count == 0 or count * bound < best_score:
                        break
                    if p in affinity:
                        continue
                    load = loads[p]
                    penalty = 1.0 - load / capacity
                    if penalty <= 0.0:
                        continue
                    score = count * penalty
                    if score > best_score or (
                        score == best_score
                        and (load < best_load
                             or (load == best_load and p < best))
                    ):
                        best, best_score, best_load = p, score, load
            if best < 0:
                best = min_part
            placed.append(best)
            loads[best] += w[v]
            if best == min_part:
                min_load, min_part = _least_loaded(by_load, loads)
        key[block] = placed

    # -- sparse loop: chunks of the rest, earlier neighbors only ---------
    rank = np.empty(n, dtype=np.int64)
    rank[order] = np.arange(len(order))
    part = key.tolist()
    for c0 in range(dense_end, len(order), _CHUNK):
        chunk = order[c0 : c0 + _CHUNK]
        rows, nbrs = _gather_rows(csrs, chunk)
        earlier = rank[nbrs] < rows + c0
        nbrs, ends = _by_row(rows[earlier], nbrs[earlier], len(chunk), directed)
        start = 0
        for v, end in zip(chunk.tolist(), ends):
            affinity = {}
            for u in nbrs[start:end]:
                p = part[u]
                affinity[p] = affinity.get(p, 0) + 1
            start = end
            best, best_score, best_load = -1, 0.0, 0.0
            for p, count in affinity.items():
                load = loads[p]
                penalty = 1.0 - load / capacity
                if penalty <= 0.0:
                    continue
                score = count * penalty
                if score > best_score or (
                    score == best_score
                    and (load < best_load or (load == best_load and p < best))
                ):
                    best, best_score, best_load = p, score, load
            if best < 0:
                best = min_part
            part[v] = best
            loads[best] += w[v]
            if best == min_part:
                min_load, min_part = _least_loaded(by_load, loads)
    return np.array(part, dtype=np.int32)
