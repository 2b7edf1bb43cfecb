"""Superstep kernels against independent loop oracles.

Every kernel in :mod:`repro.kernels.dispatch` is a vectorized numpy
computation (LDG is a sparse scalar loop over neighbor parts).  Each is
checked here against a test-local oracle that shares no code with it:
a plain element loop for the six array kernels, and the elementwise
``lexsort`` formulation for LDG.  The contract is *bit identity*, not
approximate equality: integer kernels are exact, and the float kernels
add the same float64 terms in the same element order as the loops.

Swapped in for every bound kernel at once, the oracles also form a
second kernel backend, so whole platform runs, step costs and LDG
partitions must come out byte-identical on either backend.
"""

import contextlib
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cluster.spec import das4_cluster
from repro.graph.builder import from_edges
from repro.graph.partition import greedy_partition, hash_partition
from repro.kernels import dispatch
from repro.platforms.base import PartitionContext
from repro.platforms.registry import (
    PLATFORM_NAMES,
    clear_context_caches,
    context_memo_stats,
    get_platform,
)
from repro.platforms.scale import ScaleModel

TRAVERSAL_ALGORITHMS = ("bfs", "conn", "sssp")


@st.composite
def edge_lists(draw, max_vertices=24, max_edges=70, min_edges=1,
               max_isolated=0):
    """``(n, edges, directed)``; up to ``max_isolated`` trailing vertices
    get no edges."""
    n = draw(st.integers(min_value=2, max_value=max_vertices))
    m = draw(st.integers(min_value=min_edges, max_value=max_edges))
    edges = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=n - 1),
                st.integers(min_value=0, max_value=n - 1),
            ),
            min_size=m,
            max_size=m,
        )
    )
    directed = draw(st.booleans())
    n += draw(st.integers(min_value=0, max_value=max_isolated))
    return n, np.array(edges, dtype=np.int64).reshape(-1, 2), directed


def _graph(spec, name="hyp"):
    n, edges, directed = spec
    return from_edges(n, edges, directed=directed, name=name)


def _bytes_equal(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


# -- the loop oracles ----------------------------------------------------------


def _part_bincount_oracle(parts, weights, num_parts):
    out = np.zeros(int(num_parts), dtype=np.float64)
    for p, w in zip(parts.tolist(), np.asarray(weights, np.float64).tolist()):
        out[p] += w
    return out


def _comm_degrees_oracle(indptr, indices, assign, directed):
    n = len(indptr) - 1
    remote_out = np.zeros(n, dtype=np.int64)
    remote_in = np.zeros(n, dtype=np.int64)
    for u in range(n):
        for v in indices[indptr[u] : indptr[u + 1]].tolist():
            if assign[v] != assign[u]:
                remote_out[u] += 1
                remote_in[v] += 1
    return remote_out, remote_in


def _cut_count_oracle(indptr, indices, assign):
    n = len(indptr) - 1
    return sum(
        1
        for u in range(n)
        for v in indices[indptr[u] : indptr[u + 1]].tolist()
        if assign[v] != assign[u]
    )


def _gather_with_sources_oracle(indptr, indices, vertices):
    srcs, nbrs = [], []
    for v in np.asarray(vertices).tolist():
        for e in range(indptr[v], indptr[v + 1]):
            srcs.append(v)
            nbrs.append(indices[e])
    return np.array(srcs, dtype=np.int64), np.array(nbrs, dtype=indices.dtype)


def _gather_neighbors_oracle(indptr, indices, vertices):
    return _gather_with_sources_oracle(indptr, indices, vertices)[1]


def _scatter_min_oracle(target, idx, values):
    for j, value in zip(idx.tolist(), values.tolist()):
        if value < target[j]:
            target[j] = value


def _ldg_lexsort_oracle(
    indptr, indices, in_indptr, in_indices, directed, order, weight,
    capacity, num_parts,
):
    """The elementwise LDG formulation: score every part with numpy and
    pick ``lexsort((part, load, -score))[0]``."""
    n = len(indptr) - 1
    assignment = np.full(n, -1, dtype=np.int32)
    loads = np.zeros(num_parts, dtype=np.float64)
    part_range = np.arange(num_parts)
    for v in order:
        nbrs = indices[indptr[v] : indptr[v + 1]]
        if directed:
            nbrs = np.concatenate(
                [nbrs, in_indices[in_indptr[v] : in_indptr[v + 1]]]
            )
        placed = assignment[nbrs]
        placed = placed[placed >= 0]
        affinity = np.bincount(placed, minlength=num_parts).astype(np.float64)
        penalty = 1.0 - loads / capacity
        score = affinity * np.maximum(penalty, 0.0)
        best = part_range[np.lexsort((part_range, loads, -score))][0]
        assignment[v] = best
        loads[best] += weight[v]
    return assignment


ORACLES = {
    "part_bincount": _part_bincount_oracle,
    "comm_degrees": _comm_degrees_oracle,
    "cut_count": _cut_count_oracle,
    "gather_neighbors": _gather_neighbors_oracle,
    "gather_with_sources": _gather_with_sources_oracle,
    "scatter_min": _scatter_min_oracle,
    "ldg_assign": _ldg_lexsort_oracle,
}


def test_every_kernel_has_an_oracle():
    kernels = {name for name in dispatch.__all__ if name != "active_backend"}
    assert kernels == set(ORACLES)


@contextlib.contextmanager
def oracle_backend():
    """Rebind every ``repro`` binding of a kernel to its oracle."""
    swapped = []
    for name, oracle in ORACLES.items():
        kernel = getattr(dispatch, name)
        for mod_name, module in list(sys.modules.items()):
            if module is None or not mod_name.startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                if value is kernel:
                    setattr(module, attr, oracle)
                    swapped.append((module, attr, kernel))
    try:
        yield
    finally:
        for module, attr, kernel in swapped:
            setattr(module, attr, kernel)


# -- per-kernel bit identity: numpy kernel vs loop oracle ---------------------


@given(spec=edge_lists(), num_parts=st.integers(min_value=1, max_value=6))
@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_part_bincount_bit_identical(spec, num_parts):
    n, _, _ = spec
    rng = np.random.default_rng(n)
    parts = rng.integers(0, num_parts, size=n)
    weights = rng.random(n) * 10
    # np.bincount accumulates float64 weights in element order; the
    # oracle loop does the same, so identity is exact, not approximate.
    assert _bytes_equal(
        dispatch.part_bincount(parts, weights, num_parts),
        _part_bincount_oracle(parts, weights, num_parts),
    )


@given(spec=edge_lists(), num_parts=st.integers(min_value=1, max_value=5))
@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_comm_degrees_bit_identical(spec, num_parts):
    g = _graph(spec)
    assign = hash_partition(g, num_parts).assignment
    got_out, got_in = dispatch.comm_degrees(
        g.out_indptr, g.out_indices, assign, g.directed
    )
    # The oracle counts remote in-arcs even on undirected graphs, whose
    # symmetric out-CSR makes them equal to the out counts the kernel
    # returns twice.
    ref_out, ref_in = _comm_degrees_oracle(
        g.out_indptr, g.out_indices, assign, g.directed
    )
    assert _bytes_equal(got_out, ref_out)
    assert _bytes_equal(got_in, ref_in)


@given(spec=edge_lists(), num_parts=st.integers(min_value=1, max_value=5))
@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_cut_count_bit_identical(spec, num_parts):
    g = _graph(spec)
    assign = hash_partition(g, num_parts).assignment
    got = dispatch.cut_count(g.out_indptr, g.out_indices, assign)
    assert type(got) is int
    assert got == _cut_count_oracle(g.out_indptr, g.out_indices, assign)


@given(spec=edge_lists(), data=st.data())
@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_gather_kernels_bit_identical(spec, data):
    g = _graph(spec)
    k = data.draw(st.integers(min_value=0, max_value=g.num_vertices))
    frontier = np.sort(
        data.draw(
            st.permutations(range(g.num_vertices))
        )[:k]
    ).astype(np.int64)
    args = (g.out_indptr, g.out_indices, frontier)
    assert _bytes_equal(
        dispatch.gather_neighbors(*args), _gather_neighbors_oracle(*args)
    )
    got_src, got_dst = dispatch.gather_with_sources(*args)
    ref_src, ref_dst = _gather_with_sources_oracle(*args)
    assert _bytes_equal(got_src, ref_src)
    assert _bytes_equal(got_dst, ref_dst)


@given(
    n=st.integers(min_value=1, max_value=40),
    m=st.integers(min_value=0, max_value=120),
)
@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_scatter_min_bit_identical(n, m):
    rng = np.random.default_rng(n * 1000 + m)
    idx = rng.integers(0, n, size=m)
    values = rng.random(m) * 8
    got = np.full(n, np.inf)
    ref = got.copy()
    dispatch.scatter_min(got, idx, values)
    _scatter_min_oracle(ref, idx, values)
    assert _bytes_equal(got, ref)


def _ldg_args(g, num_parts, slack=1.05, order=None):
    """The kernel arguments :func:`greedy_partition` builds for ``g``
    (streaming in ``order`` when given)."""
    degree = np.asarray(g.degree(), dtype=np.int64)
    weight = np.maximum(degree, 1).astype(np.float64)
    capacity = slack * float(weight.sum()) / num_parts
    if order is None:
        order = np.argsort(-degree, kind="stable")
    return (
        g.out_indptr, g.out_indices, g.in_indptr, g.in_indices,
        g.directed, order, weight, capacity, num_parts,
    )


@given(
    spec=edge_lists(max_vertices=30, max_edges=90, min_edges=0,
                    max_isolated=6),
    num_parts=st.integers(min_value=1, max_value=64),
    slack=st.sampled_from([0.5, 1.05, 4.0]),
)
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_ldg_assign_matches_lexsort_oracle(spec, num_parts, slack):
    # slack 0.5 saturates parts (penalty <= 0, score 0 despite placed
    # neighbors) and sends vertices to the least-loaded fallback;
    # num_parts above the vertex count leaves parts empty.
    args = _ldg_args(_graph(spec), num_parts, slack)
    assert _bytes_equal(dispatch.ldg_assign(*args), _ldg_lexsort_oracle(*args))


@pytest.mark.parametrize("neighbor_order", [(0, 1, 2), (2, 1, 0)])
def test_ldg_assign_score_tie_goes_to_least_loaded(neighbor_order):
    # Vertices 0 and 1 open parts 0 and 1, vertex 2 follows its
    # neighbor 1, so vertex 3 scores 1 * (1 - 4/8) on part 0 and
    # 2 * (1 - 6/8) on part 1: an exact tie the lighter part 0 wins.
    # Hand-built undirected CSR, so the row of vertex 3 meets the two
    # tied parts in either order.
    indptr = np.array([0, 1, 3, 5, 8], dtype=np.int64)
    indices = np.array([3, 2, 3, 1, 3, *neighbor_order], dtype=np.int32)
    args = (
        indptr, indices, indptr, indices, False,
        np.arange(4), np.array([4.0, 3.0, 3.0, 1.0]), 8.0, 2,
    )
    expected = np.array([0, 1, 1, 0], dtype=np.int32)
    assert _bytes_equal(_ldg_lexsort_oracle(*args), expected)
    assert _bytes_equal(dispatch.ldg_assign(*args), expected)


@st.composite
def dense_graphs(draw):
    """A graph of 40+ vertices, most with (out+in) degree well above
    ``dispatch._DENSE_DEGREE``, a few sparse ones, reciprocal arcs,
    multi-arcs and (directed only: undirected CSR has none) self-loops;
    with an arbitrary stream order, or one with the dense vertices
    first."""
    n = draw(st.integers(min_value=40, max_value=150))
    directed = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    arcs = rng.integers(0, n, size=(n * draw(st.integers(24, 40)), 2))
    tail = draw(st.integers(min_value=0, max_value=5))  # sparse vertices
    edges = np.concatenate([
        arcs,
        arcs[: len(arcs) // 8, ::-1],  # reciprocal arcs
        arcs[: len(arcs) // 16],  # multi-arcs
        np.repeat(rng.integers(0, n, size=(4, 1)), 2, axis=1),  # loops
        np.column_stack([
            rng.integers(0, n, size=3 * tail),
            np.repeat(np.arange(n, n + tail), 3),
        ]),
    ])
    g = from_edges(
        n + tail, edges, directed=directed, dedupe=False,
        allow_self_loops=directed, name="dense",
    )
    order = np.array(draw(st.permutations(range(n + tail))))
    if draw(st.booleans()):
        # dense vertices first: the block path runs over 64 positions
        degree = g.out_degree() + (g.in_degree() if directed else 0)
        sparse = degree[order] < dispatch._DENSE_DEGREE
        order = order[np.argsort(sparse, kind="stable")]
    return g, order


@given(
    graph_order=dense_graphs(),
    num_parts=st.integers(min_value=1, max_value=64),
    slack=st.sampled_from([0.5, 1.05, 4.0]),
    unit_weights=st.booleans(),
)
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_ldg_assign_block_path_matches_lexsort_oracle(
    graph_order, num_parts, slack, unit_weights
):
    # Leading dense positions go in blocks of dispatch._BLOCK (past 64
    # of them, later blocks read the parts of earlier ones); the rest,
    # dense ones included, go through the sparse loop.  Unit weights
    # make equal loads, hence exact score ties, common.
    g, order = graph_order
    args = _ldg_args(g, num_parts, slack, order=order)
    if unit_weights:
        n = g.num_vertices
        args = (*args[:6], np.ones(n), slack * n / num_parts, num_parts)
    assert _bytes_equal(dispatch.ldg_assign(*args), _ldg_lexsort_oracle(*args))


@pytest.mark.parametrize(
    "x3_weight, t_neighbors, t_part",
    [
        # loads 8 and 4: t scores 3 * (1 - 8/16) on part 0 and (1 + 1)
        # * (1 - 4/16) on part 1, a tie the lighter part 1 wins only if
        # t counts u
        (4.0, (0, 1, 2, 3, "u"), 1),
        # loads 4 and 4: 2 * (1 - 4/16) on either part, a tie part 0
        # wins; u's part 1 is scored first, so the walk must not prune
        # part 0 at a score equal to the best
        (0.0, (0, 1, 2, "u"), 0),
    ],
    ids=["tie-made-by-u", "tie-at-the-prune"],
)
def test_ldg_assign_in_block_neighbor_decides_a_score_tie(
    x3_weight, t_neighbors, t_part
):
    # Every vertex gets _DENSE_DEGREE multi-edges to a filler vertex
    # streamed last, so all positions are dense and the filler adds no
    # affinity.  Block 1: x1 opens part 0 and y part 1 (no placed
    # neighbors), x2 and x3 follow their neighbor x1, zero-weight
    # padding fills the block.  Block 2: u follows its neighbor y, then
    # t, whose neighbor u was placed earlier in t's own block.
    block, dense = dispatch._BLOCK, dispatch._DENSE_DEGREE
    x1, y, x2, x3 = range(4)
    u, t, filler = block, block + 1, block + 2
    weight = np.zeros(filler + 1)
    weight[[x1, y, x2, x3, u]] = [2.0, 1.0, 2.0, x3_weight, 3.0]
    neighbors = [u if v == "u" else v for v in t_neighbors]
    edges = [(x1, x2), (x1, x3), (y, u)] + [(v, t) for v in neighbors]
    edges += [(v, filler) for v in range(filler) for _ in range(dense)]
    g = from_edges(filler + 1, edges, directed=False, dedupe=False)
    args = (
        g.out_indptr, g.out_indices, g.in_indptr, g.in_indices, False,
        np.arange(filler + 1), weight, 16.0, 2,
    )
    expected = _ldg_lexsort_oracle(*args)
    assert expected[[x1, y, x2, x3, u, t]].tolist() == [0, 1, 0, 0, 1, t_part]
    assert _bytes_equal(dispatch.ldg_assign(*args), expected)


@pytest.mark.parametrize("dataset", ["amazon", "citation", "dotaleague", "kgs"])
@pytest.mark.parametrize("num_parts", [20, 50])
def test_ldg_assign_matches_lexsort_oracle_on_datasets(dataset, num_parts):
    from repro.datasets.registry import load_dataset

    args = _ldg_args(load_dataset(dataset, scale="tiny"), num_parts)
    assert _bytes_equal(dispatch.ldg_assign(*args), _ldg_lexsort_oracle(*args))


# -- platform x algorithm bit identity: numpy kernels vs oracle backend -------


def _run_all_platforms(algo_name, g, params):
    clear_context_caches()
    cluster = das4_cluster()
    results = {}
    for name in PLATFORM_NAMES:
        job = get_platform(name).run(algo_name, g, cluster, **params)
        results[name] = (job.execution_time, job.breakdown, job.supersteps)
    return results, context_memo_stats()


@pytest.mark.parametrize("algo_name", TRAVERSAL_ALGORITHMS)
@given(spec=edge_lists())
@settings(max_examples=5, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_platform_results_identical_across_backends(algo_name, spec):
    from repro.algorithms.base import get_algorithm

    g = _graph(spec)
    algo = get_algorithm(algo_name)
    params = algo.default_params(g)

    ref, ref_stats = _run_all_platforms(algo_name, g, params)
    with oracle_backend():
        got, got_stats = _run_all_platforms(algo_name, g, params)

    for name in PLATFORM_NAMES:
        assert ref[name] == got[name], name
    # Same memo behaviour too: the kernels may not change how often the
    # context/step caches hit.
    assert ref_stats == got_stats


@pytest.mark.parametrize("algo_name", TRAVERSAL_ALGORITHMS)
@given(spec=edge_lists())
@settings(max_examples=5, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_step_costs_identical_across_backends(algo_name, spec):
    from repro.algorithms.base import get_algorithm, record_trace

    g = _graph(spec)
    algo = get_algorithm(algo_name)
    params = algo.default_params(g)
    trace = record_trace(algo.program(g, **params), g, algorithm=algo_name)

    def charge():
        ctx = PartitionContext(g, hash_partition(g, 4), ScaleModel())
        return [ctx.step_costs(rep) for rep in trace.reports]

    ref = charge()
    with oracle_backend():
        got = charge()
    for rc, gc in zip(ref, got):
        assert _bytes_equal(rc.compute_edges, gc.compute_edges)
        assert _bytes_equal(rc.messages, gc.messages)
        assert _bytes_equal(rc.sent_bytes, gc.sent_bytes)
        assert _bytes_equal(rc.remote_sent_bytes, gc.remote_sent_bytes)
        assert _bytes_equal(rc.received_bytes, gc.received_bytes)


@given(spec=edge_lists(), num_parts=st.integers(min_value=1, max_value=5))
@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_greedy_partition_identical_across_backends(spec, num_parts):
    g = _graph(spec)
    ref = greedy_partition(g, num_parts)
    with oracle_backend():
        got = greedy_partition(g, num_parts)
        got_cut = got.cut_edges()
    assert _bytes_equal(ref.assignment, got.assignment)
    assert ref.cut_edges() == got_cut
