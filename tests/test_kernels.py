"""Compiled kernel tier: dispatch mechanics and bit-identity.

The contract of ``repro.kernels`` is *bit identity*: the compiled tier
must produce byte-for-byte the same arrays as the numpy reference tier
for every kernel, and therefore byte-identical ``WorkerStepCosts``,
``JobResult``s, and memo counters for every platform x algorithm pair.
The property tests here exercise the compiled loop bodies directly —
they are plain Python until numba jits them in place, so the loop
logic is testable (slowly) even on machines without numba, and the
same tests compare real jitted kernels on machines with it.
"""

import subprocess
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cluster.spec import das4_cluster
from repro.graph.builder import from_edges
from repro.graph.partition import greedy_partition, hash_partition
from repro.kernels import (
    BACKEND_CHOICES,
    ENV_VAR,
    KERNEL_DESCRIPTIONS,
    active_backend,
    backend_summary,
    compiled_tier_loaded,
    list_kernels,
    requested_backend,
    use_backend,
)
from repro.kernels import _compiled, _numpy
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


# -- per-kernel bit identity: numpy tier vs compiled tier ---------------------


@given(spec=edge_lists(), num_parts=st.integers(min_value=1, max_value=6))
@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_part_bincount_bit_identical(spec, num_parts):
    n, _, _ = spec
    rng = np.random.default_rng(n)
    parts = rng.integers(0, num_parts, size=n)
    weights = rng.random(n) * 10
    ref = _numpy.part_bincount(parts, weights, num_parts)
    got = _compiled.part_bincount(parts, weights, num_parts)
    # np.bincount accumulates float64 weights in element order; the
    # compiled loop does the same, so identity is exact, not approximate.
    assert _bytes_equal(ref, got)


@given(spec=edge_lists(), num_parts=st.integers(min_value=1, max_value=5))
@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_comm_degrees_bit_identical(spec, num_parts):
    g = _graph(spec)
    assign = hash_partition(g, num_parts).assignment
    ref_out, ref_in = _numpy.comm_degrees(
        g.out_indptr, g.out_indices, assign, g.directed
    )
    got_out, got_in = _compiled.comm_degrees(
        g.out_indptr, g.out_indices, assign, g.directed
    )
    assert _bytes_equal(ref_out, got_out)
    assert _bytes_equal(ref_in, got_in)


@given(spec=edge_lists(), num_parts=st.integers(min_value=1, max_value=5))
@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_cut_count_bit_identical(spec, num_parts):
    g = _graph(spec)
    assign = hash_partition(g, num_parts).assignment
    ref = _numpy.cut_count(g.out_indptr, g.out_indices, assign)
    got = _compiled.cut_count(g.out_indptr, g.out_indices, assign)
    assert int(ref) == int(got)


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
    ref = _numpy.gather_neighbors(g.out_indptr, g.out_indices, frontier)
    got = _compiled.gather_neighbors(g.out_indptr, g.out_indices, frontier)
    assert _bytes_equal(ref, got)
    ref_src, ref_dst = _numpy.gather_with_sources(
        g.out_indptr, g.out_indices, frontier
    )
    got_src, got_dst = _compiled.gather_with_sources(
        g.out_indptr, g.out_indices, frontier
    )
    assert _bytes_equal(ref_src, got_src)
    assert _bytes_equal(ref_dst, got_dst)


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
    ref = np.full(n, np.inf)
    got = ref.copy()
    _numpy.scatter_min(ref, idx, values)
    _compiled.scatter_min(got, idx, values)
    assert _bytes_equal(ref, got)


def _ldg_args(g, num_parts, slack=1.05):
    """The kernel arguments :func:`greedy_partition` builds for ``g``."""
    degree = np.asarray(g.degree(), dtype=np.int64)
    weight = np.maximum(degree, 1).astype(np.float64)
    capacity = slack * float(weight.sum()) / num_parts
    order = np.argsort(-degree, kind="stable")
    return (
        g.out_indptr, g.out_indices, g.in_indptr, g.in_indices,
        g.directed, order, weight, capacity, num_parts,
    )


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
    assert _bytes_equal(_numpy.ldg_assign(*args), _ldg_lexsort_oracle(*args))


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
    assert _bytes_equal(_numpy.ldg_assign(*args), expected)
    assert _bytes_equal(_compiled.ldg_assign(*args), expected)


@pytest.mark.parametrize("dataset", ["amazon", "kgs"])
@pytest.mark.parametrize("num_parts", [20, 50])
def test_ldg_assign_matches_lexsort_oracle_on_datasets(dataset, num_parts):
    from repro.datasets.registry import load_dataset

    args = _ldg_args(load_dataset(dataset, scale="tiny"), num_parts)
    assert _bytes_equal(_numpy.ldg_assign(*args), _ldg_lexsort_oracle(*args))


@given(spec=edge_lists(), num_parts=st.integers(min_value=1, max_value=40))
@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_ldg_assign_bit_identical(spec, num_parts):
    args = _ldg_args(_graph(spec), num_parts)
    # The loop replicates the lexsort tie-break exactly (max score,
    # then min load, then min part index), so assignments are equal —
    # not merely equally balanced.
    assert _bytes_equal(_numpy.ldg_assign(*args), _compiled.ldg_assign(*args))


# -- platform x algorithm bit identity through the dispatch layer -------------


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

    with use_backend("numpy"):
        ref, ref_stats = _run_all_platforms(algo_name, g, params)
    with use_backend("compiled"):
        got, got_stats = _run_all_platforms(algo_name, g, params)

    for name in PLATFORM_NAMES:
        assert ref[name] == got[name], name
    # Same memo behaviour too: the tiers may not change how often the
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

    with use_backend("numpy"):
        ref = charge()
    with use_backend("compiled"):
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
    with use_backend("numpy"):
        ref = greedy_partition(g, num_parts)
    with use_backend("compiled"):
        got = greedy_partition(g, num_parts)
    assert _bytes_equal(ref.assignment, got.assignment)
    assert ref.cut_edges() == got.cut_edges()


# -- dispatch layer mechanics -------------------------------------------------


class TestDispatch:
    def test_introspection_surface(self):
        assert requested_backend() in BACKEND_CHOICES
        assert active_backend() in ("numpy", "numba")
        assert isinstance(compiled_tier_loaded(), bool)
        assert (active_backend() == "numba") == compiled_tier_loaded()
        summary = backend_summary()
        assert active_backend() in summary

    def test_list_kernels_covers_every_dispatch_entry(self):
        listed = list_kernels()
        assert [name for name, _ in listed] == sorted(KERNEL_DESCRIPTIONS)
        for _, desc in listed:
            assert "[backend:" in desc

    def test_every_loop_exists_in_both_tiers(self):
        for name in KERNEL_DESCRIPTIONS:
            assert callable(getattr(_numpy, name))
            assert callable(getattr(_compiled, name))

    def test_use_backend_swaps_and_restores(self):
        before = active_backend()
        with use_backend("numpy"):
            assert active_backend() == "numpy"
        assert active_backend() == before

    def test_use_backend_rejects_unknown(self):
        with pytest.raises(ValueError, match="kernel tier"):
            with use_backend("fortran"):
                pass  # pragma: no cover

    def _spawn(self, env_value):
        env = {"PYTHONPATH": "src", ENV_VAR: env_value, "PATH": "/usr/bin:/bin"}
        return subprocess.run(
            [sys.executable, "-c",
             "from repro.kernels import active_backend; print(active_backend())"],
            capture_output=True, text=True, env=env, timeout=120,
        )

    def test_env_numpy_pins_fallback_tier(self):
        proc = self._spawn("numpy")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "numpy"

    def test_env_invalid_value_fails_import(self):
        proc = self._spawn("fortran")
        assert proc.returncode != 0
        assert ENV_VAR in proc.stderr

    def test_env_numba_without_numba_is_loud(self):
        import importlib.util

        if importlib.util.find_spec("numba") is not None:
            pytest.skip("numba installed: explicit request would succeed")
        proc = self._spawn("numba")
        assert proc.returncode != 0
        assert "perf" in proc.stderr  # points at the pip extra


def test_cli_list_kernels(capsys):
    from repro.cli import main

    assert main(["list", "kernels"]) == 0
    out = capsys.readouterr().out
    for name in KERNEL_DESCRIPTIONS:
        assert name in out
    assert "backend" in out
