"""Tests for the extension algorithms (PageRank, SSSP, triangles,
diameter, MIS, sampling)."""

import networkx as nx
import numpy as np
import pytest

import repro.algorithms.extensions as ext
from repro.algorithms.base import get_algorithm
from repro.core import references
from repro.platforms import get_platform

EXTENSION_NAMES = ("pagerank", "sssp", "triangles", "diameter", "mis", "sampling")


class TestRegistration:
    @pytest.mark.parametrize("name", EXTENSION_NAMES)
    def test_registered(self, name):
        assert get_algorithm(name).name == name

    def test_combinable_flags(self):
        assert get_algorithm("pagerank").combinable
        assert get_algorithm("sssp").combinable
        assert not get_algorithm("triangles").combinable


class TestPageRank:
    def test_matches_networkx(self, random_graph):
        ours = references.pagerank(random_graph, iterations=60)
        theirs = nx.pagerank(random_graph.to_networkx(), alpha=0.85)
        vec = np.array([theirs[v] for v in range(random_graph.num_vertices)])
        assert np.corrcoef(ours, vec)[0, 1] > 0.999

    def test_sums_to_one(self, random_digraph):
        ours = references.pagerank(random_digraph, iterations=60)
        assert ours.sum() == pytest.approx(1.0, abs=1e-6)

    def test_program_matches_reference(self, random_graph):
        prog = ext.pagerank.PageRankProgram(random_graph, iterations=15)
        for _ in prog:
            pass
        ref = references.pagerank(random_graph, iterations=15)
        assert np.allclose(prog.result(), ref)

    def test_converges_early_with_tolerance(self, path_graph):
        prog = ext.pagerank.PageRankProgram(
            path_graph, iterations=500, tolerance=1e-12
        )
        n = sum(1 for _ in prog)
        assert n < 500

    def test_dangling_mass_redistributed(self, tiny_directed):
        ours = references.pagerank(tiny_directed, iterations=80)
        assert ours.sum() == pytest.approx(1.0, abs=1e-6)


class TestSssp:
    def test_matches_dijkstra(self, random_digraph):
        prog = get_algorithm("sssp").program(random_digraph, source=3)
        for _ in prog:
            pass
        ref = references.sssp(random_digraph, source=3)
        assert np.allclose(prog.result(), ref)

    def test_undirected(self, random_graph):
        prog = get_algorithm("sssp").program(random_graph, source=0)
        for _ in prog:
            pass
        ref = references.sssp(random_graph, source=0)
        assert np.allclose(prog.result(), ref)

    def test_unreached_is_inf(self, tiny_undirected):
        prog = get_algorithm("sssp").program(tiny_undirected, source=0)
        for _ in prog:
            pass
        assert np.isinf(prog.result()[5])

    def test_source_distance_zero(self, random_graph):
        prog = get_algorithm("sssp").program(random_graph, source=7)
        for _ in prog:
            pass
        assert prog.result()[7] == 0.0

    def test_weights_deterministic(self):
        a = ext.sssp.edge_weights(np.array([1, 2]), np.array([3, 4]))
        b = ext.sssp.edge_weights(np.array([1, 2]), np.array([3, 4]))
        assert np.array_equal(a, b)
        assert np.all(a >= 1)

    def test_bad_source(self, path_graph):
        with pytest.raises(ValueError):
            get_algorithm("sssp").program(path_graph, source=99)


class TestTriangles:
    def test_matches_networkx(self, random_graph):
        ours = ext.triangle_count(random_graph)
        theirs = sum(nx.triangles(random_graph.to_networkx()).values()) // 3
        assert ours == theirs

    def test_triangle_graph(self):
        from repro.graph.builder import from_edges

        g = from_edges(3, np.array([[0, 1], [1, 2], [0, 2]]), directed=False)
        assert ext.triangle_count(g) == 1

    def test_triangle_free(self, path_graph):
        assert ext.triangle_count(path_graph) == 0

    def test_program_two_supersteps(self, random_graph):
        prog = get_algorithm("triangles").program(random_graph)
        reports = list(prog)
        assert len(reports) == 2
        assert prog.result() == ext.triangle_count(random_graph)

    def test_messages_lighter_than_stats(self, random_graph):
        tri = get_algorithm("triangles").run_reference(random_graph)
        stats = get_algorithm("stats").run_reference(random_graph)
        assert tri.total_message_bytes < stats.total_message_bytes


class TestDiameter:
    def test_path_graph_exact(self, path_graph):
        assert ext.estimate_diameter(path_graph, seed_vertex=4) == 9

    def test_lower_bound_property(self, random_graph):
        est = ext.estimate_diameter(random_graph, seed_vertex=0)
        nxg = random_graph.to_networkx()
        biggest = max(nx.connected_components(nxg), key=len)
        true = nx.diameter(nxg.subgraph(biggest))
        assert est <= true
        assert est >= max(true // 2, 1)  # double sweep is at least half

    def test_program_result_matches_reference(self, random_graph):
        prog = get_algorithm("diameter").program(random_graph, seed_vertex=0)
        for _ in prog:
            pass
        assert prog.result() == ext.estimate_diameter(random_graph, seed_vertex=0)

    def test_program_runs_two_sweeps(self, path_graph):
        prog = get_algorithm("diameter").program(path_graph, seed_vertex=0)
        n = sum(1 for _ in prog)
        # two BFS sweeps back to back
        assert n >= 12


class TestMis:
    def test_independence(self, random_graph):
        mis = ext.maximal_independent_set(random_graph)
        for u, v in random_graph.to_networkx().edges():
            assert not (mis[u] and mis[v])

    def test_maximality(self, random_graph):
        mis = ext.maximal_independent_set(random_graph)
        for v in range(random_graph.num_vertices):
            if not mis[v]:
                nbrs = random_graph.neighbors(v)
                assert len(nbrs) == 0 or mis[nbrs].any()

    def test_isolated_vertices_in_set(self, tiny_undirected):
        mis = ext.maximal_independent_set(tiny_undirected)
        assert mis[5]

    def test_deterministic(self, random_graph):
        a = ext.maximal_independent_set(random_graph, seed=3)
        b = ext.maximal_independent_set(random_graph, seed=3)
        assert np.array_equal(a, b)

    def test_directed_uses_skeleton(self, random_digraph):
        mis = ext.maximal_independent_set(random_digraph)
        und = random_digraph.as_undirected()
        for u, v in und.to_networkx().edges():
            assert not (mis[u] and mis[v])

    def test_few_rounds(self, random_graph):
        prog = get_algorithm("mis").program(random_graph)
        n = sum(1 for _ in prog)
        assert n <= 20  # Luby: expected O(log n)


class TestSampling:
    def test_visited_set_reasonable(self, random_graph):
        s = ext.random_walk_sample(random_graph, num_walkers=32, steps=15)
        assert 32 <= int(s.sum()) <= random_graph.num_vertices

    def test_deterministic(self, random_graph):
        a = ext.random_walk_sample(random_graph, seed=5)
        b = ext.random_walk_sample(random_graph, seed=5)
        assert np.array_equal(a, b)

    def test_fixed_step_count(self, random_graph):
        prog = get_algorithm("sampling").program(random_graph, steps=7)
        assert sum(1 for _ in prog) == 7

    def test_empty_graph_rejected(self):
        from repro.graph.builder import empty_graph

        with pytest.raises(ValueError):
            get_algorithm("sampling").program(empty_graph(0, directed=False))


@pytest.mark.parametrize("name", EXTENSION_NAMES)
@pytest.mark.parametrize("platform", ["hadoop", "stratosphere", "giraph", "neo4j"])
class TestOnPlatforms:
    def test_runs_and_times_positive(self, name, platform, random_graph,
                                     small_cluster):
        r = get_platform(platform).run(name, random_graph, small_cluster)
        assert r.execution_time > 0
        assert r.supersteps >= 1


def test_paper_platform_ordering_holds_on_kgs():
    """Every extension completes on KGS on four platforms, and Hadoop
    stays slower than Giraph and Stratosphere, as for the paper's five
    algorithms."""
    from repro.core.results import RunStatus
    from repro.core.runner import Runner
    from repro.core.spec import SweepSpec

    platforms = ("hadoop", "stratosphere", "giraph", "graphlab")
    exp = Runner().run_grid(SweepSpec.make(
        "extensions", platforms=platforms, algorithms=EXTENSION_NAMES,
        datasets=("kgs",),
    ))
    for algo in EXTENSION_NAMES:
        recs = {p: exp.get(p, algo, "kgs") for p in platforms}
        for plat, rec in recs.items():
            assert rec.status is RunStatus.OK, (plat, algo)
        assert recs["hadoop"].execution_time > recs["giraph"].execution_time
        assert (recs["hadoop"].execution_time
                > recs["stratosphere"].execution_time)
