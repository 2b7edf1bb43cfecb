"""Tests for CONN (connected components by min-label propagation)."""

import networkx as nx
import pytest

from repro.algorithms import get_algorithm
from repro.algorithms.conn import ConnProgram
from repro.core import references
from repro.core.workloads import validate_equivalence
from repro.graph.builder import empty_graph, from_edges


class TestConnProgram:
    def test_two_components(self, tiny_undirected):
        prog = ConnProgram(tiny_undirected)
        for _ in prog:
            pass
        assert prog.result().tolist() == [0, 0, 0, 0, 0, 5]

    def test_directed_weak_components(self, tiny_directed):
        prog = ConnProgram(tiny_directed)
        for _ in prog:
            pass
        assert prog.result().tolist() == [0, 0, 0, 0, 0, 5]

    def test_matches_reference(self, random_graph):
        prog = ConnProgram(random_graph)
        for _ in prog:
            pass
        assert validate_equivalence(references.wcc(random_graph), prog.result())

    def test_matches_networkx(self, random_digraph):
        prog = ConnProgram(random_digraph)
        for _ in prog:
            pass
        labels = prog.result()
        for comp in nx.weakly_connected_components(random_digraph.to_networkx()):
            assert {int(labels[v]) for v in comp} == {min(comp)}

    def test_labels_are_component_minimum(self, random_graph):
        prog = ConnProgram(random_graph)
        for _ in prog:
            pass
        labels = prog.result()
        for v in range(random_graph.num_vertices):
            assert labels[v] <= v

    def test_iteration_count_path(self, path_graph):
        """Label 0 walks one hop per superstep down the path."""
        prog = ConnProgram(path_graph)
        n = sum(1 for _ in prog)
        # 9 propagation steps + 1 quiescent detection step; the first
        # superstep already moves labels, so total is ~10
        assert 9 <= n <= 11

    def test_activity_shrinks(self, random_graph):
        prog = ConnProgram(random_graph)
        actives = [r.num_active(random_graph.num_vertices) for r in prog]
        assert actives[0] == random_graph.num_vertices
        assert actives[-1] < actives[0]

    def test_empty_graph(self):
        g = empty_graph(3, directed=False)
        prog = ConnProgram(g)
        reports = list(prog)
        assert reports[-1].halted
        assert prog.result().tolist() == [0, 1, 2]

    def test_output_bytes_larger_than_bfs(self, random_graph):
        """CONN 'produces a large amount of output' (Section 2.2.2)."""
        from repro.algorithms.bfs import BfsProgram

        conn = ConnProgram(random_graph)
        bfs = BfsProgram(random_graph, 0)
        assert conn.output_bytes() > bfs.output_bytes()

    def test_run_reference_coverage_is_full(self, random_graph):
        res = get_algorithm("conn").run_reference(random_graph)
        assert res.coverage == 1.0

    def test_direction_flag(self, tiny_directed, tiny_undirected):
        report_d = ConnProgram(tiny_directed).step()
        report_u = ConnProgram(tiny_undirected).step()
        assert report_d.direction == "both"
        assert report_u.direction == "out"
