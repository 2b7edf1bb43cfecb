"""Tests for the CSR Graph container and builder."""

import numpy as np
import pytest

from repro.graph.builder import empty_graph, from_edges, from_networkx
from repro.graph.graph import Graph


class TestBuilderDirected:
    def test_counts(self, tiny_directed):
        assert tiny_directed.num_vertices == 6
        assert tiny_directed.num_edges == 5
        assert tiny_directed.num_half_edges == 5

    def test_out_neighbors(self, tiny_directed):
        assert sorted(tiny_directed.neighbors(0).tolist()) == [1, 2]
        assert tiny_directed.neighbors(4).tolist() == []

    def test_in_neighbors(self, tiny_directed):
        assert sorted(tiny_directed.in_neighbors(3).tolist()) == [1, 2]
        assert tiny_directed.in_neighbors(0).tolist() == []

    def test_degrees(self, tiny_directed):
        assert tiny_directed.out_degree(0) == 2
        assert tiny_directed.in_degree(3) == 2
        assert tiny_directed.degree(3) == 3  # in 2 + out 1

    def test_degree_arrays(self, tiny_directed):
        out = np.asarray(tiny_directed.out_degree())
        assert out.tolist() == [2, 1, 1, 1, 0, 0]
        inn = np.asarray(tiny_directed.in_degree())
        assert inn.tolist() == [0, 1, 1, 2, 1, 0]

    def test_dedupe_directed(self):
        edges = np.array([[0, 1], [0, 1], [1, 0]])
        g = from_edges(2, edges, directed=True)
        assert g.num_edges == 2  # 0->1 deduped, 1->0 kept

    def test_self_loops_dropped_by_default(self):
        g = from_edges(3, np.array([[0, 0], [0, 1]]), directed=True)
        assert g.num_edges == 1

    def test_self_loops_kept_when_allowed_directed(self):
        g = from_edges(
            3, np.array([[0, 0], [0, 1]]), directed=True, allow_self_loops=True
        )
        assert g.num_edges == 2

    def test_edges_roundtrip(self, tiny_directed):
        e = tiny_directed.edges()
        rebuilt = from_edges(6, e, directed=True)
        assert rebuilt == tiny_directed


class TestBuilderUndirected:
    def test_counts(self, tiny_undirected):
        assert tiny_undirected.num_edges == 5
        assert tiny_undirected.num_half_edges == 10

    def test_symmetry(self, tiny_undirected):
        g = tiny_undirected
        for v in range(g.num_vertices):
            for w in g.neighbors(v):
                assert v in g.neighbors(int(w))

    def test_orientation_irrelevant(self):
        a = from_edges(3, np.array([[0, 1]]), directed=False)
        b = from_edges(3, np.array([[1, 0]]), directed=False)
        assert a == b

    def test_dedupe_both_orientations(self):
        g = from_edges(3, np.array([[0, 1], [1, 0], [0, 1]]), directed=False)
        assert g.num_edges == 1

    def test_in_is_out(self, tiny_undirected):
        g = tiny_undirected
        assert g.in_indptr is g.out_indptr
        assert g.in_indices is g.out_indices

    def test_undirected_self_loop_rejected(self):
        with pytest.raises(ValueError):
            from_edges(
                2, np.array([[0, 0]]), directed=False, allow_self_loops=True
            )

    def test_edges_each_once_canonical(self, tiny_undirected):
        e = tiny_undirected.edges()
        assert len(e) == 5
        assert np.all(e[:, 0] <= e[:, 1])


class TestValidation:
    def test_out_of_range_endpoint(self):
        with pytest.raises(ValueError):
            from_edges(2, np.array([[0, 5]]), directed=True)

    def test_negative_endpoint(self):
        with pytest.raises(ValueError):
            from_edges(2, np.array([[-1, 0]]), directed=True)

    def test_bad_shape(self):
        with pytest.raises(ValueError):
            from_edges(2, np.array([[0, 1, 2]]), directed=True)

    def test_directed_requires_in_csr(self):
        with pytest.raises(ValueError):
            Graph(
                2,
                np.array([0, 1, 1]),
                np.array([1]),
                directed=True,
            )

    def test_undirected_rejects_in_csr(self):
        with pytest.raises(ValueError):
            Graph(
                2,
                np.array([0, 1, 2]),
                np.array([1, 0]),
                directed=False,
                in_indptr=np.array([0, 1, 2]),
                in_indices=np.array([1, 0]),
            )

    def test_undirected_odd_half_edges_rejected(self):
        with pytest.raises(ValueError):
            Graph(2, np.array([0, 1, 1]), np.array([1]), directed=False)

    def test_indptr_length_checked(self):
        with pytest.raises(ValueError):
            Graph(3, np.array([0, 1]), np.array([1]), directed=False)

    def test_negative_num_vertices(self):
        with pytest.raises(ValueError):
            Graph(-1, np.array([0]), np.array([]), directed=False)


class TestConversions:
    def test_to_networkx_and_back(self, tiny_directed):
        nxg = tiny_directed.to_networkx()
        assert nxg.number_of_nodes() == 6
        assert nxg.number_of_edges() == 5
        back = from_networkx(nxg)
        assert back == tiny_directed

    def test_from_networkx_requires_contiguous_labels(self):
        import networkx as nx

        g = nx.Graph()
        g.add_edge(1, 5)
        with pytest.raises(ValueError):
            from_networkx(g)

    def test_to_scipy_shapes(self, tiny_directed):
        adj = tiny_directed.to_scipy("out")
        assert adj.shape == (6, 6)
        assert adj.nnz == 5
        adj_in = tiny_directed.to_scipy("in")
        assert adj_in.nnz == 5
        assert (adj.T != adj_in).nnz == 0

    def test_to_scipy_bad_direction(self, tiny_directed):
        with pytest.raises(ValueError):
            tiny_directed.to_scipy("sideways")

    def test_reverse_view(self, tiny_directed):
        rev = tiny_directed.reverse_view()
        assert sorted(rev.neighbors(3).tolist()) == [1, 2]
        assert rev.reverse_view().neighbors(0).tolist() == \
            tiny_directed.neighbors(0).tolist()

    def test_reverse_of_undirected_is_self(self, tiny_undirected):
        assert tiny_undirected.reverse_view() is tiny_undirected

    def test_as_undirected(self, tiny_directed):
        und = tiny_directed.as_undirected()
        assert not und.directed
        assert und.num_edges == 5  # no reciprocal pairs in the fixture

    def test_as_undirected_merges_reciprocal(self):
        g = from_edges(2, np.array([[0, 1], [1, 0]]), directed=True)
        assert g.as_undirected().num_edges == 1


class TestMisc:
    def test_empty_graph(self):
        g = empty_graph(5, directed=True)
        assert g.num_edges == 0
        assert g.neighbors(0).tolist() == []

    def test_zero_vertex_graph(self):
        g = empty_graph(0, directed=False)
        assert g.num_vertices == 0

    def test_nbytes_positive(self, tiny_undirected):
        assert tiny_undirected.nbytes > 0

    def test_text_size_reasonable(self, tiny_undirected):
        from repro.graph.io import graph_to_text

        est = tiny_undirected.text_size_bytes()
        actual = len(graph_to_text(tiny_undirected).split("\n", 1)[1])
        # estimate ignores the header; should be within 2x of reality
        assert 0.5 * actual <= est <= 2.0 * actual

    @pytest.mark.parametrize("directed", [False, True])
    @pytest.mark.parametrize("with_edges", [False, True])
    def test_text_size_memo(self, monkeypatch, directed, with_edges):
        edges = np.array([[0, 1], [1, 2], [0, 2], [2, 3], [3, 40], [9, 99]])
        g = from_edges(120, edges if with_edges else np.empty((0, 2)),
                       directed=directed)

        def digits(values):
            return sum(len(str(int(x))) for x in values)

        # The uncached formula: digits of every id occurrence, one
        # separator per adjacency entry and per adjacency row, and a
        # newline per vertex (directed graphs list in- and out-rows).
        rows = 2 if directed else 1
        expected = (
            digits(range(g.num_vertices))
            + digits(g.out_indices)
            + (digits(g.in_indices) if directed else 0)
            + rows * g.num_half_edges
            + (rows + 1) * g.num_vertices
        )
        calls = []
        log10 = np.log10
        monkeypatch.setattr(
            np, "log10", lambda *a, **k: calls.append(1) or log10(*a, **k)
        )
        assert g.text_size_bytes() == expected
        computed = len(calls)
        assert computed > 0
        assert g.text_size_bytes() == expected
        assert len(calls) == computed  # second call is memoized
        assert not hasattr(g, "__dict__")

    def test_repr_contains_counts(self, tiny_directed):
        assert "|V|=6" in repr(tiny_directed)

    def test_equality_vs_other_type(self, tiny_directed):
        assert tiny_directed != 42

    def test_neighbors_are_views(self, tiny_directed):
        nbrs = tiny_directed.neighbors(0)
        assert nbrs.base is tiny_directed.out_indices

    def test_neighbor_lists_sorted(self, random_graph):
        g = random_graph
        for v in range(0, g.num_vertices, 17):
            nbrs = g.neighbors(v)
            assert np.all(np.diff(nbrs) > 0)
