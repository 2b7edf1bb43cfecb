"""Tests for the synthetic graph generators."""

import numpy as np
import pytest

from repro.graph.generators import (
    citation_dag,
    erdos_renyi,
    graph500_kronecker,
    hub_graph,
    planted_partition,
    preferential_attachment,
    rmat_edges,
)


class TestKronecker:
    def test_vertex_count_power_of_two(self):
        g = graph500_kronecker(8, 8, seed=1)
        assert g.num_vertices == 256

    def test_edge_factor_respected_approximately(self):
        g = graph500_kronecker(10, 16, seed=2)
        # dedupe and self-loop removal lose some edges
        assert 0.5 * 16 * 1024 <= g.num_edges <= 16 * 1024

    def test_deterministic(self):
        a = graph500_kronecker(8, 8, seed=5)
        b = graph500_kronecker(8, 8, seed=5)
        assert a == b

    def test_seed_changes_graph(self):
        a = graph500_kronecker(8, 8, seed=5)
        b = graph500_kronecker(8, 8, seed=6)
        assert a != b

    def test_degree_skew(self):
        """Kronecker graphs are heavy-tailed: max degree >> mean."""
        g = graph500_kronecker(11, 16, seed=3)
        deg = np.asarray(g.degree())
        assert deg.max() > 8 * deg.mean()

    def test_rmat_raw_shape(self):
        e = rmat_edges(6, 100, seed=1)
        assert e.shape == (100, 2)
        assert e.max() < 64

    def test_rmat_bad_scale(self):
        with pytest.raises(ValueError):
            rmat_edges(0, 10, seed=1)

    def test_rmat_bad_probabilities(self):
        with pytest.raises(ValueError):
            rmat_edges(4, 10, seed=1, a=0.5, b=0.4, c=0.4)

    def test_directed_variant(self):
        g = graph500_kronecker(8, 8, seed=1, directed=True)
        assert g.directed


class TestPreferential:
    def test_sizes(self):
        g = preferential_attachment(500, 3, seed=1)
        assert g.num_vertices == 500
        # each of ~497 new vertices adds up to 3 edges + seed clique
        assert 400 <= g.num_edges <= 3 * 500 + 10

    def test_rich_get_richer(self):
        g = preferential_attachment(1000, 2, seed=2)
        deg = np.asarray(g.degree())
        assert deg.max() > 10 * deg.mean()

    def test_validation(self):
        with pytest.raises(ValueError):
            preferential_attachment(5, 0)
        with pytest.raises(ValueError):
            preferential_attachment(3, 5)

    def test_connected(self):
        import networkx as nx

        g = preferential_attachment(300, 2, seed=3)
        assert nx.is_connected(g.to_networkx())


class TestRandomGraphs:
    def test_er_edge_count(self):
        g = erdos_renyi(100, 300, seed=1)
        assert g.num_edges == 300

    def test_er_directed(self):
        g = erdos_renyi(100, 300, directed=True, seed=1)
        assert g.directed and g.num_edges == 300


class TestCommunityAndHubs:
    def test_planted_partition_sizes(self):
        g = planted_partition(400, 8, 20, 2, seed=1)
        assert g.num_vertices == 400
        assert g.num_edges > 400

    def test_planted_partition_modularity(self):
        """Intra-community edges dominate."""
        g = planted_partition(400, 8, 30, 1, seed=2)
        comm = np.arange(400) * 8 // 400
        src = np.repeat(np.arange(400), np.diff(g.out_indptr))
        dst = g.out_indices
        intra = np.mean(comm[src] == comm[dst])
        assert intra > 0.8

    def test_planted_validation(self):
        with pytest.raises(ValueError):
            planted_partition(10, 0, 1, 1)

    def test_hub_graph_max_degree(self):
        g = hub_graph(1000, 4, 200, seed=1)
        deg = np.asarray(g.degree())
        assert deg.max() >= 150  # hubs dominate

    def test_hub_graph_validation(self):
        with pytest.raises(ValueError):
            hub_graph(5, 10, 3)


class TestCitationDag:
    def test_is_dag(self):
        g = citation_dag(500, seed=1)
        src = np.repeat(np.arange(g.num_vertices), np.diff(g.out_indptr))
        assert np.all(src > g.out_indices)  # all arcs point backward

    def test_directed(self):
        assert citation_dag(100, seed=1).directed

    def test_out_degree_mean(self):
        # landmark_spacing=1 disables snapping so citations rarely
        # collide and the Poisson mean comes through
        g = citation_dag(3000, citations_per_vertex=4.0, dead_fraction=0.0,
                         landmark_spacing=1, seed=2)
        assert 3.0 <= g.num_edges / g.num_vertices <= 5.0

    def test_dead_zone_has_no_citations(self):
        g = citation_dag(1000, dead_fraction=0.3, seed=3)
        dead = int(1000 * 0.3)
        out_deg = np.asarray(g.out_degree())
        assert np.all(out_deg[:dead] == 0)

    def test_landmark_concentration(self):
        g = citation_dag(2000, landmark_spacing=64, seed=4)
        cited = np.unique(g.out_indices)
        assert np.all(cited % 64 == 0)

    def test_validation(self):
        with pytest.raises(ValueError):
            citation_dag(10, recency_window=0.0)
        with pytest.raises(ValueError):
            citation_dag(10, dead_fraction=1.0)
