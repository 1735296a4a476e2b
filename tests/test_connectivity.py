"""Connectivity oracles, minimum vertex cuts, domination predicates
(Section 2)."""

import networkx as nx
import pytest

from repro.errors import GraphValidationError
from repro.graphs.connectivity import (
    edge_connectivity,
    is_connected_dominating_set,
    is_dominating_set,
    is_dominating_tree,
    is_spanning_tree,
    min_vertex_cut,
    vertex_connectivity,
)
from repro.graphs.generators import harary_graph


class TestConnectivityValues:
    def test_cycle(self):
        g = nx.cycle_graph(8)
        assert vertex_connectivity(g) == 2
        assert edge_connectivity(g) == 2

    def test_path_graph(self):
        g = nx.path_graph(5)
        assert vertex_connectivity(g) == 1
        assert edge_connectivity(g) == 1

    def test_complete_graph_convention(self):
        g = nx.complete_graph(6)
        assert vertex_connectivity(g) == 5

    def test_disconnected_is_zero(self):
        g = nx.Graph([(0, 1), (2, 3)])
        assert vertex_connectivity(g) == 0
        assert edge_connectivity(g) == 0

    def test_single_node(self):
        g = nx.Graph()
        g.add_node(0)
        assert vertex_connectivity(g) == 0

    def test_empty_graph_rejected(self):
        with pytest.raises(GraphValidationError):
            vertex_connectivity(nx.Graph())


class TestCutsAndMenger:
    def test_min_vertex_cut_disconnects(self):
        g = harary_graph(3, 12)
        cut = min_vertex_cut(g)
        assert len(cut) == 3
        h = g.copy()
        h.remove_nodes_from(cut)
        assert not nx.is_connected(h)

    def test_min_cut_of_complete_rejected(self):
        with pytest.raises(GraphValidationError):
            min_vertex_cut(nx.complete_graph(5))


class TestDominationPredicates:
    def test_whole_vertex_set_dominates(self):
        g = nx.cycle_graph(6)
        assert is_dominating_set(g, g.nodes())

    def test_every_other_node_dominates_cycle(self):
        g = nx.cycle_graph(6)
        assert is_dominating_set(g, {0, 2, 4})

    def test_non_dominating(self):
        g = nx.path_graph(6)
        assert not is_dominating_set(g, {0})

    def test_cds_requires_connected(self):
        g = nx.cycle_graph(6)
        assert not is_connected_dominating_set(g, {0, 2, 4})
        assert is_connected_dominating_set(g, {0, 1, 2, 3, 4})

    def test_empty_set_not_cds(self):
        g = nx.cycle_graph(4)
        assert not is_connected_dominating_set(g, set())

    def test_foreign_nodes_rejected(self):
        g = nx.cycle_graph(4)
        with pytest.raises(GraphValidationError):
            is_dominating_set(g, {99})


class TestTreePredicates:
    def test_dominating_tree_accepts(self):
        g = nx.cycle_graph(6)
        tree = nx.path_graph(5)  # nodes 0..4 dominate the 6-cycle
        assert is_dominating_tree(g, tree)

    def test_dominating_tree_rejects_cycle(self):
        g = nx.complete_graph(5)
        not_tree = nx.cycle_graph(3)
        assert not is_dominating_tree(g, not_tree)

    def test_dominating_tree_rejects_foreign_edge(self):
        g = nx.cycle_graph(6)
        tree = nx.Graph([(0, 3)])  # not an edge of the cycle
        assert not is_dominating_tree(g, tree)

    def test_spanning_tree_accepts(self):
        g = nx.complete_graph(5)
        t = nx.star_graph(4)
        assert is_spanning_tree(g, t)

    def test_spanning_tree_rejects_partial(self):
        g = nx.complete_graph(5)
        t = nx.path_graph(4)
        assert not is_spanning_tree(g, t)
