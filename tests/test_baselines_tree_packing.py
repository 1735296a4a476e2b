"""Tests for the Roskind–Tarjan exact spanning tree packing baseline."""

from __future__ import annotations

import math
import random

import networkx as nx
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import GraphValidationError
from repro.graphs.generators import fat_cycle, harary_graph, hypercube
from tests.oracles.tree_packing_exact import (
    edge_disjoint_spanning_forests,
    max_spanning_tree_packing,
    spanning_tree_packing_number,
)


def _assert_edge_disjoint(forests):
    seen = set()
    for forest in forests:
        for u, v in forest.edges():
            edge = frozenset((u, v))
            assert edge not in seen, "forests share an edge"
            seen.add(edge)


class TestForestUnion:
    def test_forests_are_forests_and_disjoint(self):
        graph = harary_graph(6, 18)
        forests = edge_disjoint_spanning_forests(graph, 3)
        _assert_edge_disjoint(forests)
        for forest in forests:
            assert nx.is_forest(forest)
            assert set(forest.nodes()) == set(graph.nodes())

    def test_union_is_maximum_on_complete_graph(self):
        """K_6 has 15 edges and packs 3 spanning trees = 15 edges total."""
        forests = edge_disjoint_spanning_forests(nx.complete_graph(6), 3)
        assert sum(f.number_of_edges() for f in forests) == 15
        for forest in forests:
            assert forest.number_of_edges() == 5

    def test_k1_returns_spanning_tree(self):
        graph = hypercube(3)
        (forest,) = edge_disjoint_spanning_forests(graph, 1)
        assert nx.is_tree(forest)
        assert set(forest.nodes()) == set(graph.nodes())

    def test_excess_forests_stay_small(self):
        """Asking for more forests than the graph can fill leaves the
        extras partial (union is still maximum = m for sparse graphs)."""
        graph = nx.cycle_graph(8)
        forests = edge_disjoint_spanning_forests(graph, 3)
        _assert_edge_disjoint(forests)
        assert sum(f.number_of_edges() for f in forests) == 8

    def test_rejects_bad_k(self):
        with pytest.raises(GraphValidationError):
            edge_disjoint_spanning_forests(nx.path_graph(3), 0)

    def test_rejects_empty_graph(self):
        with pytest.raises(GraphValidationError):
            edge_disjoint_spanning_forests(nx.Graph(), 1)

    def test_augmenting_swaps_find_hidden_packing(self):
        """A graph where naive greedy fails but augmentation succeeds:
        two spanning trees exist in K_4 only via edge exchanges once the
        first tree grabs a bad subset; the matroid union must still find
        both."""
        graph = nx.complete_graph(4)
        forests = edge_disjoint_spanning_forests(graph, 2)
        assert [f.number_of_edges() for f in forests] == [3, 3]
        for forest in forests:
            assert nx.is_tree(forest)


class TestPackingNumber:
    @pytest.mark.parametrize(
        "builder,expected",
        [
            (lambda: nx.path_graph(5), 1),
            (lambda: nx.cycle_graph(6), 1),
            (lambda: nx.complete_graph(4), 2),
            (lambda: nx.complete_graph(6), 3),
            (lambda: nx.complete_graph(7), 3),
            # K_{3,3} has 9 edges; two spanning trees would need 10.
            (lambda: nx.complete_bipartite_graph(3, 3), 1),
            (lambda: nx.complete_bipartite_graph(4, 4), 2),
            (lambda: hypercube(3), 1),
            (lambda: hypercube(4), 2),
        ],
    )
    def test_known_values(self, builder, expected):
        assert spanning_tree_packing_number(builder()) == expected

    def test_disconnected_is_zero(self):
        graph = nx.Graph()
        graph.add_edges_from([(0, 1), (2, 3)])
        assert spanning_tree_packing_number(graph) == 0

    def test_single_node_is_zero(self):
        graph = nx.Graph()
        graph.add_node("v")
        assert spanning_tree_packing_number(graph) == 0

    def test_tutte_nash_williams_lower_bound(self):
        """Packing number >= ceil((λ-1)/2) on every test family — the
        existential bound our Theorem 1.3 reproduction is measured
        against."""
        for graph in [
            harary_graph(4, 12),
            harary_graph(6, 14),
            fat_cycle(3, 5),
            hypercube(4),
            nx.complete_graph(8),
        ]:
            lam = nx.edge_connectivity(graph)
            packing = spanning_tree_packing_number(graph)
            assert packing >= math.ceil((lam - 1) / 2)
            assert packing <= lam

    def test_max_packing_returns_valid_trees(self):
        graph = harary_graph(6, 15)
        trees = max_spanning_tree_packing(graph)
        assert len(trees) == spanning_tree_packing_number(graph)
        _assert_edge_disjoint(trees)
        for tree in trees:
            assert nx.is_tree(tree)
            assert set(tree.nodes()) == set(graph.nodes())

    def test_max_packing_empty_for_disconnected(self):
        graph = nx.Graph()
        graph.add_edges_from([(0, 1), (2, 3)])
        assert max_spanning_tree_packing(graph) == []


@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(seed=st.integers(0, 10_000), n=st.integers(4, 10))
def test_union_size_is_maximum_by_matroid_rank(seed, n):
    """The union's total size must match the k-fold graphic matroid rank
    computed independently by the Nash-Williams min formula over *vertex
    subsets* — checked exhaustively for small n.

    rank_k(G) = min over partitions P of V of sum over parts... checking
    the (simpler, sufficient for these sizes) spanning-trees criterion:
    k trees exist iff for every partition of V into r parts, at least
    k(r-1) edges cross between parts (Tutte/Nash-Williams). We verify
    agreement between that criterion and the algorithm's verdict for
    k = 2.
    """
    graph = nx.gnp_random_graph(n, 0.6, seed=seed)
    if not nx.is_connected(graph):
        return
    nodes = sorted(graph.nodes())
    k = 2

    def crossing(partition):
        index = {}
        for part_id, part in enumerate(partition):
            for v in part:
                index[v] = part_id
        return sum(1 for u, v in graph.edges() if index[u] != index[v])

    # Enumerate partitions via restricted growth strings (n <= 10).
    def partitions(seq):
        if not seq:
            yield []
            return
        head, rest = seq[0], seq[1:]
        for sub in partitions(rest):
            for i in range(len(sub)):
                yield sub[:i] + [[head] + sub[i]] + sub[i + 1 :]
            yield [[head]] + sub

    tutte_ok = all(
        crossing(p) >= k * (len(p) - 1)
        for p in partitions(nodes)
        if len(p) > 1
    )
    algorithm_ok = spanning_tree_packing_number(graph) >= k
    assert tutte_ok == algorithm_ok
