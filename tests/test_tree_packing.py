"""Packing containers and verification (Section 2 definitions)."""

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import PackingValidationError
from repro.core.tree_packing import (
    DominatingTreePacking,
    SpanningTreePacking,
    WeightedTree,
    spanning_tree_of,
)


def _path_tree(nodes):
    t = nx.Graph()
    t.add_nodes_from(nodes)
    t.add_edges_from(zip(nodes, nodes[1:]))
    return t


class TestWeightedTree:
    def test_weight_range_enforced(self):
        with pytest.raises(PackingValidationError):
            WeightedTree(tree=_path_tree([0, 1]), weight=1.5, class_id=0)
        with pytest.raises(PackingValidationError):
            WeightedTree(tree=_path_tree([0, 1]), weight=-0.1, class_id=0)

    def test_diameter(self):
        wt = WeightedTree(tree=_path_tree([0, 1, 2, 3]), weight=1.0, class_id=0)
        assert wt.diameter() == 3

    def test_singleton_diameter_zero(self):
        t = nx.Graph()
        t.add_node(0)
        assert WeightedTree(tree=t, weight=0.5, class_id=0).diameter() == 0


class TestDominatingPacking:
    def test_verify_accepts_valid(self):
        g = nx.cycle_graph(6)
        trees = [
            WeightedTree(tree=_path_tree([0, 1, 2, 3, 4]), weight=0.5, class_id=0),
            WeightedTree(tree=_path_tree([1, 2, 3, 4, 5]), weight=0.5, class_id=1),
        ]
        packing = DominatingTreePacking(g, trees)
        packing.verify()
        assert packing.size == 1.0

    def test_size_is_summed_exactly(self):
        """Nine trees of weight 1/9 make size 1.0; a left-to-right float
        sum reads 1.0000000000000002, above κ = 1 of a star."""
        g = nx.star_graph(9)
        trees = [
            WeightedTree(tree=_path_tree([0]), weight=1 / 9, class_id=c)
            for c in range(9)
        ]
        packing = DominatingTreePacking(g, trees)
        packing.verify()
        assert packing.size == 1.0

    def test_verify_rejects_overload(self):
        g = nx.cycle_graph(6)
        trees = [
            WeightedTree(tree=_path_tree([0, 1, 2, 3, 4]), weight=0.8, class_id=0),
            WeightedTree(tree=_path_tree([1, 2, 3, 4, 5]), weight=0.8, class_id=1),
        ]
        with pytest.raises(PackingValidationError):
            DominatingTreePacking(g, trees).verify()

    def test_verify_rejects_non_dominating(self):
        g = nx.path_graph(8)
        trees = [WeightedTree(tree=_path_tree([0, 1]), weight=0.5, class_id=0)]
        with pytest.raises(PackingValidationError):
            DominatingTreePacking(g, trees).verify()

    def test_trees_per_node_counts(self):
        g = nx.cycle_graph(5)
        trees = [
            WeightedTree(tree=_path_tree([0, 1, 2, 3]), weight=0.4, class_id=0),
            WeightedTree(tree=_path_tree([2, 3, 4, 0]), weight=0.4, class_id=1),
        ]
        packing = DominatingTreePacking(g, trees)
        counts = packing.trees_per_node()
        assert counts[0] == 2 and counts[1] == 1

    def test_vertex_disjointness_detection(self):
        g = nx.cycle_graph(6)
        a = WeightedTree(tree=_path_tree([0, 1, 2]), weight=1.0, class_id=0)
        b = WeightedTree(tree=_path_tree([3, 4, 5]), weight=1.0, class_id=1)
        assert DominatingTreePacking(g, [a, b]).is_vertex_disjoint()
        c = WeightedTree(tree=_path_tree([2, 3]), weight=1.0, class_id=2)
        assert not DominatingTreePacking(g, [a, b, c]).is_vertex_disjoint()

    def test_max_diameter(self):
        g = nx.cycle_graph(6)
        trees = [
            WeightedTree(tree=_path_tree([0, 1, 2, 3, 4]), weight=0.5, class_id=0)
        ]
        assert DominatingTreePacking(g, trees).max_diameter() == 4


class TestSpanningPacking:
    def test_verify_accepts_valid(self):
        g = nx.complete_graph(4)
        t1 = _path_tree([0, 1, 2, 3])
        t2 = nx.Graph([(0, 2), (2, 1), (1, 3)])
        trees = [
            WeightedTree(tree=t1, weight=0.5, class_id=0),
            WeightedTree(tree=t2, weight=0.5, class_id=1),
        ]
        packing = SpanningTreePacking(g, trees)
        packing.verify()
        assert packing.size == 1.0

    def test_verify_rejects_non_spanning(self):
        g = nx.complete_graph(4)
        trees = [WeightedTree(tree=_path_tree([0, 1, 2]), weight=1.0, class_id=0)]
        with pytest.raises(PackingValidationError):
            SpanningTreePacking(g, trees).verify()

    def test_edge_overload_rejected(self):
        g = nx.complete_graph(4)
        t = _path_tree([0, 1, 2, 3])
        trees = [
            WeightedTree(tree=t, weight=0.7, class_id=0),
            WeightedTree(tree=t.copy(), weight=0.7, class_id=1),
        ]
        with pytest.raises(PackingValidationError):
            SpanningTreePacking(g, trees).verify()

    def test_edge_disjointness_detection(self):
        g = nx.complete_graph(4)
        t1 = _path_tree([0, 1, 2, 3])
        t2 = nx.Graph([(0, 2), (0, 3), (1, 3)])
        packing = SpanningTreePacking(
            g,
            [
                WeightedTree(tree=t1, weight=1.0, class_id=0),
                WeightedTree(tree=t2, weight=1.0, class_id=1),
            ],
        )
        assert packing.is_edge_disjoint()

    def test_trees_per_edge(self):
        g = nx.complete_graph(3)
        t = _path_tree([0, 1, 2])
        packing = SpanningTreePacking(
            g, [WeightedTree(tree=t, weight=1.0, class_id=0)]
        )
        counts = packing.trees_per_edge()
        assert counts[frozenset((0, 1))] == 1
        assert counts[frozenset((0, 2))] == 0


class TestSpanningTreeOf:
    def test_spanning_tree_of_connected_subset(self):
        g = nx.cycle_graph(6)
        t = spanning_tree_of(g, [0, 1, 2, 3])
        assert nx.is_tree(t)
        assert set(t.nodes()) == {0, 1, 2, 3}

    def test_disconnected_subset_rejected(self):
        g = nx.cycle_graph(6)
        with pytest.raises(PackingValidationError):
            spanning_tree_of(g, [0, 3])

    def test_empty_rejected(self):
        g = nx.cycle_graph(4)
        with pytest.raises(PackingValidationError):
            spanning_tree_of(g, [])


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_random_spanning_trees_always_verify(seed):
    """Property: a uniform weight split over BFS trees of random connected
    subsets always verifies as a dominating tree packing when the subsets
    are CDSs (here: whole vertex set, trivially a CDS)."""
    import random

    rand = random.Random(seed)
    g = nx.cycle_graph(rand.randrange(4, 12))
    count = rand.randrange(1, 4)
    trees = [
        WeightedTree(tree=spanning_tree_of(g), weight=1.0 / count, class_id=i)
        for i in range(count)
    ]
    packing = DominatingTreePacking(g, trees)
    packing.verify()
    assert abs(packing.size - 1.0) < 1e-9
