"""Packings keep their trees in index form; the labelled tree is lazy.

The constructions hand each tree over as indices on the graph's
:class:`~repro.fastgraph.indexed.IndexedGraph`. Loads, counts, disjointness,
diameters and the broadcasts read that form; ``WeightedTree.tree`` is
built only when something reads it. These tests pin that no labelled
tree is built on the pipeline, that the index-side reads equal the same
reads over the labelled trees, and that the two-sweep diameter equals
``nx.diameter``.
"""

from __future__ import annotations

import networkx as nx
import pytest

from repro.api import GraphSession
from repro.core.tree_packing import (
    DominatingTreePacking,
    SpanningTreePacking,
    WeightedTree,
)
from repro.errors import PackingValidationError
from repro.fastgraph.indexed import IndexedGraph

SPECS = ("harary:6,30", "torus:5,6", "hypercube:5", "fat_cycle:6,4",
         "clique_chain:3,5")


def _packings(spec, seed=1):
    session = GraphSession(spec)
    return [
        session.pack_cds(seed=seed).raw.packing,
        session.pack_spanning(seed=seed).raw.packing,
        session.pack_integral(kind="cds", seed=seed,
                              class_factor=1.0).raw.packing,
        session.pack_integral(kind="spanning", seed=seed).raw,
    ]


@pytest.mark.parametrize("spec", SPECS)
def test_diameter_equals_networkx(spec):
    for packing in _packings(spec):
        for wt in packing.trees:
            assert wt.diameter() == nx.diameter(wt.tree)


@pytest.mark.parametrize(
    "tree, diameter",
    [
        (nx.empty_graph(1), 0),
        (nx.path_graph(7), 6),
        (nx.star_graph(5), 2),
        (nx.relabel_nodes(nx.path_graph(4), lambda v: f"v{v}"), 3),
    ],
    ids=["one-node", "path", "star", "str-path"],
)
def test_diameter_small_trees(tree, diameter):
    assert WeightedTree(tree=tree, weight=1.0, class_id=0).diameter() == diameter


def test_disconnected_tree_diameter_raises():
    forest = nx.Graph([(0, 1), (2, 3)])
    with pytest.raises(nx.NetworkXError):
        WeightedTree(tree=forest, weight=1.0, class_id=0).diameter()


def _label_node_sums(packing, weighted):
    sums = {v: 0.0 if weighted else 0 for v in packing.graph.nodes()}
    for wt in packing.trees:
        for v in wt.tree.nodes():
            sums[v] += wt.weight if weighted else 1
    return sums


def _label_edge_sums(packing, weighted):
    sums = {frozenset(e): 0.0 if weighted else 0 for e in packing.graph.edges()}
    for wt in packing.trees:
        for e in wt.tree.edges():
            sums[frozenset(e)] += wt.weight if weighted else 1
    return sums


@pytest.mark.parametrize("spec", SPECS)
def test_index_reads_equal_label_reads(spec):
    """Loads and counts read off the index form equal the same sums
    over the labelled trees, float for float and in the same key order."""
    cds, spanning, integral_cds, integral_spanning = _packings(spec)
    for packing in (cds, integral_cds):
        loads = packing.node_loads()
        assert list(loads.items()) == list(_label_node_sums(packing, True).items())
        assert packing.trees_per_node() == _label_node_sums(packing, False)
        assert packing.max_node_load() == max(loads.values())
    assert integral_cds.is_vertex_disjoint()
    for packing in (spanning, integral_spanning):
        loads = packing.edge_loads()
        assert list(loads.items()) == list(_label_edge_sums(packing, True).items())
        assert packing.trees_per_edge() == _label_edge_sums(packing, False)
        assert packing.max_edge_load() == max(loads.values())
    assert integral_spanning.is_edge_disjoint()
    for packing in (cds, spanning, integral_cds, integral_spanning):
        for wt in packing.trees:
            assert wt.nodes == frozenset(wt.tree.nodes())
            assert wt.edges == frozenset(map(frozenset, wt.tree.edges()))


def test_pipeline_builds_no_labelled_tree(monkeypatch):
    """connectivity → pack_cds → vertex broadcast → pack_spanning → edge
    broadcast canonicalizes once and builds no ``nx.Graph`` per tree;
    ``verify()`` builds them afterwards and passes."""
    canonicalized = []
    from_networkx = IndexedGraph.from_networkx.__func__

    def counting(cls, graph):
        canonicalized.append(graph)
        return from_networkx(cls, graph)

    def refuse(self, *args, **kwargs):
        raise AssertionError("a labelled tree was built")

    monkeypatch.setattr(IndexedGraph, "from_networkx", classmethod(counting))
    monkeypatch.setattr(IndexedGraph, "tree_graph", refuse)
    session = GraphSession("harary:6,40")
    session.connectivity(seed=3)
    cds = session.pack_cds(seed=3).raw.packing
    session.broadcast(messages=16, seed=3)
    spanning = session.pack_spanning(seed=3).raw.packing
    session.broadcast(messages=16, seed=3, transport="edge")
    assert len(canonicalized) == 1
    monkeypatch.undo()
    cds.verify()
    spanning.verify()


def test_tree_order_is_the_index_order():
    """The lazy tree reports nodes and edges in index-form order."""
    cds = GraphSession("fat_cycle:6,4").pack_cds(seed=2).raw.packing
    labels = cds.indexed.nodes
    for wt in cds.trees:
        assert list(wt.tree.nodes()) == [labels[i] for i in wt._nodes]
        built = nx.Graph()
        built.add_nodes_from(labels[i] for i in wt._nodes)
        built.add_edges_from((labels[a], labels[b]) for a, b in wt._pairs())
        assert list(wt.tree.edges()) == list(built.edges())


def test_graph_trees_get_one_index_form():
    """A tree given as a graph is read against the packing's index, once."""
    graph = nx.relabel_nodes(nx.cycle_graph(6), lambda v: ("n", v))
    tree = nx.relabel_nodes(nx.path_graph(5), lambda v: ("n", v))
    wt = WeightedTree(tree=tree, weight=0.5, class_id=0)
    packing = DominatingTreePacking(graph, [wt])
    assert packing.max_node_load() == 0.5
    assert wt._indexed is packing.indexed
    form = wt._nodes
    packing.trees_per_node()
    assert wt._nodes is form
    assert wt.tree is tree


@pytest.mark.parametrize(
    "tree",
    [nx.Graph([(0, 1), (1, 9)]), nx.Graph([(0, 1), (1, 3)])],
    ids=["stray-node", "stray-edge"],
)
def test_trees_off_the_graph_raise_in_loads(tree):
    graph = nx.cycle_graph(6)
    trees = [WeightedTree(tree=tree, weight=1.0, class_id=0)]
    with pytest.raises(PackingValidationError):
        DominatingTreePacking(graph, trees).node_loads()
    with pytest.raises(PackingValidationError):
        SpanningTreePacking(graph, trees).edge_loads()
