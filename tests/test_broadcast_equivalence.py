"""Tree-routed broadcast: the index schedulers vs the label-level oracle.

:mod:`repro.apps.broadcast` schedules on node indices and bitmasks; the
label-level schedulers it replaced are kept in
``tests/oracles/broadcast_reference.py``. Under a fixed seed both must
draw the same trees and produce the same rounds and the same per-node
and per-edge transmission counts — on the pipeline's graphs, on
explicit sources (duplicates, sources outside their tree), on packings
built by hand from labelled trees, and on random G(n, p) packings — and
fail with the same errors.
"""

from __future__ import annotations

import random

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import GraphSession
from repro.apps.broadcast import edge_broadcast, vertex_broadcast
from repro.core.cds_packing import construct_cds_packing
from repro.core.tree_packing import (
    DominatingTreePacking,
    SpanningTreePacking,
    WeightedTree,
)
from repro.errors import (
    GraphValidationError,
    PackingConstructionError,
    PackingValidationError,
)
from tests.oracles import broadcast_reference as reference

#: The pipeline benchmark's six graphs, plus a clustered pair.
SPECS = ("harary:8,160", "regular:8,150,7", "gnp:150,0.06,7", "torus:12,12",
         "hypercube:7", "harary:6,80", "fat_cycle:6,4", "clique_chain:3,5")
SEEDS = (0, 1, 2)


def _fields(outcome):
    return (
        outcome.rounds,
        outcome.n_messages,
        outcome.tree_assignment,
        outcome.node_transmissions,
        outcome.edge_transmissions,
    )


def assert_same(packing, sources, rng, vertex=True, **kwargs):
    ours, theirs = (
        (vertex_broadcast, reference.vertex_broadcast) if vertex
        else (edge_broadcast, reference.edge_broadcast)
    )
    got = ours(packing, sources, rng=rng, **kwargs)
    want = theirs(packing, sources, rng=rng, **kwargs)
    assert _fields(got) == _fields(want)
    # Vertex receipts cross every edge of the sender, in graph order.
    if vertex:
        assert list(got.edge_transmissions) == list(want.edge_transmissions)
    assert list(got.node_transmissions) == list(want.node_transmissions)
    return got


def _session(spec, seed):
    session = GraphSession(spec)
    return (
        session,
        session.pack_cds(seed=seed).raw.packing,
        session.pack_spanning(seed=seed).raw.packing,
    )


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("spec", SPECS)
def test_pipeline_graphs(spec, seed):
    session, cds, spanning = _session(spec, seed)
    for messages in (1, 16, 3 * session.n):
        sources = session.default_sources(messages)
        assert_same(cds, sources, seed)
        assert_same(spanning, sources, seed, vertex=False)


def test_explicit_sources_with_duplicates():
    session, cds, spanning = _session("harary:6,80", 1)
    nodes = list(session.graph.nodes())
    sources = {f"m{i}": nodes[(7 * i) % 5] for i in range(40)}
    assert_same(cds, sources, 3)
    assert_same(spanning, sources, 3, vertex=False)


def test_sources_outside_their_tree():
    """A source outside its message's dominating tree hands the token
    to its tree neighbors on its first transmission."""
    session, cds, _ = _session("harary:8,160", 2)
    sources = {}
    for tree_index, wt in enumerate(cds.trees):
        outside = [v for v in session.graph.nodes() if v not in wt.nodes]
        sources[tree_index] = outside[tree_index % len(outside)]
    outcome = assert_same(cds, sources, 5)
    misses = sum(
        sources[msg] not in cds.trees[tree].nodes
        for msg, tree in outcome.tree_assignment.items()
    )
    assert misses > 0


def _relabelled(packing, kind, relabel):
    graph = nx.relabel_nodes(packing.graph, relabel)
    trees = [
        WeightedTree(
            tree=nx.relabel_nodes(wt.tree, relabel),
            weight=wt.weight,
            class_id=wt.class_id,
        )
        for wt in packing.trees
    ]
    return kind(graph, trees)


@pytest.mark.parametrize(
    "relabel", [lambda v: f"v{v}", lambda v: (v % 5, str(v))],
    ids=["str", "tuple"],
)
def test_hand_built_packings(relabel):
    """Trees given as labelled graphs take the derived index path."""
    session, cds, spanning = _session("fat_cycle:6,4", 0)
    dominating = _relabelled(cds, DominatingTreePacking, relabel)
    spanning = _relabelled(spanning, SpanningTreePacking, relabel)
    nodes = list(dominating.graph.nodes())
    for messages in (1, 9, 60):
        sources = {i: nodes[(5 * i) % len(nodes)] for i in range(messages)}
        assert_same(dominating, sources, messages)
        assert_same(spanning, sources, messages, vertex=False)


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(6, 24),
    p=st.floats(0.25, 0.7),
    seed=st.integers(0, 10_000),
    messages=st.integers(0, 30),
)
def test_random_packings(n, p, seed, messages):
    rand = random.Random(seed)
    graph = nx.gnp_random_graph(n, p, seed=seed)
    if not nx.is_connected(graph):
        return
    labels = list(graph.nodes())
    sources = {i: rand.choice(labels) for i in range(messages)}
    try:
        dominating = construct_cds_packing(graph, 2, rng=seed).packing
    except PackingConstructionError:
        dominating = None
    if dominating is not None:
        assert_same(dominating, sources, seed)
    count = rand.randrange(1, 4)
    trees = []
    for i in range(count):
        tree = nx.Graph()
        tree.add_nodes_from(labels)
        tree.add_edges_from(nx.bfs_edges(graph, rand.choice(labels)))
        trees.append(WeightedTree(tree=tree, weight=1.0 / count, class_id=i))
    assert_same(SpanningTreePacking(graph, trees), sources, seed, vertex=False)
    assert_same(DominatingTreePacking(graph, trees), sources, seed)


def _errors(vertex, packing, sources, **kwargs):
    ours, theirs = (
        (vertex_broadcast, reference.vertex_broadcast) if vertex
        else (edge_broadcast, reference.edge_broadcast)
    )
    messages = []
    for scheduler in (ours, theirs):
        with pytest.raises(GraphValidationError) as caught:
            scheduler(packing, sources, rng=1, **kwargs)
        messages.append(str(caught.value))
    assert messages[0] == messages[1]
    return messages[0]


def test_stall_errors_match():
    graph = nx.path_graph(8)
    short = nx.path_graph(3)  # dominates nothing past node 3
    packing = DominatingTreePacking(
        graph, [WeightedTree(tree=short, weight=1.0, class_id=0)]
    )
    assert "stalled" in _errors(True, packing, {0: 0})
    spanning = SpanningTreePacking(
        graph, [WeightedTree(tree=short, weight=1.0, class_id=0)]
    )
    assert "stalled" in _errors(False, spanning, {0: 0})


def test_max_rounds_errors_match():
    _, cds, spanning = _session("harary:6,80", 0)
    sources = {i: i for i in range(8)}
    assert "dominating" in _errors(True, cds, sources, max_rounds=1)
    assert "spanning" in _errors(False, spanning, sources, max_rounds=1)


def test_zero_messages():
    _, cds, spanning = _session("harary:6,80", 0)
    assert assert_same(cds, {}, 0).rounds == 0
    assert assert_same(spanning, {}, 0, vertex=False).rounds == 0


def test_trees_off_the_graph_are_rejected():
    """A hand-built tree naming a node or an edge the graph lacks is
    refused before any round runs."""
    graph = nx.cycle_graph(6)
    chord = nx.Graph([(0, 3), (3, 4)])
    stray = nx.Graph([(0, 1), (1, "x")])
    for tree in (chord, stray):
        trees = [WeightedTree(tree=tree, weight=1.0, class_id=0)]
        with pytest.raises(PackingValidationError):
            vertex_broadcast(DominatingTreePacking(graph, trees), {0: 0})
        with pytest.raises(PackingValidationError):
            edge_broadcast(SpanningTreePacking(graph, trees), {0: 0})
