"""The kernel's λ, κ and diameter against networkx, and their certificates.

networkx is called directly here, as the independent cross-check: every
value must equal ``nx.edge_connectivity``, ``nx.node_connectivity`` or
``nx.diameter``, and every returned cut must disconnect the graph with
exactly as many edges or vertices as the value says. On families whose
κ and λ are known by construction, the values must also equal those.
"""

from __future__ import annotations

import itertools
import random

import networkx as nx
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import GraphSession
from repro.errors import GraphValidationError
from repro.fastgraph.flow import edge_connectivity, vertex_connectivity
from repro.fastgraph.indexed import IndexedGraph
from repro.graphs import connectivity
from repro.graphs.generators import (
    clique_chain,
    fat_cycle,
    gnp_connected,
    harary_graph,
    hypercube,
    random_regular_connected,
    torus_grid,
)

FAMILIES = {
    "harary:5,24": lambda: harary_graph(5, 24),
    "harary:8,40": lambda: harary_graph(8, 40),
    "regular:5,30": lambda: random_regular_connected(5, 30, rng=3),
    "gnp:40,0.15": lambda: gnp_connected(40, 0.15, rng=5),
    "torus:5,6": lambda: torus_grid(5, 6),
    "hypercube:5": lambda: hypercube(5),
    "fat_cycle:3,6": lambda: fat_cycle(3, 6),
    "clique_chain:3,6": lambda: clique_chain(3, 6),
    "harary:6,40+K7": lambda: _clique_hanging_off(harary_graph(6, 40), 7, 3),
}


def _clique_hanging_off(graph: nx.Graph, size: int, joins: int) -> nx.Graph:
    """``graph`` plus a K_size joined to it by ``joins`` edges: λ = joins
    when that is below δ, and the far side holds few dominating-set
    members."""
    graph = nx.convert_node_labels_to_integers(graph)
    base = graph.number_of_nodes()
    graph.add_edges_from(
        itertools.combinations(range(base, base + size), 2)
    )
    graph.add_edges_from((j, base + j) for j in range(joins))
    return graph


def _two_k6_joined_at_one_vertex() -> nx.Graph:
    """Two K₆ joined by two edges that share an endpoint:
    κ = 1 < λ = 2 < δ = 5."""
    graph = nx.complete_graph(6)
    graph.add_edges_from(itertools.combinations(range(6, 12), 2))
    graph.add_edges_from([(0, 6), (0, 7)])
    return graph


def _expected(graph: nx.Graph):
    """networkx's (λ, κ) under the oracles' conventions."""
    if graph.number_of_nodes() == 1 or not nx.is_connected(graph):
        return 0, 0
    return nx.edge_connectivity(graph), nx.node_connectivity(graph)


def _check(graph: nx.Graph) -> None:
    """Values equal networkx's; cuts certify them."""
    indexed = IndexedGraph.from_networkx(graph)
    lam, edge_cut = edge_connectivity(indexed)
    kappa, vertex_cut = vertex_connectivity(indexed)
    assert (lam, kappa) == _expected(graph)
    assert connectivity.edge_connectivity(graph) == lam
    assert connectivity.vertex_connectivity(graph) == kappa
    n = graph.number_of_nodes()
    if n == 1 or not nx.is_connected(graph):
        assert edge_cut == [] and vertex_cut == []
        return
    assert len(set(edge_cut)) == len(edge_cut) == lam
    cut_graph = graph.copy()
    cut_graph.remove_edges_from(indexed.endpoints(e) for e in edge_cut)
    assert not nx.is_connected(cut_graph)
    assert len(set(vertex_cut)) == len(vertex_cut) == kappa
    if kappa == n - 1:
        # K_n, self-loops aside: no vertex cut.
        with pytest.raises(GraphValidationError):
            connectivity.min_vertex_cut(graph)
        return
    cut_graph = graph.copy()
    cut_graph.remove_nodes_from(indexed.nodes[x] for x in vertex_cut)
    assert not nx.is_connected(cut_graph)
    assert connectivity.min_vertex_cut(graph) == {
        indexed.nodes[x] for x in vertex_cut
    }


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_families_equal_networkx(name):
    _check(FAMILIES[name]())


def _min_degree_cut_vertex() -> nx.Graph:
    """Node 0, of minimum degree 4, joins two K₅ by two edges each: κ = 1
    and only node 0 separates, so only a flow between two of its
    neighbours finds κ."""
    graph = nx.Graph()
    graph.add_node(0)
    graph.add_edges_from(itertools.combinations(range(1, 6), 2))
    graph.add_edges_from(itertools.combinations(range(6, 11), 2))
    graph.add_edges_from([(0, 1), (0, 2), (0, 6), (0, 7)])
    return graph


def test_kappa_below_lambda_below_delta():
    graph = _two_k6_joined_at_one_vertex()
    indexed = IndexedGraph.from_networkx(graph)
    assert min(d for _, d in graph.degree()) == 5
    assert edge_connectivity(indexed)[0] == 2
    assert vertex_connectivity(indexed) == (1, [0])
    _check(graph)


def test_cut_through_the_min_degree_vertex():
    graph = _min_degree_cut_vertex()
    assert min(d for _, d in graph.degree()) == graph.degree(0) == 4
    assert vertex_connectivity(IndexedGraph.from_networkx(graph)) == (1, [0])
    _check(graph)


@pytest.mark.parametrize(
    "graph",
    [
        nx.empty_graph(1),
        nx.empty_graph(2),
        nx.path_graph(2),
        nx.Graph([(0, 1), (2, 3)]),
        nx.balanced_tree(2, 3),
        nx.complete_graph(2),
        nx.complete_graph(7),
        nx.complete_bipartite_graph(3, 4),
        # A saturated edge arc leaves the residual reach here: an edge of
        # the split network needs more capacity than any vertex cut, or
        # the cut read off the reach misses a vertex.
        nx.Graph([(0, 1), (0, 2), (0, 4), (1, 3), (1, 5), (2, 4), (2, 6),
                  (3, 5), (3, 6), (4, 6), (5, 6)]),
        # Self-loops change no cut: with its loop this graph has
        # n(n − 1)/2 edges but κ = 2 and cut {2, 3}, and K5 with a loop
        # is still complete.
        nx.Graph([(0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (3, 3)]),
        nx.Graph(list(itertools.combinations(range(5), 2)) + [(0, 0)]),
    ],
    ids=["one-node", "two-nodes", "one-edge", "disconnected", "tree",
         "K2", "K7", "K3,4", "edge-arc-in-reach", "loop-counts-as-edge",
         "K5+loop"],
)
def test_small_and_degenerate_graphs(graph):
    _check(graph)


# (builder, κ, λ), each known by construction: the Petersen graph, a
# Harary graph H(k, n), the hypercube Q_d and the 4-regular torus are
# 3-, k-, d- and 4-connected with δ equal to that; K_{a,b} has
# κ = λ = min(a, b); a fat cycle of width w loses two super-nodes to a
# vertex cut and has δ = 3w − 1; a clique chain of k-cliques loses one
# clique and has δ = 2k − 1 at its ends; a cycle, a path and a star are
# 2-, 1- and 1-connected. On the star, ``_check`` pins the cut to the
# centre: no other single vertex disconnects it.
CLOSED_FORM = {
    "petersen": (nx.petersen_graph, 3, 3),
    "K3,7": (lambda: nx.complete_bipartite_graph(3, 7), 3, 3),
    "fat_cycle:3,5": (lambda: fat_cycle(3, 5), 6, 8),
    "clique_chain:4,4": (lambda: clique_chain(4, 4), 4, 7),
    "hypercube:4": (lambda: hypercube(4), 4, 4),
    "harary:5,17": (lambda: harary_graph(5, 17), 5, 5),
    "torus:4,5": (lambda: torus_grid(4, 5), 4, 4),
    "C9": (lambda: nx.cycle_graph(9), 2, 2),
    "P7": (lambda: nx.path_graph(7), 1, 1),
    "star:5": (lambda: nx.star_graph(5), 1, 1),
}


@pytest.mark.parametrize("name", sorted(CLOSED_FORM))
def test_closed_form_vertex_connectivity(name):
    builder, kappa, _ = CLOSED_FORM[name]
    graph = builder()
    assert vertex_connectivity(IndexedGraph.from_networkx(graph))[0] == kappa
    _check(graph)


@pytest.mark.parametrize("name", sorted(CLOSED_FORM))
def test_closed_form_edge_connectivity(name):
    builder, _, lam = CLOSED_FORM[name]
    assert edge_connectivity(IndexedGraph.from_networkx(builder()))[0] == lam



def test_empty_graph_rejected():
    indexed = IndexedGraph.from_networkx(nx.Graph())
    for oracle in (edge_connectivity, vertex_connectivity):
        with pytest.raises(GraphValidationError):
            oracle(indexed)
    with pytest.raises(GraphValidationError):
        connectivity.edge_connectivity(nx.Graph())


def _relabel(graph: nx.Graph, how: str) -> nx.Graph:
    if how == "str":
        return nx.relabel_nodes(graph, {v: f"v{v}" for v in graph})
    if how == "tuple":
        return nx.relabel_nodes(graph, {v: (v % 3, str(v)) for v in graph})
    return graph


@settings(max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    st.integers(min_value=1, max_value=24),
    st.floats(min_value=0.0, max_value=1.0),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.sampled_from(["int", "str", "tuple"]),
)
def test_random_graphs_equal_networkx(n, p, seed, labels):
    _check(_relabel(nx.gnp_random_graph(n, p, seed=seed), labels))


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    st.integers(min_value=2, max_value=12),
    st.integers(min_value=2, max_value=12),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_dense_halves_joined_by_few_edges(left, right, joins, seed):
    """Two dense G(n, 0.8) joined by a few random edges: cuts below δ."""
    graph = nx.disjoint_union(
        nx.gnp_random_graph(left, 0.8, seed=seed),
        nx.gnp_random_graph(right, 0.8, seed=seed + 1),
    )
    rand = random.Random(seed)
    for _ in range(joins):
        graph.add_edge(rand.randrange(left), left + rand.randrange(right))
    _check(graph)


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_diameter_equals_networkx(name):
    graph = FAMILIES[name]()
    assert IndexedGraph.from_networkx(graph).diameter() == nx.diameter(graph)


def test_diameter_of_small_and_disconnected_graphs():
    assert IndexedGraph.from_networkx(nx.empty_graph(1)).diameter() == 0
    assert IndexedGraph.from_networkx(nx.path_graph(9)).diameter() == 8
    with pytest.raises(nx.NetworkXError):
        IndexedGraph.from_networkx(nx.Graph([(0, 1), (2, 3)])).diameter()


def test_session_computes_the_diameter_once_per_index(monkeypatch):
    """Two ``flood-checksum`` runs share one diameter; an edit drops it
    with the index, and the envelopes do not change."""
    computed = []
    original = IndexedGraph.diameter

    def counting(self):
        if self._diameter is None:
            computed.append(self)
        return original(self)

    monkeypatch.setattr(IndexedGraph, "diameter", counting)
    session = GraphSession("harary:4,16")
    first = session.simulate(program="flood-checksum", seed=3)
    second = session.simulate(program="flood-checksum", seed=3)
    assert computed == [session.indexed]
    assert first.canonical_json() == second.canonical_json()
    session.add_edge(0, 8)
    session.simulate(program="flood-checksum", seed=3)
    session.remove_edge(0, 8)
    third = session.simulate(program="flood-checksum", seed=3)
    assert len(computed) == 3 and computed[-1] is session.indexed
    assert third.canonical_json() == first.canonical_json()
