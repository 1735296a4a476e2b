"""Cross-module hypothesis property tests.

These tie independent implementations to each other: the from-scratch
baselines against the networkx oracles, the sparse certificates against
exact connectivity, the exact tree packing against Tutte/Nash-Williams,
and the decomposition outputs against the baselines. Any divergence
between two code paths that claim the same mathematics fails here.
"""

from __future__ import annotations

import math
import random

import networkx as nx
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import GraphSession
from repro.baselines.mincut import edge_connectivity_exact
from repro.baselines.tree_packing_exact import spanning_tree_packing_number
from repro.baselines.vertex_connectivity_exact import (
    even_tarjan_vertex_connectivity,
)
from repro.graphs.connectivity import (
    edge_connectivity,
    vertex_connectivity,
)
from repro.graphs.generators import harary_graph
from repro.graphs.sampling import karger_edge_partition
from repro.graphs.sparse_certificates import sparse_connectivity_certificate

_slow = settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


def _random_connected(seed: int, n: int, p: float = 0.45):
    graph = nx.gnp_random_graph(n, p, seed=seed)
    if graph.number_of_nodes() == 0 or not nx.is_connected(graph):
        return None
    return graph


@_slow
@given(seed=st.integers(0, 10_000), n=st.integers(4, 12))
def test_three_edge_connectivity_implementations_agree(seed, n):
    """Stoer–Wagner (ours) == networkx flow-based == the λ oracle ==
    the session's exact λ."""
    graph = _random_connected(seed, n)
    if graph is None:
        return
    ours = edge_connectivity_exact(graph)
    assert ours == nx.edge_connectivity(graph)
    assert ours == edge_connectivity(graph)
    assert ours == GraphSession(graph).exact_edge_connectivity()


@_slow
@given(seed=st.integers(0, 10_000), n=st.integers(4, 11))
def test_two_vertex_connectivity_implementations_agree(seed, n):
    graph = _random_connected(seed, n)
    if graph is None:
        return
    ours, _ = even_tarjan_vertex_connectivity(graph)
    assert ours == vertex_connectivity(graph)
    assert ours == GraphSession(graph).exact_vertex_connectivity()


@_slow
@given(seed=st.integers(0, 10_000), n=st.integers(4, 10))
def test_connectivity_inequality_chain(seed, n):
    """k ≤ λ ≤ δ (Whitney) and T ≥ ⌈(λ−1)/2⌉ (Tutte/Nash-Williams)."""
    graph = _random_connected(seed, n)
    if graph is None:
        return
    k = vertex_connectivity(graph)
    lam = edge_connectivity(graph)
    min_degree = min(d for _, d in graph.degree())
    assert k <= lam <= min_degree
    packing = spanning_tree_packing_number(graph)
    assert packing >= math.ceil((lam - 1) / 2)
    assert packing <= lam


@_slow
@given(seed=st.integers(0, 10_000), k=st.integers(1, 4))
def test_sparse_certificate_preserves_connectivity_up_to_k(seed, k):
    """The Nagamochi–Ibaraki certificate keeps λ' = min(λ, k) and at most
    k·n edges — the [49] substrate contract."""
    graph = _random_connected(seed, 12, p=0.5)
    if graph is None:
        return
    certificate = sparse_connectivity_certificate(graph, k)
    assert certificate.number_of_edges() <= k * graph.number_of_nodes()
    lam = edge_connectivity(graph)
    lam_cert = edge_connectivity(certificate)
    assert lam_cert >= min(lam, k)


@_slow
@given(seed=st.integers(0, 10_000), parts=st.integers(1, 4))
def test_karger_partition_is_exact_edge_partition(seed, parts):
    graph = harary_graph(4, 16)
    subgraphs = karger_edge_partition(graph, parts, rng=seed)
    assert len(subgraphs) == parts
    seen = set()
    for part in subgraphs:
        assert set(part.nodes()) == set(graph.nodes())
        for u, v in part.edges():
            edge = frozenset((u, v))
            assert edge not in seen
            assert graph.has_edge(u, v)
            seen.add(edge)
    assert len(seen) == graph.number_of_edges()


@_slow
@given(seed=st.integers(0, 10_000))
def test_packing_size_never_exceeds_connectivity(seed):
    """Any fractional dominating tree packing has size ≤ k (each of the
    k cut vertices carries ≤ 1 weight and every dominating tree must
    touch every vertex cut)."""
    from repro.core.cds_packing import fractional_cds_packing

    graph = harary_graph(4, 14)
    k = vertex_connectivity(graph)
    result = fractional_cds_packing(graph, rng=seed)
    assert result.packing.size <= k + 1e-9
    result.packing.verify()


@_slow
@given(seed=st.integers(0, 10_000))
def test_spanning_packing_size_below_lambda(seed):
    from repro.core.spanning_packing import (
        MwuParameters,
        fractional_spanning_tree_packing,
    )

    graph = harary_graph(4, 12)
    lam = edge_connectivity(graph)
    params = MwuParameters(epsilon=0.3, max_iterations=300)
    packing = fractional_spanning_tree_packing(
        graph, params=params, rng=seed
    ).packing
    assert packing.size <= lam + 1e-9
    packing.verify()


class TestWhitneyTightness:
    """Deterministic spot checks of the inequality chain endpoints."""

    def test_harary_everything_equal(self):
        graph = harary_graph(6, 20)
        assert vertex_connectivity(graph) == 6
        assert edge_connectivity(graph) == 6
        assert min(d for _, d in graph.degree()) == 6

    def test_k_strictly_below_lambda(self):
        """Two K_5s sharing a single vertex-pair bridge structure."""
        graph = nx.Graph()
        left = nx.complete_graph(5)
        right = nx.relabel_nodes(nx.complete_graph(5), {i: i + 5 for i in range(5)})
        graph.update(left)
        graph.update(right)
        graph.add_edges_from([(0, 5), (1, 6)])
        k = vertex_connectivity(graph)
        lam = edge_connectivity(graph)
        assert k == lam == 2  # both cuts are the two bridges/endpoints
        ours, _ = even_tarjan_vertex_connectivity(graph)
        assert ours == k

    def test_lambda_strictly_below_min_degree(self):
        """Two K_6s joined by one edge: δ = 5 but λ = 1."""
        graph = nx.Graph()
        left = nx.complete_graph(6)
        right = nx.relabel_nodes(
            nx.complete_graph(6), {i: i + 6 for i in range(6)}
        )
        graph.update(left)
        graph.update(right)
        graph.add_edge(0, 6)
        assert edge_connectivity_exact(graph) == 1
        assert min(d for _, d in graph.degree()) >= 5
