"""Centralized fractional CDS packing (Theorem 1.2 / Appendix C driver)."""

import math

import networkx as nx
import pytest

from repro.errors import GraphValidationError
from repro.core.cds_packing import (
    PackingParameters,
    build_cds_classes,
    construct_cds_packing,
    fractional_cds_packing,
)
from repro.graphs.connectivity import vertex_connectivity
from repro.graphs.generators import clique_chain, fat_cycle, harary_graph


class TestConstruction:
    def test_packing_valid_on_families(self, family_graph):
        k = vertex_connectivity(family_graph)
        result = construct_cds_packing(family_graph, k, rng=21)
        result.packing.verify()  # raises on any violation
        assert result.size > 0

    def test_membership_bound(self, harary_6_30):
        """Theorem 1.1: each node in O(log n) trees — concretely <= 3L."""
        result = construct_cds_packing(harary_6_30, 6, rng=22)
        layers = result.virtual_graph.layers
        counts = result.packing.trees_per_node()
        assert max(counts.values()) <= 3 * layers

    def test_size_lower_bound_certifies_connectivity(self, family_graph):
        """Any valid fractional dominating tree packing certifies k >= size."""
        k = vertex_connectivity(family_graph)
        result = construct_cds_packing(family_graph, k, rng=23)
        assert result.size <= k + 1e-9

    def test_tree_diameter_bound_loose(self, chain_graph):
        """Theorem 1.1 trees have diameter Õ(n/k); sanity: <= n."""
        result = construct_cds_packing(chain_graph, 4, rng=24)
        assert result.packing.max_diameter() <= chain_graph.number_of_nodes()

    def test_layer_history_recorded(self, harary_4_20):
        result = construct_cds_packing(harary_4_20, 4, rng=25)
        layers = result.virtual_graph.layers
        assert len(result.layer_history) == layers // 2

    def test_lemma_4_6_class_sizes(self, harary_6_30):
        """Lemma 4.6: each class has O(n log n / k) virtual nodes."""
        g = harary_6_30
        n, k = g.number_of_nodes(), 6
        vg, _ = build_cds_classes(g, n_classes=3, n_layers=8, rng=26)
        bound = 40 * n * math.log(n) / k  # generous constant
        assert all(c <= bound for c in vg.virtual_counts_per_class())

    def test_rejects_disconnected(self):
        g = nx.Graph([(0, 1), (2, 3)])
        with pytest.raises(GraphValidationError):
            construct_cds_packing(g, 1)

    def test_connectivity_read_once_per_index(self, monkeypatch):
        """Remark 3.1's guesses share one CdsIndex, so the graph's
        connectivity is read once, not once per guess."""
        calls = []
        original = nx.is_connected

        def counting(graph):
            calls.append(graph)
            return original(graph)

        monkeypatch.setattr(nx, "is_connected", counting)
        result = fractional_cds_packing(nx.cycle_graph(64), rng=31)
        assert result.k_guess < 32  # the first guess, n/2, was rejected
        assert len(calls) == 1

    def test_rejects_bad_k(self, harary_4_20):
        with pytest.raises(GraphValidationError):
            construct_cds_packing(harary_4_20, 0)

    def test_deterministic_under_seed(self, harary_4_20):
        r1 = construct_cds_packing(harary_4_20, 4, rng=99)
        r2 = construct_cds_packing(harary_4_20, 4, rng=99)
        assert r1.valid_classes == r2.valid_classes
        assert abs(r1.size - r2.size) < 1e-12


class TestGuessing:
    def test_try_and_error_returns_valid(self, harary_4_20):
        result = fractional_cds_packing(harary_4_20, rng=31)
        result.packing.verify()
        assert result.size >= 0.5

    def test_known_k_matches_direct_call(self, harary_4_20):
        direct = construct_cds_packing(harary_4_20, 4, rng=32)
        viaapi = fractional_cds_packing(harary_4_20, k=4, rng=32)
        assert direct.valid_classes == viaapi.valid_classes

    def test_works_on_low_connectivity(self):
        g = nx.cycle_graph(12)
        result = fractional_cds_packing(g, rng=33)
        result.packing.verify()


class TestParameters:
    def test_n_classes_scaling(self):
        p = PackingParameters(class_factor=0.5)
        assert p.n_classes(8) == 4
        assert p.n_classes(1) == 1

    def test_layers_even(self):
        p = PackingParameters()
        for n in (4, 100, 999):
            assert p.n_layers(n) % 2 == 0

    def test_retry_shrinks_classes(self):
        """With an absurd guess the construction retries and still returns
        a valid (smaller) packing."""
        g = nx.cycle_graph(16)  # k = 2
        result = construct_cds_packing(g, 8, rng=34)
        result.packing.verify()
        assert result.t_used <= result.t_requested
