"""Tests for the greedy CDS baseline (Guha–Khuller line)."""

from __future__ import annotations

import random

import networkx as nx
import pytest

from repro.errors import GraphValidationError
from repro.graphs.connectivity import is_connected_dominating_set
from repro.graphs.generators import (
    clique_chain,
    fat_cycle,
    harary_graph,
    hypercube,
    torus_grid,
)
from tests.oracles.greedy_cds import (
    greedy_cds_partition,
    greedy_connected_dominating_set,
)


class TestGreedyCds:
    @pytest.mark.parametrize(
        "builder",
        [
            lambda: nx.path_graph(9),
            lambda: nx.cycle_graph(10),
            lambda: nx.star_graph(8),
            lambda: harary_graph(4, 20),
            lambda: hypercube(4),
            lambda: clique_chain(4, 5),
            lambda: fat_cycle(3, 6),
            lambda: torus_grid(5, 5),
            lambda: nx.complete_graph(6),
        ],
    )
    def test_result_is_cds(self, builder):
        graph = builder()
        cds = greedy_connected_dominating_set(graph)
        assert is_connected_dominating_set(graph, cds)

    def test_star_selects_only_center(self):
        assert greedy_connected_dominating_set(nx.star_graph(7)) == {0}

    def test_complete_graph_selects_one_node(self):
        assert len(greedy_connected_dominating_set(nx.complete_graph(9))) == 1

    def test_path_interior(self):
        cds = greedy_connected_dominating_set(nx.path_graph(6))
        assert is_connected_dominating_set(nx.path_graph(6), cds)
        # Optimal CDS of P6 has the 4 interior nodes.
        assert len(cds) <= 4

    def test_single_node_graph(self):
        graph = nx.Graph()
        graph.add_node("only")
        assert greedy_connected_dominating_set(graph) == {"only"}

    def test_two_node_graph(self):
        graph = nx.path_graph(2)
        cds = greedy_connected_dominating_set(graph)
        assert len(cds) == 1

    def test_rejects_empty(self):
        with pytest.raises(GraphValidationError):
            greedy_connected_dominating_set(nx.Graph())

    def test_rejects_disconnected(self):
        graph = nx.Graph()
        graph.add_edges_from([(0, 1), (2, 3)])
        with pytest.raises(GraphValidationError):
            greedy_connected_dominating_set(graph)

    def test_deterministic(self):
        graph = harary_graph(5, 21)
        assert greedy_connected_dominating_set(
            graph
        ) == greedy_connected_dominating_set(graph)

    def test_random_graphs_give_valid_small_sets(self):
        rng = random.Random(3)
        for _ in range(10):
            graph = nx.gnp_random_graph(16, 0.3, seed=rng.randint(0, 10**6))
            if not nx.is_connected(graph):
                continue
            cds = greedy_connected_dominating_set(graph)
            assert is_connected_dominating_set(graph, cds)
            assert len(cds) < graph.number_of_nodes()


class TestGreedyPartition:
    def test_classes_are_disjoint_cdss(self):
        graph = harary_graph(6, 24)
        classes = greedy_cds_partition(graph, 6)
        assert classes, "highly connected graph must yield at least one CDS"
        used = set()
        for cds in classes:
            assert is_connected_dominating_set(graph, cds)
            assert not (cds & used)
            used |= cds

    def test_limit_respected(self):
        graph = nx.complete_graph(10)
        classes = greedy_cds_partition(graph, 3)
        assert len(classes) == 3

    def test_sparse_graph_yields_single_class(self):
        graph = nx.path_graph(8)
        classes = greedy_cds_partition(graph, 4)
        # A path's CDS uses all interior nodes; at most one class fits.
        assert len(classes) <= 1

    def test_rejects_bad_limit(self):
        with pytest.raises(GraphValidationError):
            greedy_cds_partition(nx.path_graph(4), 0)

    def test_partition_count_scales_with_connectivity(self):
        """More vertex connectivity supports more disjoint CDSs — the
        existential fact behind [12] that the paper's packing mines."""
        low = len(greedy_cds_partition(harary_graph(3, 24), 12))
        high = len(greedy_cds_partition(nx.complete_graph(24), 12))
        assert high >= low
