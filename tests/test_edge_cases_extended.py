"""Degenerate-input sweep over the newer public APIs.

The original edge-case suite covers the core packing functions; this
file pushes the same degenerate inputs (singletons, two-node graphs,
complete graphs, stars) through the exact test oracles (Roskind–Tarjan
packing, greedy CDS), the coding app, the upcast primitive, and the
workload generators, pinning the intended behavior — a helpful error,
not a wrong answer. The kernel's λ and κ on the same inputs are
checked in ``tests/test_flow.py``; the star's cut vertex is pinned here
too.
"""

from __future__ import annotations

import networkx as nx

from repro.analysis.workloads import balanced_workload, uniform_workload
from repro.apps.network_coding import rlnc_gossip
from repro.graphs import connectivity
from repro.simulator.algorithms.pipelined_upcast import pipelined_upcast
from repro.simulator.network import Network
from tests.oracles.greedy_cds import greedy_connected_dominating_set
from tests.oracles.tree_packing_exact import (
    edge_disjoint_spanning_forests,
    spanning_tree_packing_number,
)


def _singleton():
    graph = nx.Graph()
    graph.add_node("only")
    return graph


def _two_nodes():
    return nx.path_graph(2)


class TestSingletonGraph:
    def test_packing_number_zero(self):
        assert spanning_tree_packing_number(_singleton()) == 0

    def test_forest_union_is_empty(self):
        (forest,) = edge_disjoint_spanning_forests(_singleton(), 1)
        assert forest.number_of_edges() == 0
        assert forest.number_of_nodes() == 1

    def test_greedy_cds_is_the_node(self):
        assert greedy_connected_dominating_set(_singleton()) == {"only"}

    def test_rlnc_single_node_single_message(self):
        out = rlnc_gossip(_singleton(), {0: "only"}, rng=1)
        assert out.slots == 0  # one node starts at full rank
        assert out.n_messages == 1

    def test_upcast_trivial(self):
        network = Network(_singleton(), rng=1)
        result = pipelined_upcast(network, {"only": [(0, "x")]})
        assert result.collected == [(0, "x")]
        assert result.tree_depth == 0

    def test_workloads_place_on_the_node(self):
        workload = uniform_workload(_singleton(), 3, rng=1)
        assert set(workload.values()) == {"only"}


class TestTwoNodeGraph:
    def test_packing_number_one(self):
        assert spanning_tree_packing_number(_two_nodes()) == 1

    def test_rlnc_completes(self):
        out = rlnc_gossip(_two_nodes(), {0: 0, 1: 1}, rng=2)
        assert out.slots >= 1

    def test_upcast_single_edge(self):
        network = Network(_two_nodes(), rng=1)
        result = pipelined_upcast(network, {1: [(0, "item")]})
        assert result.collected == [(0, "item")]


class TestCompleteGraph:
    def test_packing_number_floor_n_over_2(self):
        # K_n packs exactly ⌊n/2⌋ edge-disjoint spanning trees.
        assert spanning_tree_packing_number(nx.complete_graph(8)) == 4
        assert spanning_tree_packing_number(nx.complete_graph(9)) == 4

    def test_balanced_workload_even(self):
        graph = nx.complete_graph(6)
        workload = balanced_workload(graph, 12)
        assert len(workload) == 12


class TestStarGraph:
    """The star is the extreme 1-connected case: one cut vertex."""

    def test_connectivity_one_and_center_cut(self):
        graph = nx.star_graph(6)
        assert connectivity.vertex_connectivity(graph) == 1
        assert connectivity.min_vertex_cut(graph) == {0}

    def test_single_spanning_tree(self):
        assert spanning_tree_packing_number(nx.star_graph(6)) == 1

    def test_greedy_cds_center_only(self):
        assert greedy_connected_dominating_set(nx.star_graph(6)) == {0}

    def test_rlnc_through_the_center(self):
        graph = nx.star_graph(5)
        out = rlnc_gossip(graph, {i: i for i in range(4)}, rng=3)
        # Leaves only hear the center: every leaf-to-leaf transfer takes
        # two slots, so slots must exceed the message count / degree.
        assert out.slots >= 2


class TestModelViolationSurfaces:
    def test_upcast_pipeline_bound_nonnegative(self):
        network = Network(nx.path_graph(3), rng=1)
        result = pipelined_upcast(network, {})
        assert result.pipeline_bound >= 0
        assert result.total_items == 0
