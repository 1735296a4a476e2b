"""Distributed building blocks: flooding, BFS, convergecast, subgraph
flooding, exchange, multi-key flood, Borůvka MST."""

import networkx as nx
import pytest

from repro.graphs.generators import clique_chain, harary_graph
from repro.simulator.algorithms.bfs import build_bfs_tree
from repro.simulator.algorithms.boruvka import distributed_mst
from repro.simulator.algorithms.convergecast import converge_sum
from repro.simulator.algorithms.exchange import exchange_once
from repro.simulator.algorithms.flooding import elect_leader, flood_extremum
from repro.simulator.algorithms.multikey_flood import multikey_flood
from repro.simulator.algorithms.subgraph_flood import (
    identify_components,
    subgraph_extremum,
)
from repro.simulator.network import Network
from repro.simulator.transport import Model


@pytest.fixture
def cycle_net():
    return Network(nx.cycle_graph(10), rng=5)


class TestFlooding:
    def test_everyone_learns_min(self, cycle_net):
        values = {v: 100 - v for v in cycle_net.nodes}
        result = flood_extremum(cycle_net, values, minimize=True)
        assert all(result.outputs[v] == 91 for v in cycle_net.nodes)

    def test_everyone_learns_max(self, cycle_net):
        values = {v: v * 3 for v in cycle_net.nodes}
        result = flood_extremum(cycle_net, values, minimize=False)
        assert all(result.outputs[v] == 27 for v in cycle_net.nodes)

    def test_rounds_about_diameter(self, cycle_net):
        values = {v: v for v in cycle_net.nodes}
        result = flood_extremum(cycle_net, values)
        assert result.metrics.rounds <= cycle_net.diameter() + 3

    def test_leader_unique_and_agreed(self, cycle_net):
        leader, result = elect_leader(cycle_net)
        winning = cycle_net.node_id(leader)
        assert all(result.outputs[v] == winning for v in cycle_net.nodes)
        assert winning == max(cycle_net.node_id(v) for v in cycle_net.nodes)


class TestBfs:
    def test_distances_match_networkx(self):
        g = harary_graph(4, 18)
        net = Network(g, rng=1)
        tree, _ = build_bfs_tree(net, 0)
        expected = nx.single_source_shortest_path_length(g, 0)
        assert tree.distance == expected

    def test_parents_consistent(self):
        g = clique_chain(3, 5)
        net = Network(g, rng=2)
        tree, _ = build_bfs_tree(net, 0)
        for v, parent in tree.parent.items():
            if parent is None:
                assert v == 0
            else:
                assert g.has_edge(v, parent)
                assert tree.distance[v] == tree.distance[parent] + 1

    def test_children_inverse_of_parent(self):
        g = nx.cycle_graph(7)
        net = Network(g, rng=3)
        tree, _ = build_bfs_tree(net, 0)
        kids = tree.children()
        count = sum(len(c) for c in kids.values())
        assert count == 6  # everyone but the root is someone's child


class TestConvergecast:
    def test_sum_over_tree(self):
        g = harary_graph(4, 14)
        net = Network(g, rng=4)
        tree, _ = build_bfs_tree(net, 0)
        total, _ = converge_sum(net, tree, {v: v for v in net.nodes})
        assert total == sum(range(14))

    def test_counting_nodes(self):
        g = nx.cycle_graph(9)
        net = Network(g, rng=5)
        tree, _ = build_bfs_tree(net, 3)
        total, _ = converge_sum(net, tree, {v: 1 for v in net.nodes})
        assert total == 9


class TestExchange:
    def test_hears_exactly_neighbors(self):
        g = nx.path_graph(4)
        net = Network(g, rng=6)
        heard, _ = exchange_once(net, {v: v * 10 for v in net.nodes})
        assert heard[0] == {1: 10}
        assert heard[1] == {0: 0, 2: 20}

    def test_silent_nodes_not_heard(self):
        g = nx.path_graph(3)
        net = Network(g, rng=7)
        heard, _ = exchange_once(net, {0: 5, 1: None, 2: 7})
        assert heard[1] == {0: 5, 2: 7}
        assert heard[0] == {}

    def test_single_round_cost(self):
        g = nx.cycle_graph(5)
        net = Network(g, rng=8)
        _, result = exchange_once(net, {v: 1 for v in net.nodes})
        assert result.metrics.rounds <= 2


class TestSubgraphFlood:
    def test_components_identified(self):
        g = nx.cycle_graph(8)
        net = Network(g, rng=9)
        # subgraph: two arcs {0,1,2} and {4,5,6}
        members = {0, 1, 2, 4, 5, 6}
        adjacency = {
            v: {
                u
                for u in g.neighbors(v)
                if u in members and v in members and abs(u - v) in (1, 7)
                and ((u <= 2 and v <= 2) or (u >= 4 and v >= 4))
            }
            for v in g.nodes()
        }
        comp_of, _ = identify_components(net, members, adjacency)
        assert comp_of[3] is None and comp_of[7] is None
        assert comp_of[0] == comp_of[1] == comp_of[2]
        assert comp_of[4] == comp_of[5] == comp_of[6]
        assert comp_of[0] != comp_of[4]

    def test_extremum_respects_subgraph(self):
        g = nx.path_graph(5)
        net = Network(g, rng=10)
        members = {0, 1, 3, 4}
        adjacency = {0: {1}, 1: {0}, 3: {4}, 4: {3}, 2: set()}
        values = {0: 7, 1: 9, 3: 1, 4: 2, 2: None}
        result = subgraph_extremum(net, members, adjacency, values)
        assert result.outputs[0] == result.outputs[1] == 7
        assert result.outputs[3] == result.outputs[4] == 1
        assert result.outputs[2] is None


class TestMultikeyFlood:
    def test_independent_keys(self):
        g = nx.path_graph(4)
        net = Network(g, rng=11)
        # Key 0 lives on {0,1}; key 1 on {2,3}; key 2 on all nodes.
        values = {
            0: {0: 5, 2: 40},
            1: {0: 3, 2: 41},
            2: {1: 9, 2: 38},
            3: {1: 8, 2: 44},
        }
        allowed = {
            0: {0: {1}, 2: {1}},
            1: {0: {0}, 2: {0, 2}},
            2: {1: {3}, 2: {1, 3}},
            3: {1: {2}, 2: {2}},
        }
        result = multikey_flood(net, values, allowed, minimize=True, keys_bound=2)
        assert result.outputs[0][0] == 3 and result.outputs[1][0] == 3
        assert result.outputs[2][1] == 8 and result.outputs[3][1] == 8
        assert all(result.outputs[v][2] == 38 for v in net.nodes)

    def test_maximize_mode(self):
        g = nx.path_graph(3)
        net = Network(g, rng=12)
        values = {v: {0: v} for v in net.nodes}
        allowed = {
            v: {0: set(g.neighbors(v))} for v in net.nodes
        }
        result = multikey_flood(net, values, allowed, minimize=False)
        assert all(result.outputs[v][0] == 2 for v in net.nodes)


class TestBoruvka:
    def test_mst_weight_matches_networkx(self):
        g = harary_graph(4, 16)
        weights = {
            frozenset(e): (hash(frozenset(e)) % 97) + 1 for e in g.edges()
        }
        for (u, v), w in zip(g.edges(), weights.values()):
            g[u][v]["weight"] = weights[frozenset((u, v))]
        net = Network(g, rng=13)
        result = distributed_mst(
            net, lambda u, v: weights[frozenset((u, v))], model=Model.E_CONGEST
        )
        ours = sum(weights[e] for e in result.edges)
        reference = sum(
            d["weight"]
            for _, _, d in nx.minimum_spanning_tree(g).edges(data=True)
        )
        assert ours == reference

    def test_result_is_spanning_tree(self):
        g = clique_chain(3, 6)
        net = Network(g, rng=14)
        result = distributed_mst(net, lambda u, v: 1.0)
        t = nx.Graph()
        t.add_nodes_from(g.nodes())
        t.add_edges_from(tuple(e) for e in result.edges)
        assert nx.is_tree(t)

    def test_analytic_report_attached(self):
        g = nx.cycle_graph(8)
        net = Network(g, rng=15)
        result = distributed_mst(net, lambda u, v: 1.0)
        assert result.report.analytic[0].name == "kutten-peleg-mst"
        assert result.report.analytic_total() > 0
