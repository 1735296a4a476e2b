"""Property tests for the fastgraph kernel.

Two layers of guarantees:

* the kernel primitives (IndexedGraph, IntUnionFind, order-Kruskal)
  agree with networkx on random weighted graphs — MST cost always,
  MST *edge set* exactly when ties are broken by insertion index;
* the rewritten MWU packing is bit-identical to the preserved
  pre-kernel implementation under fixed seeds (same trees, same float
  weights, same iteration traces).
"""

from __future__ import annotations

import random

import networkx as nx
import pytest

from repro.core.spanning_packing import (
    MwuParameters,
    fractional_spanning_tree_packing,
    mwu_spanning_packing,
)
from repro.fastgraph.indexed import IndexedGraph
from repro.fastgraph.kruskal import NearSortedEdgeOrder, kruskal_from_order
from repro.fastgraph.union_find import IntUnionFind
from repro.graphs.generators import (
    fat_cycle,
    harary_graph,
    hypercube,
    random_regular_connected,
)
from repro.graphs.union_find import UnionFind
from tests.oracles.spanning_packing_reference import (
    fractional_spanning_tree_packing_reference,
    mwu_spanning_packing_reference,
)


def _random_weighted_graph(n: int, p: float, seed: int) -> nx.Graph:
    rnd = random.Random(seed)
    graph = nx.gnp_random_graph(n, p, seed=seed)
    # Connect stragglers so an MST exists.
    nodes = list(graph.nodes())
    for a, b in zip(nodes, nodes[1:]):
        if not nx.has_path(graph, a, b):
            graph.add_edge(a, b)
    for _, _, data in graph.edges(data=True):
        data["cost"] = rnd.random()
    return graph


class TestIndexedGraph:
    def test_roundtrip_preserves_structure(self):
        graph = harary_graph(5, 17)
        indexed = IndexedGraph.from_networkx(graph)
        assert indexed.n == graph.number_of_nodes()
        assert indexed.m == graph.number_of_edges()
        back = indexed.to_networkx()
        assert set(back.nodes()) == set(graph.nodes())
        assert {frozenset(e) for e in back.edges()} == {
            frozenset(e) for e in graph.edges()
        }

    def test_edge_order_matches_networkx_iteration(self):
        graph = harary_graph(6, 20)
        indexed = IndexedGraph.from_networkx(graph)
        for i, edge in enumerate(graph.edges()):
            assert frozenset(indexed.endpoints(i)) == frozenset(edge)

    def test_nx_edge_order_is_identity_on_full_graph(self):
        graph = harary_graph(4, 14)
        indexed = IndexedGraph.from_networkx(graph)
        assert indexed.nx_edge_order(range(indexed.m)) == list(range(indexed.m))

    def test_nx_edge_order_matches_rebuilt_subgraph(self):
        graph = harary_graph(6, 18)
        indexed = IndexedGraph.from_networkx(graph)
        rnd = random.Random(3)
        subset = [i for i in range(indexed.m) if rnd.random() < 0.5]
        # Build the part the way the pre-kernel code did and compare orders.
        part = nx.Graph()
        part.add_nodes_from(graph.nodes())
        part.add_edges_from(indexed.endpoints(i) for i in subset)
        expected = [frozenset(e) for e in part.edges()]
        got = [
            frozenset(indexed.endpoints(i))
            for i in indexed.nx_edge_order(subset)
        ]
        assert got == expected

    def test_tree_graph_equals_public_api_construction(self):
        graph = fat_cycle(3, 5)
        indexed = IndexedGraph.from_networkx(graph)
        edge_ids = kruskal_from_order(
            range(indexed.m), indexed.u, indexed.v, indexed.n
        )
        fast = indexed.tree_graph(edge_ids)
        slow = nx.Graph()
        slow.add_nodes_from(graph.nodes())
        slow.add_edges_from(indexed.endpoints(i) for i in edge_ids)
        assert set(fast.nodes()) == set(slow.nodes())
        assert {frozenset(e) for e in fast.edges()} == {
            frozenset(e) for e in slow.edges()
        }
        # The fast-path graph must behave like any other nx graph.
        assert fast.number_of_edges() == len(edge_ids)
        assert nx.is_forest(fast)
        fast.add_edge("sentinel-a", "sentinel-b")
        assert fast.has_edge("sentinel-b", "sentinel-a")

    def test_bfs_tree_edges_matches_networkx_bfs(self):
        graph = harary_graph(5, 16)
        indexed = IndexedGraph.from_networkx(graph)
        tree_ids = indexed.bfs_tree_edges(list(range(indexed.m)))
        root = indexed.nodes[0]
        expected = nx.bfs_tree(graph, root).to_undirected()
        got = {frozenset(indexed.endpoints(i)) for i in tree_ids}
        assert got == {frozenset(e) for e in expected.edges()}

    def test_is_connected_via(self):
        graph = harary_graph(4, 12)
        indexed = IndexedGraph.from_networkx(graph)
        assert indexed.is_connected_via()
        # A single edge cannot connect 12 nodes.
        assert not indexed.is_connected_via([0])


class TestIntUnionFind:
    def test_matches_generic_union_find_on_random_ops(self):
        rnd = random.Random(11)
        n = 60
        fast = IntUnionFind(n)
        slow = UnionFind(range(n))
        for _ in range(300):
            x, y = rnd.randrange(n), rnd.randrange(n)
            assert fast.union(x, y) == slow.union(x, y)
            assert fast.n_components == slow.n_components
            a, b = rnd.randrange(n), rnd.randrange(n)
            assert fast.connected(a, b) == slow.connected(a, b)
            assert fast.component_size(a) == slow.component_size(a)

    def test_reset_reuses_storage(self):
        uf = IntUnionFind(5)
        uf.union(0, 1)
        uf.union(2, 3)
        assert uf.n_components == 3
        uf.reset()
        assert uf.n_components == 5
        assert all(uf.find(i) == i for i in range(5))


class TestKruskal:
    @pytest.mark.parametrize("seed", range(8))
    def test_mst_cost_matches_networkx_on_random_graphs(self, seed):
        graph = _random_weighted_graph(24, 0.25, seed)
        indexed = IndexedGraph.from_networkx(graph)
        costs = [data["cost"] for _, _, data in graph.edges(data=True)]
        order = sorted(range(indexed.m), key=lambda i: (costs[i], i))
        tree = kruskal_from_order(order, indexed.u, indexed.v, indexed.n)
        expected = nx.minimum_spanning_tree(graph, weight="cost")
        assert len(tree) == expected.number_of_edges()
        got_cost = sum(costs[i] for i in tree)
        want_cost = sum(
            data["cost"] for _, _, data in expected.edges(data=True)
        )
        assert got_cost == pytest.approx(want_cost, rel=1e-12)

    @pytest.mark.parametrize("seed", range(8))
    def test_mst_edge_set_matches_networkx_exactly(self, seed):
        """(cost, index) tie-break reproduces nx's stable sort, even with
        heavily duplicated costs."""
        rnd = random.Random(100 + seed)
        graph = _random_weighted_graph(20, 0.3, seed)
        for _, _, data in graph.edges(data=True):
            data["cost"] = rnd.randrange(4)  # many ties
        indexed = IndexedGraph.from_networkx(graph)
        costs = [data["cost"] for _, _, data in graph.edges(data=True)]
        order = sorted(range(indexed.m), key=lambda i: (costs[i], i))
        tree = kruskal_from_order(order, indexed.u, indexed.v, indexed.n)
        got = {frozenset(indexed.endpoints(i)) for i in tree}
        expected = nx.minimum_spanning_tree(graph, weight="cost")
        assert got == {frozenset(e) for e in expected.edges()}

    def test_near_sorted_order_resort_is_exact(self):
        rnd = random.Random(7)
        m = 200
        keys = [rnd.random() for _ in range(m)]
        order = NearSortedEdgeOrder(m)
        assert order.resort(keys) == sorted(
            range(m), key=lambda i: (keys[i], i)
        )
        # Perturb a few keys (the MWU pattern) and re-sort.
        for _ in range(10):
            keys[rnd.randrange(m)] += 0.5
        assert order.resort(keys) == sorted(
            range(m), key=lambda i: (keys[i], i)
        )


class TestMwuBitIdentity:
    PARAMS = [
        MwuParameters(epsilon=0.15, beta_factor=1.0),
        MwuParameters(epsilon=0.2, beta_factor=3.0),
    ]

    GRAPHS = [
        ("harary(5,24)", lambda: harary_graph(5, 24)),
        ("harary(8,24)", lambda: harary_graph(8, 24)),
        ("hypercube(4)", lambda: hypercube(4)),
        ("fat_cycle(3,6)", lambda: fat_cycle(3, 6)),
        ("regular(8,24)", lambda: random_regular_connected(8, 24, rng=2)),
    ]

    @pytest.mark.parametrize("name,builder", GRAPHS)
    def test_mwu_collections_bit_identical(self, name, builder):
        graph = builder()
        for params in self.PARAMS:
            new, new_trace, new_target = mwu_spanning_packing(
                graph, params=params
            )
            ref, ref_trace, ref_target = mwu_spanning_packing_reference(
                graph, params=params
            )
            assert new_target == ref_target
            assert new_trace.iterations == ref_trace.iterations
            assert new_trace.stopped_early == ref_trace.stopped_early
            assert new_trace.max_relative_load == ref_trace.max_relative_load
            # Same trees in the same order with the same float weights —
            # not approximately: bit-identical.
            assert [key for key, _ in new] == [key for key, _ in ref]
            assert [w for _, w in new] == [w for _, w in ref]

    @staticmethod
    def _assert_same_packing(new, ref):
        assert new.size == ref.size
        assert new.target == ref.target
        assert new.parts == ref.parts
        assert len(new.packing) == len(ref.packing)
        for wt_new, wt_ref in zip(new.packing, ref.packing):
            assert wt_new.weight == wt_ref.weight
            assert wt_new.class_id == wt_ref.class_id
            assert wt_new.edges == wt_ref.edges
        new.packing.verify()

    @pytest.mark.parametrize("rng", [9, 61, 2024])
    def test_fractional_packing_bit_identical(self, rng):
        graph = harary_graph(6, 26)
        params = MwuParameters(epsilon=0.15, beta_factor=1.0)
        self._assert_same_packing(
            fractional_spanning_tree_packing(graph, params=params, rng=rng),
            fractional_spanning_tree_packing_reference(
                graph, params=params, rng=rng
            ),
        )

    def test_fractional_packing_bit_identical_at_n_120(self):
        """One run the size of the MWU's real inputs, λ given."""
        graph = harary_graph(6, 120)
        params = MwuParameters(epsilon=0.15, beta_factor=1.0)
        self._assert_same_packing(
            fractional_spanning_tree_packing(
                graph, lam=6, params=params, rng=9
            ),
            fractional_spanning_tree_packing_reference(
                graph, lam=6, params=params, rng=9
            ),
        )

    def test_rejects_disconnected(self):
        from repro.errors import GraphValidationError

        graph = nx.Graph([(0, 1), (2, 3)])
        with pytest.raises(GraphValidationError):
            mwu_spanning_packing(graph)


class TestKargerPartRegime:
    """End-to-end coverage of the η > 1 path (Section 5.2).

    No reasonably sized test graph has λ > 60·ln n/ε², so η > 1 is
    forced via the ``lam`` override — the regime where the kernel
    sizes parts as λ/η instead of re-running the oracle per part.
    Sizes legitimately differ from the reference here (that oracle fix
    is intentional), so the checks are structural: a valid packing
    over >1 edge-disjoint parts, with the same Karger partition drawn
    from the same seed.
    """

    def test_multi_part_packing_is_valid(self):
        graph = nx.complete_graph(16)
        params = MwuParameters(epsilon=0.5, max_iterations=40)
        lam_override = 3000  # forces eta > 1 in choose_karger_parts
        result = fractional_spanning_tree_packing(
            graph, lam=lam_override, params=params, rng=17
        )
        assert result.parts > 1
        result.packing.verify()
        assert result.packing.max_edge_load() <= 1.0 + 1e-9
        assert result.size > 0

    def test_multi_part_partition_matches_reference_draws(self):
        """Both implementations consume one randrange per edge in
        graph.edges() order, so the part edge sets coincide."""
        from repro.graphs.sampling import (
            choose_karger_parts,
            karger_edge_partition,
        )

        graph = nx.complete_graph(16)
        params = MwuParameters(epsilon=0.5, max_iterations=40)
        lam_override = 3000
        eta = choose_karger_parts(lam_override, 16, params.epsilon)
        assert eta > 1
        nx_parts = karger_edge_partition(graph, eta, rng=17)
        result = fractional_spanning_tree_packing(
            graph, lam=lam_override, params=params, rng=17
        )
        connected_parts = sum(
            1
            for part in nx_parts
            if part.number_of_edges() and nx.is_connected(part)
        )
        assert result.parts == connected_parts
        # Every packed tree's edges must live inside a single part.
        part_of_edge = {}
        for index, part in enumerate(nx_parts):
            for e in part.edges():
                part_of_edge[frozenset(e)] = index
        for wt in result.packing:
            parts_used = {part_of_edge[e] for e in wt.edges}
            assert len(parts_used) == 1
