"""Edge cases and failure-mode coverage across the stack."""

import networkx as nx
import pytest

from repro.errors import (
    GraphValidationError,
    ModelViolationError,
    PackingConstructionError,
)
from repro.core.bridging import assign_layer, jump_start, run_recursion
from repro.core.cds_packing import construct_cds_packing
from repro.core.spanning_packing import (
    MwuParameters,
    fractional_spanning_tree_packing,
)
from repro.core.vertex_connectivity import (
    approximate_vertex_connectivity_distributed,
)
from repro.core.virtual_graph import VirtualGraph
from repro.graphs.generators import harary_graph, torus_grid
from repro.simulator.algorithms.multikey_flood import multikey_flood
from repro.simulator.network import Network
from tests.oracles.cds_packing_reference import (
    ReferenceVirtualGraph,
    run_recursion_reference,
)


class TestTinyGraphs:
    def test_two_node_graph_packs(self):
        g = nx.Graph([(0, 1)])
        result = construct_cds_packing(g, 1, rng=1)
        result.packing.verify()
        assert result.size >= 0.5

    def test_two_node_spanning(self):
        g = nx.Graph([(0, 1)])
        result = fractional_spanning_tree_packing(g, rng=2)
        result.packing.verify()
        assert result.size == pytest.approx(1.0)

    def test_triangle(self):
        g = nx.complete_graph(3)
        result = construct_cds_packing(g, 2, rng=3)
        result.packing.verify()

    def test_star_low_connectivity(self):
        g = nx.star_graph(6)
        result = construct_cds_packing(g, 1, rng=4)
        result.packing.verify()
        # The center is the only CDS core; every tree must contain it.
        for wt in result.packing:
            assert 0 in wt.tree.nodes()


class TestAblationFlags:
    def test_flags_reachable_and_still_assign_everything(self):
        g = harary_graph(4, 14)
        for use_b in (True, False):
            for use_c in (True, False):
                vg = VirtualGraph(g, layers=4, n_classes=3)
                jump_start(vg, rng=5)
                stats = assign_layer(
                    vg,
                    3,
                    rng=6,
                    use_deactivation=use_b,
                    require_type3_witness=use_c,
                )
                assert stats.matched + stats.random_type2 == 14

    @pytest.mark.parametrize("use_b", (True, False))
    @pytest.mark.parametrize("use_c", (True, False))
    def test_flags_match_the_reference(self, use_b, use_c):
        """Every ablation branch of the sweep (bench_ablation's A2 rows)
        is bit-identical to the preserved reference, on a recursion that
        matches type-2 nodes."""
        g = torus_grid(12, 12)
        vg = VirtualGraph(g, layers=8, n_classes=36)
        history = run_recursion(
            vg, 5, use_deactivation=use_b, require_type3_witness=use_c
        )
        reference = ReferenceVirtualGraph(g, layers=8, n_classes=36)
        reference_history = run_recursion_reference(
            reference, 5, use_deactivation=use_b, require_type3_witness=use_c
        )
        assert history == reference_history
        assert vg.assignment == reference.assignment
        assert sum(stats.matched for stats in history) > 0

    def test_disabling_witness_increases_matches(self):
        """Without condition (c), far more (useless) matches happen —
        the ablation signal of bench_ablation.py in miniature."""
        g = harary_graph(6, 40)
        totals = {}
        for use_c in (True, False):
            matched = 0
            for seed in range(3):
                vg = VirtualGraph(g, layers=8, n_classes=24)
                jump_start(vg, rng=seed)
                for layer in range(5, 9):
                    stats = assign_layer(
                        vg, layer, rng=seed + layer,
                        require_type3_witness=use_c,
                    )
                    matched += stats.matched
            totals[use_c] = matched
        assert totals[False] >= totals[True]


class TestMultikeyBudget:
    def test_oversubscribed_keys_rejected(self):
        """Declaring keys_bound=1 while flooding many keys must trip the
        model's bit budget — the meta-round accounting is enforced."""
        g = nx.complete_graph(6)
        net = Network(g, rng=7)
        many_keys = {v: {i: v * 1000 + i for i in range(64)} for v in net.nodes}
        allowed = {
            v: {i: set(g.neighbors(v)) for i in range(64)} for v in net.nodes
        }
        with pytest.raises(ModelViolationError):
            multikey_flood(net, many_keys, allowed, keys_bound=1)


class TestDistributedVcApprox:
    def test_interval_and_rounds(self):
        from repro.graphs.connectivity import vertex_connectivity

        g = harary_graph(4, 16)
        estimate, dist = approximate_vertex_connectivity_distributed(
            g, k_guess=4, rng=8
        )
        assert estimate.contains(vertex_connectivity(g))
        assert dist.meta_rounds > 0

    def test_guess_loop_without_k(self):
        g = harary_graph(4, 14)
        estimate, dist = approximate_vertex_connectivity_distributed(g, rng=9)
        assert estimate.lower_bound >= 1


class TestExplicitLambda:
    def test_spanning_with_given_lambda(self):
        g = harary_graph(6, 18)
        result = fractional_spanning_tree_packing(
            g, lam=6, params=MwuParameters(epsilon=0.2), rng=10
        )
        assert result.lam == 6
        result.packing.verify()

    def test_underestimated_lambda_still_valid(self):
        """A too-small λ hint lowers the target but never breaks validity."""
        g = harary_graph(8, 18)
        result = fractional_spanning_tree_packing(
            g, lam=4, params=MwuParameters(epsilon=0.2), rng=11
        )
        result.packing.verify()
        assert result.target == 2
