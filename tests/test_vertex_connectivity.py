"""Corollary 1.7: O(log n) vertex connectivity approximation."""

import math

import networkx as nx
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.api import GraphSession
from repro.core.vertex_connectivity import (
    approximate_vertex_connectivity,
    estimate_from_packing,
)
from repro.core.cds_packing import construct_cds_packing
from repro.graphs.connectivity import vertex_connectivity
from repro.graphs.generators import (
    clique_chain,
    fat_cycle,
    harary_graph,
    hypercube,
    torus_grid,
)


class TestApproximation:
    @pytest.mark.parametrize(
        "builder",
        [
            lambda: harary_graph(4, 20),
            lambda: harary_graph(6, 24),
            lambda: clique_chain(4, 5),
            lambda: fat_cycle(3, 6),
            lambda: hypercube(4),
            lambda: torus_grid(5, 5),
        ],
    )
    def test_interval_contains_true_k(self, builder):
        g = builder()
        k = vertex_connectivity(g)
        est = approximate_vertex_connectivity(g, rng=81)
        assert est.contains(k), (
            f"true k={k} outside [{est.lower_bound}, {est.upper_bound}]"
        )

    def test_approximation_ratio_is_logarithmic(self):
        g = harary_graph(6, 24)
        est = approximate_vertex_connectivity(g, rng=82)
        n = g.number_of_nodes()
        ratio = est.upper_bound / max(est.lower_bound, 1)
        assert ratio <= 12 * math.log(n)

    def test_lower_bound_is_certified(self):
        """lower_bound <= k holds unconditionally (cut argument)."""
        for builder in (lambda: harary_graph(4, 16), lambda: hypercube(3)):
            g = builder()
            k = vertex_connectivity(g)
            est = approximate_vertex_connectivity(g, rng=83)
            assert est.lower_bound <= k + 1e-9

    def test_estimate_inside_interval(self):
        g = harary_graph(4, 16)
        est = approximate_vertex_connectivity(g, rng=84)
        assert est.lower_bound <= est.estimate <= est.upper_bound

    def test_from_existing_packing(self):
        g = harary_graph(5, 20)
        result = construct_cds_packing(g, 5, rng=85)
        est = estimate_from_packing(g, result)
        assert est.packing_size == pytest.approx(result.size)
        assert est.n_trees == len(result.packing)

    def test_cycle_low_connectivity(self):
        g = nx.cycle_graph(16)
        est = approximate_vertex_connectivity(g, rng=86)
        assert est.contains(2)


#: (spec, κ) with κ known by construction, n ≤ 64. Harary graphs have
#: κ = δ; clique chains (κ = k, δ = 2k − 1) and fat cycles (κ = 2w,
#: δ = 3w − 1) sit below δ, so the minimum degree alone cannot hold
#: their upper end.
HARARY = st.integers(4, 64).flatmap(
    lambda n: st.integers(2, n - 2).map(lambda k: (f"harary:{k},{n}", k))
)
CLIQUE_CHAIN = st.integers(1, 21).flatmap(
    lambda k: st.integers(3, 64 // k).map(
        lambda length: (f"clique_chain:{k},{length}", k)
    )
)
FAT_CYCLE = st.integers(1, 16).flatmap(
    lambda w: st.integers(4, 64 // w).map(
        lambda length: (f"fat_cycle:{w},{length}", 2 * w)
    )
)


@settings(max_examples=15, deadline=None)
@given(st.one_of(HARARY, CLIQUE_CHAIN, FAT_CYCLE))
@example(("harary:24,32", 24))  # a fixed 6·ln n stretch read [1, 20.79]
@example(("clique_chain:1,38", 1))  # nine weights of 1/9 sum past 1.0
def test_interval_contains_kappa(case):
    """Corollary 1.7's interval holds κ on seeds 0–9, no oracle needed."""
    spec, kappa = case
    session = GraphSession(spec)
    for seed in range(10):
        estimate = session.connectivity(seed=seed).raw
        assert estimate.contains(kappa), (spec, seed, estimate)
