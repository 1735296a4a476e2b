"""CDS-packing kernel equivalence: indexed pipeline vs preserved reference.

The fastgraph port of :mod:`repro.core.cds_packing` (index-side
recursion, union-find validity testing, index-side BFS tree extraction)
must be **bit-identical** to the label-level implementation
(``tests/oracles/cds_packing_reference.py``) under a fixed seed: same RNG
consumption, same valid classes, same trees edge-for-edge, same float
weights, same per-virtual-node assignment. This suite pins that on
fixed-seed random, clustered, and k-connected generator graphs —
mirroring the pinned-seed discipline of ``test_engine_equivalence.py``.
"""

from __future__ import annotations

import networkx as nx
import pytest

from repro.core.cds_packing import (
    PackingParameters,
    construct_cds_packing,
    fractional_cds_packing,
)
from repro.graphs.generators import (
    clique_chain,
    fat_cycle,
    gnp_connected,
    harary_graph,
    random_k_connected,
    random_regular_connected,
    torus_grid,
)
from tests.oracles.cds_packing_reference import (
    construct_cds_packing_reference,
    fractional_cds_packing_reference,
)

SEEDS = (0, 7, 41)

# name -> (builder, k_guess); spans the random / clustered / k-connected
# generator space of the paper's parameter regimes.
FAMILIES = [
    # fixed-seed random graphs
    ("gnp(26,0.3)", lambda: gnp_connected(26, 0.3, rng=5), 4),
    ("regular(6,30)", lambda: random_regular_connected(6, 30, rng=2), 6),
    # clustered topologies (cliques glued into chains / cycles)
    ("clique_chain(4,6)", lambda: clique_chain(4, 6), 4),
    ("fat_cycle(3,6)", lambda: fat_cycle(3, 6), 6),
    # k-connected generator graphs
    ("harary(5,24)", lambda: harary_graph(5, 24), 5),
    ("random_k_connected(24,4)", lambda: random_k_connected(24, 4, rng=11), 4),
    # one graph the size of the pipeline's real inputs
    ("harary(6,120)", lambda: harary_graph(6, 120), 6),
]


# Every layer of every FAMILIES case matches no type-2 node (all fall
# through to random classes). A k_guess far above κ gives many classes,
# each too sparse to be connected after the jump-start, so these cases
# match type-2 nodes and pin the matching branch too.
MATCHING = [
    ("torus(12,12)", lambda: torus_grid(12, 12), 72),
    ("harary(6,80)", lambda: harary_graph(6, 80), 40),
    # str labels: the candidate order depends on no set or hash order
    (
        "harary(6,40) str",
        lambda: nx.relabel_nodes(
            harary_graph(6, 40), {i: f"v{i}" for i in range(40)}
        ),
        60,
    ),
]


def _canonical(result):
    """Everything observable about a construction, hashable-comparable."""
    return {
        "valid_classes": result.valid_classes,
        "t_requested": result.t_requested,
        "t_used": result.t_used,
        "attempts": result.attempts,
        "size": result.packing.size,
        "layer_history": result.layer_history,
        "trees": [
            (
                wt.class_id,
                wt.weight,
                frozenset(wt.tree.nodes()),
                frozenset(frozenset(e) for e in wt.tree.edges()),
            )
            for wt in result.packing.trees
        ],
    }


class TestConstructEquivalence:
    @pytest.mark.parametrize("name,builder,k", FAMILIES, ids=[f[0] for f in FAMILIES])
    @pytest.mark.parametrize("seed", SEEDS)
    def test_bit_identical_construction(self, name, builder, k, seed):
        graph = builder()
        kernel = construct_cds_packing(graph, k, rng=seed)
        reference = construct_cds_packing_reference(graph, k, rng=seed)
        assert _canonical(kernel) == _canonical(reference)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_virtual_assignment_identical(self, seed):
        """The full 3Ln-entry virtual-node assignment matches, not just
        the projected packing — the recursion's every decision is pinned."""
        graph = harary_graph(5, 24)
        kernel = construct_cds_packing(graph, 5, rng=seed)
        reference = construct_cds_packing_reference(graph, 5, rng=seed)
        assert (
            kernel.virtual_graph.assignment
            == reference.virtual_graph.assignment
        )

    def test_nondefault_parameters(self):
        """Parameter variations (more classes, fewer layers) stay pinned."""
        graph = harary_graph(6, 30)
        params = PackingParameters(class_factor=1.0, layer_factor=1)
        kernel = construct_cds_packing(graph, 6, params=params, rng=13)
        reference = construct_cds_packing_reference(
            graph, 6, params=params, rng=13
        )
        assert _canonical(kernel) == _canonical(reference)

    def test_retry_path_identical(self):
        """An over-large k_guess exercises the halving retry loop in both
        implementations identically (attempts > 1 or not, same either way)."""
        graph = clique_chain(3, 5)
        kernel = construct_cds_packing(graph, 12, rng=3)
        reference = construct_cds_packing_reference(graph, 12, rng=3)
        assert _canonical(kernel) == _canonical(reference)


class TestMatchingEquivalence:
    @pytest.mark.parametrize("name,builder,k", MATCHING, ids=[f[0] for f in MATCHING])
    @pytest.mark.parametrize("seed", SEEDS)
    def test_bit_identical_construction(self, name, builder, k, seed):
        graph = builder()
        kernel = construct_cds_packing(graph, k, rng=seed)
        reference = construct_cds_packing_reference(graph, k, rng=seed)
        assert _canonical(kernel) == _canonical(reference)

    @pytest.mark.parametrize("name,builder,k", MATCHING, ids=[f[0] for f in MATCHING])
    def test_cases_match_type2_nodes(self, name, builder, k):
        """The matching branch stays covered: these constructions match
        type-2 nodes (the reference agrees on every count above)."""
        graph = builder()
        histories = [
            construct_cds_packing(graph, k, rng=seed).layer_history
            for seed in SEEDS
        ]
        assert sum(s.matched for history in histories for s in history) > 0


class TestGuessLoopEquivalence:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_fractional_guessing_identical(self, seed):
        """The Remark 3.1 try-and-error loop (k unknown) consumes the RNG
        identically across guesses and returns the same accepted packing."""
        graph = harary_graph(4, 20)
        kernel = fractional_cds_packing(graph, rng=seed)
        reference = fractional_cds_packing_reference(graph, rng=seed)
        assert _canonical(kernel) == _canonical(reference)
        assert kernel.k_guess == reference.k_guess
