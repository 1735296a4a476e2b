"""E18 — exact comparators vs. the paper's decompositions.

Two comparisons the paper itself makes in prose, each against an
oracle kept beside the tests (``tests/oracles/``):

* Spanning side (E18a): the Roskind–Tarjan exact packing realizes the
  Tutte/Nash-Williams number; our MWU fractional packing (Theorem 1.3)
  must land within (1 − ε) of ⌈(λ−1)/2⌉, and never above λ, read from
  the kernel's exact oracle.
* Vertex side (E18c): the greedy CDS baseline calibrates per-class
  sizes (Lemma 4.6's O(n log n / k)).

E18b (Even–Tarjan against networkx) and E18d (a Karger skeleton over
Stoer–Wagner) are retired; EXPERIMENTS.md keeps their final tables.
The kernel's λ and κ are checked against networkx in
``tests/test_flow.py``.
"""

from __future__ import annotations

import math

import pytest

from benchmarks.conftest import print_table
from repro.core.cds_packing import fractional_cds_packing
from repro.core.spanning_packing import fractional_spanning_tree_packing
from repro.graphs.connectivity import (
    edge_connectivity,
    is_connected_dominating_set,
)
from repro.graphs.generators import (
    clique_chain,
    fat_cycle,
    harary_graph,
    hypercube,
    torus_grid,
)
from tests.oracles.greedy_cds import greedy_connected_dominating_set
from tests.oracles.tree_packing_exact import spanning_tree_packing_number

FAMILIES = [
    ("harary(4,20)", lambda: harary_graph(4, 20)),
    ("harary(6,24)", lambda: harary_graph(6, 24)),
    ("clique_chain(4,5)", lambda: clique_chain(4, 5)),
    ("fat_cycle(3,6)", lambda: fat_cycle(3, 6)),
    ("hypercube(4)", lambda: hypercube(4)),
    ("torus(5,5)", lambda: torus_grid(5, 5)),
]


@pytest.mark.benchmark(group="E18-baselines")
def test_e18_spanning_packing_vs_exact(benchmark):
    rows = []

    def run_all():
        rows.clear()
        for name, builder in FAMILIES:
            graph = builder()
            lam = edge_connectivity(graph)
            exact = spanning_tree_packing_number(graph)
            tutte = math.ceil((lam - 1) / 2)
            packing = fractional_spanning_tree_packing(graph, rng=5).packing
            rows.append(
                (name, lam, tutte, exact, packing.size, packing.size / max(tutte, 1))
            )
        return rows

    benchmark.pedantic(run_all, rounds=1, iterations=1)
    print_table(
        "E18a MWU fractional packing vs Roskind–Tarjan exact",
        ["family", "λ", "⌈(λ-1)/2⌉", "RT exact", "MWU size", "MWU/Tutte"],
        rows,
    )
    for row in rows:
        _, lam, tutte, exact, size, _ = row
        assert exact >= tutte  # Tutte/Nash-Williams existence
        assert size <= lam + 1e-6  # no packing can beat λ


@pytest.mark.benchmark(group="E18-baselines")
def test_e18_class_sizes_vs_greedy_cds(benchmark):
    """Lemma 4.6 calibration: our packing's average class size should be
    within an O(log n) factor of the greedy CDS baseline size."""
    rows = []

    def run_all():
        rows.clear()
        for name, builder in FAMILIES:
            graph = builder()
            n = graph.number_of_nodes()
            greedy = len(greedy_connected_dominating_set(graph))
            result = fractional_cds_packing(graph, rng=7)
            sizes = [
                wt.tree.number_of_nodes() for wt in result.packing.trees
            ]
            mean_size = sum(sizes) / max(1, len(sizes))
            rows.append(
                (
                    name,
                    greedy,
                    f"{mean_size:.1f}",
                    max(sizes, default=0),
                    f"{mean_size / max(greedy, 1):.2f}",
                    f"{math.log(n):.2f}",
                )
            )
        return rows

    benchmark.pedantic(run_all, rounds=1, iterations=1)
    print_table(
        "E18c packing class sizes vs greedy CDS (Lemma 4.6 calibration)",
        ["family", "greedy CDS", "mean class", "max class", "ratio", "ln n"],
        rows,
    )


def smoke():
    """Tiny E18-style run for the bench-smoke tier."""
    graph = harary_graph(4, 10)
    assert edge_connectivity(graph) == 4
    assert spanning_tree_packing_number(graph) >= 1
    assert fractional_spanning_tree_packing(graph, rng=5).size > 0
    greedy = greedy_connected_dominating_set(graph)
    assert is_connected_dominating_set(graph, greedy)
