"""E1 + E10 — Theorem 1.1/1.2 packing quality and Lemma 4.6 class sizes.

Paper claims:
* fractional dominating tree packing of size Ω(k / log n);
* each node in O(log n) trees;
* tree diameters Õ(n / k);
* (Lemma 4.6) each class holds O(n log n / k) virtual nodes.
"""

import math

import pytest

from benchmarks.conftest import print_table
from repro.core.cds_packing import PackingParameters, construct_cds_packing
from repro.graphs.connectivity import vertex_connectivity
from repro.graphs.generators import (
    clique_chain,
    fat_cycle,
    harary_graph,
    hypercube,
    random_regular_connected,
)

FAMILIES = [
    ("harary(4,32)", lambda: harary_graph(4, 32)),
    ("harary(8,32)", lambda: harary_graph(8, 32)),
    ("harary(12,36)", lambda: harary_graph(12, 36)),
    ("clique_chain(4,8)", lambda: clique_chain(4, 8)),
    ("fat_cycle(3,8)", lambda: fat_cycle(3, 8)),
    ("hypercube(5)", lambda: hypercube(5)),
    ("regular(10,32)", lambda: random_regular_connected(10, 32, rng=1)),
]


def _run_family(name, builder, seed=7):
    g = builder()
    n = g.number_of_nodes()
    k = vertex_connectivity(g)
    result = construct_cds_packing(
        g, k, params=PackingParameters(class_factor=1.0), rng=seed
    )
    result.packing.verify()
    counts = result.packing.trees_per_node()
    vg = result.virtual_graph
    max_class = max(vg.virtual_counts_per_class())
    return {
        "family": name,
        "n": n,
        "k": k,
        "size": result.size,
        "size_ratio": result.size / (k / math.log(n)),
        "trees": len(result.packing),
        "max_membership": max(counts.values()),
        "membership_bound": 3 * vg.layers,
        "max_diameter": result.packing.max_diameter(),
        "diam_over_nk": result.packing.max_diameter() / (n / max(1, k)),
        "class_ratio": max_class * k / (n * math.log(n)),
    }


@pytest.mark.benchmark(group="E1-cds-packing")
def test_e1_packing_size_vs_connectivity(benchmark):
    """E1: size/(k/ln n) should be bounded below across families; node
    membership stays within 3L = O(log n)."""
    rows = []

    def run_all():
        rows.clear()
        for name, builder in FAMILIES:
            rows.append(_run_family(name, builder))
        return rows

    benchmark.pedantic(run_all, rounds=1, iterations=1)
    print_table(
        "E1: Theorem 1.1/1.2 — fractional dominating tree packing",
        [
            "family", "n", "k", "size", "size/(k/ln n)",
            "trees", "node-membership (<=3L)", "3L",
            "max tree diam", "diam/(n/k)",
        ],
        [
            (
                r["family"], r["n"], r["k"], r["size"], r["size_ratio"],
                r["trees"], r["max_membership"], r["membership_bound"],
                r["max_diameter"], r["diam_over_nk"],
            )
            for r in rows
        ],
    )
    for r in rows:
        assert r["size"] > 0
        assert r["max_membership"] <= r["membership_bound"]


@pytest.mark.benchmark(group="E1-cds-packing")
def test_e1b_size_scales_linearly_with_k(benchmark):
    """E1b: at fixed n, size grows ~linearly in k (the Ω(k/log n) shape).

    Uses L = ⌈log₂ n⌉ layers (layer_factor=1) so that t = k exceeds the
    3L membership cap and classes stop being all-of-V."""
    sweep = [(8, 48), (16, 48), (24, 48), (32, 48)]
    rows = []

    def run_all():
        rows.clear()
        for k, n in sweep:
            g = harary_graph(k, n)
            params = PackingParameters(
                class_factor=1.0, layer_factor=1, min_layers=4
            )
            result = construct_cds_packing(g, k, params=params, rng=5)
            result.packing.verify()
            rows.append(
                (
                    k,
                    n,
                    result.size,
                    result.size / (k / math.log(n)),
                    len(result.packing),
                )
            )
        return rows

    benchmark.pedantic(run_all, rounds=1, iterations=1)
    print_table(
        "E1b: size vs k at fixed n=48 (expect ~linear growth, ratio ~const)",
        ["k", "n", "size", "size/(k/ln n)", "trees"],
        rows,
    )
    sizes = [r[2] for r in rows]
    assert sizes[-1] > sizes[0], "packing size must grow with k"
    ratios = [r[3] for r in rows]
    assert min(ratios) >= 0.1, "Ω(k/log n) ratio collapsed"


@pytest.mark.benchmark(group="E10-class-sizes")
def test_e10_lemma_4_6_class_sizes(benchmark):
    """E10: max class size · k / (n ln n) bounded (Lemma 4.6)."""
    rows = []

    def run_all():
        rows.clear()
        for name, builder in FAMILIES[:5]:
            rows.append(_run_family(name, builder, seed=13))
        return rows

    benchmark.pedantic(run_all, rounds=1, iterations=1)
    print_table(
        "E10: Lemma 4.6 — class sizes O(n log n / k)",
        ["family", "n", "k", "max_class*k/(n ln n)"],
        [(r["family"], r["n"], r["k"], r["class_ratio"]) for r in rows],
    )
    for r in rows:
        assert r["class_ratio"] <= 40.0


def smoke():
    """Tiny E1-style run for the bench-smoke tier."""
    row = _run_family("harary(4,12)", lambda: harary_graph(4, 12))
    assert row["size"] > 0
