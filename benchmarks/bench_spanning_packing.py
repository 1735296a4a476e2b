"""E3 — Theorem 1.3 / Lemmas F.1-F.2: spanning packing quality.

Paper claims: total weight ⌈(λ−1)/2⌉(1−ε) with per-edge load ≤ 1, each
edge in O(log³ n) trees, after O(log³ n) MWU iterations.
"""

import math

import pytest

from benchmarks.conftest import print_table
from repro.core.spanning_packing import (
    MwuParameters,
    fractional_spanning_tree_packing,
)
from repro.graphs.connectivity import edge_connectivity
from repro.graphs.generators import (
    fat_cycle,
    harary_graph,
    hypercube,
    random_regular_connected,
)

FAMILIES = [
    ("harary(5,24)", lambda: harary_graph(5, 24)),
    ("harary(8,24)", lambda: harary_graph(8, 24)),
    ("harary(11,30)", lambda: harary_graph(11, 30)),
    ("hypercube(4)", lambda: hypercube(4)),
    ("fat_cycle(3,6)", lambda: fat_cycle(3, 6)),
    ("regular(8,24)", lambda: random_regular_connected(8, 24, rng=2)),
]

# beta_factor=1 (the paper's Θ(1/(α log n))): larger β overshoots and
# cycles between MSTs without driving the max load below (1+ε)/target —
# the ablation benchmark bench_ablation.py quantifies this.
PARAMS = MwuParameters(epsilon=0.15, beta_factor=1.0)


@pytest.mark.benchmark(group="E3-spanning")
def test_e3_spanning_packing_vs_tutte_bound(benchmark):
    rows = []

    def run_all():
        rows.clear()
        for name, builder in FAMILIES:
            g = builder()
            lam = edge_connectivity(g)
            result = fractional_spanning_tree_packing(g, params=PARAMS, rng=9)
            result.packing.verify()
            per_edge = result.packing.trees_per_edge()
            iters = max(t.iterations for t in result.traces)
            rows.append(
                (
                    name,
                    lam,
                    result.target,
                    result.size,
                    result.efficiency,
                    result.packing.max_edge_load(),
                    max(per_edge.values()),
                    iters,
                )
            )
        return rows

    benchmark.pedantic(run_all, rounds=1, iterations=1)
    print_table(
        "E3: Theorem 1.3 — fractional spanning tree packing",
        [
            "family", "lam", "ceil((l-1)/2)", "size", "size/target",
            "max edge load", "trees/edge", "MWU iters",
        ],
        rows,
    )
    for row in rows:
        assert row[4] >= 0.6, f"{row[0]}: efficiency {row[4]} too low"
        assert row[5] <= 1.0 + 1e-9
        n = 30
        assert row[6] <= 60 * math.log(n) ** 3


@pytest.mark.benchmark(group="E3-spanning")
def test_e3_mwu_iteration_count_polylog(benchmark):
    """Lemma F.2: convergence within Θ(log³ n) iterations."""
    rows = []

    def run_all():
        rows.clear()
        for n in (16, 24, 32):
            g = harary_graph(6, n)
            result = fractional_spanning_tree_packing(g, params=PARAMS, rng=10)
            iters = max(t.iterations for t in result.traces)
            cap = PARAMS.iteration_cap(n)
            rows.append((n, iters, cap, iters / max(1, math.log(n) ** 3)))
        return rows

    benchmark.pedantic(run_all, rounds=1, iterations=1)
    print_table(
        "E3b: MWU iterations vs Θ(log³ n) schedule",
        ["n", "iterations", "cap", "iters/ln³n"],
        rows,
    )
    for _, iters, cap, _ in rows:
        assert iters <= cap


def smoke():
    """Tiny E3-style run for the bench-smoke tier."""
    result = fractional_spanning_tree_packing(harary_graph(4, 12), params=PARAMS, rng=9)
    result.packing.verify()
    assert result.size > 0
