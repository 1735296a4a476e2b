"""E3 — Theorem 1.3 / Lemmas F.1-F.2: spanning packing quality.

Paper claims: total weight ⌈(λ−1)/2⌉(1−ε) with per-edge load ≤ 1, each
edge in O(log³ n) trees, after O(log³ n) MWU iterations.

This module is also the ``spanning`` suite of
``benchmarks/run_benchmarks.py``: :func:`run` times the kernel-backed
:func:`fractional_spanning_tree_packing` against the preserved pre-kernel
implementation (``tests/oracles/spanning_packing_reference.py``) with
packing sizes asserted equal → ``BENCH_spanning_packing.json``.
Acceptance gate: ≥ 5× at n ≈ 500.
"""

import math
from typing import Dict, List

import pytest

from benchmarks.conftest import best_of, print_table
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
from tests.oracles.spanning_packing_reference import (
    fractional_spanning_tree_packing_reference,
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
    """Tiny E3-style run + the quick kernel-vs-reference suite, for the
    bench-smoke tier."""
    result = fractional_spanning_tree_packing(harary_graph(4, 12), params=PARAMS, rng=9)
    result.packing.verify()
    assert result.size > 0
    report = run(quick=True, repeats=1)
    assert report["results"], "spanning bench produced no rows"
    for row in report["results"]:
        assert row["packing_size"] > 0


# ----------------------------------------------------------------------
# Kernel-vs-reference timing suite (BENCH_spanning_packing.json)
# ----------------------------------------------------------------------


def _cases(quick: bool):
    # All cases must stay in the single-Karger-part regime (η = 1, i.e.
    # λ well below 60·ln n/ε²): with η > 1 the kernel intentionally
    # sizes parts from λ/η while the reference re-runs the connectivity
    # oracle per part, so the exact-size equality gate below only holds
    # for η = 1. The η > 1 path is covered by tests/test_fastgraph.py.
    if quick:
        return [
            ("harary(6,48)", lambda: harary_graph(6, 48), 6),
            ("regular(8,100)", lambda: random_regular_connected(8, 100, rng=3), 8),
        ]
    return [
        ("harary(6,120)", lambda: harary_graph(6, 120), 6),
        ("regular(8,250)", lambda: random_regular_connected(8, 250, rng=3), 8),
        ("regular(8,500)", lambda: random_regular_connected(8, 500, rng=3), 8),
    ]


def run(quick: bool = False, repeats: int = 3, seed: int = 9) -> Dict:
    """Time the kernel against the reference; assert equal sizes per row."""
    params = MwuParameters(epsilon=0.15, beta_factor=1.0)
    rows: List[Dict] = []
    for name, builder, lam in _cases(quick):
        graph = builder()
        kernel_s, kernel_result = best_of(
            lambda: fractional_spanning_tree_packing(
                graph, lam=lam, params=params, rng=seed
            ),
            repeats,
        )
        reference_s, reference_result = best_of(
            lambda: fractional_spanning_tree_packing_reference(
                graph, lam=lam, params=params, rng=seed
            ),
            max(1, repeats - 1),
        )
        if kernel_result.size != reference_result.size:
            raise AssertionError(
                f"{name}: kernel size {kernel_result.size} != "
                f"reference size {reference_result.size}"
            )
        rows.append(
            {
                "graph": name,
                "n": graph.number_of_nodes(),
                "m": graph.number_of_edges(),
                "lam": lam,
                "seed": seed,
                "mwu_iterations": max(
                    t.iterations for t in kernel_result.traces
                ),
                "packing_size": kernel_result.size,
                "efficiency": kernel_result.efficiency,
                "reference_s": round(reference_s, 6),
                "kernel_s": round(kernel_s, 6),
                "speedup": round(reference_s / kernel_s, 2),
            }
        )
    return {
        "benchmark": "spanning_packing",
        "unit": "seconds (best of repeats, wall clock)",
        "repeats": repeats,
        "params": {"epsilon": 0.15, "beta_factor": 1.0},
        "results": rows,
    }


def format_row(row: Dict) -> str:
    return (
        "{graph:>16}  n={n:<4} m={m:<5} ref={reference_s:.3f}s "
        "kernel={kernel_s:.3f}s speedup={speedup}x size={packing_size:.3f}"
    ).format(**row)
