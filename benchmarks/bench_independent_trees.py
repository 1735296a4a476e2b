"""E16 — Section 1.4.1: the algorithmic Zehavi–Itai approximation.

Paper claim: vertex-disjoint dominating trees yield vertex independent
spanning trees for *any* root. We build integral packings, convert, and
verify independence exactly across multiple roots."""

import pytest

from benchmarks.conftest import print_table
from repro.core.cds_packing import PackingParameters
from repro.core.independent_trees import (
    independent_trees_from_packing,
    verify_vertex_independent,
)
from repro.core.integral_packing import integral_cds_packing
from repro.graphs.connectivity import vertex_connectivity
from repro.graphs.generators import fat_cycle

PARAMS = PackingParameters(class_factor=3.0)


@pytest.mark.benchmark(group="E16-independent-trees")
def test_e16_independent_trees_any_root(benchmark):
    rows = []

    def run_all():
        rows.clear()
        for width, length in ((6, 4), (8, 4)):
            g = fat_cycle(width, length)
            k = vertex_connectivity(g)
            result = integral_cds_packing(g, params=PARAMS, rng=17)
            roots = list(g.nodes())[:4]
            all_ok = True
            for root in roots:
                trees = independent_trees_from_packing(result.packing, root)
                all_ok = all_ok and verify_vertex_independent(g, trees, root)
            rows.append(
                (
                    f"fat_cycle({width},{length})",
                    k,
                    len(result.packing),
                    len(roots),
                    all_ok,
                )
            )
        return rows

    benchmark.pedantic(run_all, rounds=1, iterations=1)
    print_table(
        "E16: vertex independent trees from disjoint dominating trees",
        ["graph", "k", "independent trees", "roots checked", "independence"],
        rows,
    )
    assert all(r[4] for r in rows)
    assert any(r[2] >= 2 for r in rows), "need >= 2 trees for a real check"

def smoke():
    """Tiny E16-style run for the bench-smoke tier."""
    g = fat_cycle(6, 4)
    result = integral_cds_packing(g, params=PARAMS, rng=17)
    root = next(iter(g.nodes()))
    trees = independent_trees_from_packing(result.packing, root)
    assert verify_vertex_independent(g, trees, root)
