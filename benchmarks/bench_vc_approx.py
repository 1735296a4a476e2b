"""E7 — Corollary 1.7: O(log n)-approximation of vertex connectivity.

Paper claim: the packing size lands in [Ω(k/log n), k], so
upper/lower ≤ O(log n); we report the achieved interval and the measured
approximation ratio against the exact oracle on every family. The upper
end is read off the run: min(δ, 2k′) for the accepted guess k′, so the
table shows both."""

import math

import pytest

from benchmarks.conftest import print_table
from repro.api import GraphSession
from repro.core.vertex_connectivity import approximate_vertex_connectivity
from repro.graphs.connectivity import vertex_connectivity
from repro.graphs.generators import (
    clique_chain,
    fat_cycle,
    harary_graph,
    hypercube,
    random_regular_connected,
    torus_grid,
)

FAMILIES = [
    ("harary(4,24)", lambda: harary_graph(4, 24)),
    ("harary(8,32)", lambda: harary_graph(8, 32)),
    ("clique_chain(4,7)", lambda: clique_chain(4, 7)),
    ("fat_cycle(3,7)", lambda: fat_cycle(3, 7)),
    ("hypercube(5)", lambda: hypercube(5)),
    ("torus(5,6)", lambda: torus_grid(5, 6)),
    ("regular(8,28)", lambda: random_regular_connected(8, 28, rng=3)),
    # Dense: a fixed 6·ln n stretch over σ = 1 stopped short of k here.
    ("harary(24,32)", lambda: harary_graph(24, 32)),
]


@pytest.mark.benchmark(group="E7-vc-approx")
def test_e7_approximation_quality(benchmark):
    rows = []

    def run_all():
        rows.clear()
        for name, builder in FAMILIES:
            g = builder()
            k = vertex_connectivity(g)
            session = GraphSession(g)
            est = session.connectivity(seed=15).raw
            packing = session.pack_cds(seed=15).raw  # the same construction
            n = g.number_of_nodes()
            ratio = est.upper_bound / max(est.lower_bound, 1.0)
            rows.append(
                (
                    name,
                    k,
                    min(d for _, d in g.degree()),
                    packing.k_guess if packing.accepted else "-",
                    est.lower_bound,
                    est.upper_bound,
                    est.contains(k),
                    ratio,
                    ratio / math.log(n),
                )
            )
        return rows

    benchmark.pedantic(run_all, rounds=1, iterations=1)
    print_table(
        "E7: Corollary 1.7 — vertex connectivity O(log n)-approximation",
        ["family", "true k", "δ", "accepted k′", "lower", "upper",
         "k in interval", "upper/lower", "(upper/lower)/ln n"],
        rows,
    )
    assert all(r[6] for r in rows), "an interval missed the true k"
    assert all(r[8] <= 8 for r in rows), "approximation worse than O(log n)"

def smoke():
    """Tiny E7-style run for the bench-smoke tier."""
    est = approximate_vertex_connectivity(harary_graph(4, 12), rng=15)
    assert est.lower_bound <= est.upper_bound
