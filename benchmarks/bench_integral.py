"""E15 — Integral packings: Ω(κ/log² n) vertex-disjoint CDSs and
Ω(λ/log n) edge-disjoint spanning trees (Section 1.2)."""

import math

import pytest

from benchmarks.conftest import print_table
from repro.core.integral_packing import (
    integral_cds_packing,
    integral_spanning_packing,
)
from repro.graphs.connectivity import edge_connectivity, vertex_connectivity
from repro.graphs.generators import fat_cycle, harary_graph, random_regular_connected


@pytest.mark.benchmark(group="E15-integral")
def test_e15_vertex_disjoint_cds(benchmark):
    rows = []

    def run_all():
        rows.clear()
        # κ from the construction where it is known (None: the oracle).
        for name, builder, kappa in (
            ("harary(10,40)", lambda: harary_graph(10, 40), 10),
            ("fat_cycle(5,6)", lambda: fat_cycle(5, 6), 10),
            ("regular(12,40)", lambda: random_regular_connected(12, 40, rng=5), None),
            ("harary(64,256)", lambda: harary_graph(64, 256), 64),
            ("harary(128,512)", lambda: harary_graph(128, 512), 128),
        ):
            g = builder()
            k = vertex_connectivity(g) if kappa is None else kappa
            n = g.number_of_nodes()
            at_k = integral_cds_packing(g, k=k, rng=6)
            unset = integral_cds_packing(g, rng=6)
            bound = k / math.log(n) ** 2
            size = len(at_k.packing)
            rows.append((
                name, k, at_k.t_requested, size, len(unset.packing),
                bound, size / max(bound, 1e-9),
            ))
        return rows

    benchmark.pedantic(run_all, rounds=1, iterations=1)
    print_table(
        "E15: integral CDS packing vs Ω(k/log² n)",
        ["family", "k", "t at k", "disjoint CDSs at k", "k unset",
         "k/ln²n", "achieved/bound"],
        rows,
    )
    # Vertex-disjoint CDSs each meet every minimum vertex cut: ≤ κ.
    assert all(1 <= r[3] <= r[1] and 1 <= r[4] <= r[1] for r in rows)


@pytest.mark.benchmark(group="E15-integral")
def test_e15_edge_disjoint_spanning_trees(benchmark):
    rows = []

    def run_all():
        rows.clear()
        for name, builder in (
            ("harary(8,24)", lambda: harary_graph(8, 24)),
            ("harary(14,30)", lambda: harary_graph(14, 30)),
            ("regular(10,30)", lambda: random_regular_connected(10, 30, rng=7)),
        ):
            g = builder()
            lam = edge_connectivity(g)
            n = g.number_of_nodes()
            packing = integral_spanning_packing(g, rng=8)
            bound = lam / math.log(n)
            rows.append(
                (name, lam, len(packing), bound, len(packing) / max(bound, 1e-9))
            )
        return rows

    benchmark.pedantic(run_all, rounds=1, iterations=1)
    print_table(
        "E15b: integral spanning packing vs Ω(lambda/log n)",
        ["family", "lambda", "disjoint trees", "l/ln n", "achieved/bound"],
        rows,
    )
    assert all(r[2] >= 1 for r in rows)


@pytest.mark.benchmark(group="E15-integral")
def test_e15c_distributed_integral_spanning(benchmark):
    """The distributed variant (Karger parts + Lemma 5.1 simultaneous
    MSTs) must match the centralized twin's sizes while reporting its
    simulated round cost."""
    from repro.core.integral_packing_distributed import (
        distributed_integral_spanning_packing,
    )

    rows = []

    def run_all():
        rows.clear()
        for name, builder in (
            ("harary(8,24)", lambda: harary_graph(8, 24)),
            ("harary(14,30)", lambda: harary_graph(14, 30)),
            ("regular(10,30)", lambda: random_regular_connected(10, 30, rng=7)),
        ):
            g = builder()
            lam = edge_connectivity(g)
            central = len(integral_spanning_packing(g, rng=8))
            result = distributed_integral_spanning_packing(g, rng=8)
            rows.append(
                (
                    name,
                    lam,
                    central,
                    result.size,
                    result.parts,
                    result.total_rounds,
                )
            )
        return rows

    benchmark.pedantic(run_all, rounds=1, iterations=1)
    print_table(
        "E15c: distributed integral spanning packing (rounds are simulated)",
        ["family", "lambda", "central size", "dist size", "parts", "rounds"],
        rows,
    )
    assert all(r[3] >= 1 for r in rows)

def smoke():
    """Tiny E15-style run for the bench-smoke tier."""
    packing = integral_spanning_packing(harary_graph(6, 14), rng=2)
    assert packing.is_edge_disjoint()
    result = integral_cds_packing(harary_graph(8, 20), rng=6)
    assert result.size >= 1
