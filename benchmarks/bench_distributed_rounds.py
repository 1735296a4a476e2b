"""E4 — Theorem B.1 round complexity: Õ(min{n/k, D + √n}) shape.

We measure simulated meta-rounds of the distributed CDS packing as n
grows, and separately as the diameter regime changes (expander vs chain),
reporting the analytic Theorem B.2 bound beside the measured count.
The claim's observable shape: meta-rounds grow sublinearly in n on
low-diameter graphs and track component diameters on chains."""

import math

import pytest

from benchmarks.conftest import print_table
from repro.core.cds_packing import PackingParameters
from repro.core.cds_packing_distributed import distributed_cds_packing
from repro.core.spanning_packing import MwuParameters
from repro.core.spanning_packing_distributed import distributed_spanning_packing
from repro.graphs.generators import clique_chain, harary_graph

PARAMS = PackingParameters(layer_factor=1, min_layers=4)


@pytest.mark.benchmark(group="E4-rounds")
def test_e4_cds_rounds_vs_n(benchmark):
    rows = []

    def run_all():
        rows.clear()
        for n in (16, 24, 32):
            g = harary_graph(4, n)
            result = distributed_cds_packing(g, 4, params=PARAMS, rng=6)
            rows.append(
                (
                    n,
                    result.meta_rounds,
                    result.real_round_estimate,
                    result.report.analytic_total(),
                    result.meta_rounds / n,
                )
            )
        return rows

    benchmark.pedantic(run_all, rounds=1, iterations=1)
    print_table(
        "E4: Theorem B.1 — distributed CDS packing rounds",
        ["n", "meta-rounds", "real rounds (x3L)", "analytic B.2", "meta/n"],
        rows,
    )
    # Shape: meta-rounds per node must not explode with n.
    ratios = [r[4] for r in rows]
    assert ratios[-1] <= 4 * ratios[0] + 4


@pytest.mark.benchmark(group="E4-rounds")
def test_e4_diameter_regimes(benchmark):
    """Low-diameter (Harary) vs high-diameter (clique chain) at equal n."""
    rows = []

    def run_all():
        rows.clear()
        for name, g in (
            ("harary(4,24) D~6", harary_graph(4, 24)),
            ("chain(4,6)  D=5", clique_chain(4, 6)),
        ):
            result = distributed_cds_packing(g, 4, params=PARAMS, rng=8)
            rows.append((name, result.meta_rounds, result.result.size))
        return rows

    benchmark.pedantic(run_all, rounds=1, iterations=1)
    print_table(
        "E4b: round counts across diameter regimes",
        ["graph", "meta-rounds", "size"],
        rows,
    )
    assert all(r[1] > 0 for r in rows)


@pytest.mark.benchmark(group="E4-rounds")
def test_e4_spanning_rounds(benchmark):
    """Distributed spanning packing round accounting (Lemma 5.1 shape)."""
    rows = []
    params = MwuParameters(epsilon=0.25, beta_factor=3.0, max_iterations=12)

    def run_all():
        rows.clear()
        for n in (12, 18, 24):
            g = harary_graph(4, n)
            result = distributed_spanning_packing(g, params=params, rng=7)
            rows.append(
                (
                    n,
                    result.report.measured.rounds,
                    result.report.analytic_total(),
                    result.result.size,
                )
            )
        return rows

    benchmark.pedantic(run_all, rounds=1, iterations=1)
    print_table(
        "E4c: distributed spanning packing rounds (Lemma 5.1)",
        ["n", "measured rounds", "analytic", "size"],
        rows,
    )
    assert all(r[1] > 0 for r in rows)

def smoke():
    """Tiny E4-style run for the bench-smoke tier."""
    result = distributed_cds_packing(harary_graph(4, 12), 4, params=PARAMS, rng=6)
    assert result.meta_rounds > 0
    spanning = distributed_spanning_packing(
        harary_graph(4, 10), 4, params=MwuParameters(max_iterations=2), rng=1
    )
    assert spanning.packing.size > 0
