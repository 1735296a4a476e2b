"""E28: the column step vs the dict plane (rounds/sec).

Times extremum flooding on random regular graphs, run straight on a
:class:`~repro.simulator.network.Network`, two ways per row:

* ``default`` — the loop as shipped: each round picks the dict plane or
  the numpy column step by the measured rule in
  :mod:`repro.simulator.runner`;
* ``dict`` — the same loop with the column step off (its fan-out
  constant patched to infinity), so every round takes the dict plane.

Rows up to n = 1000 stay 8-regular, where the rule never takes the
column step, so both sides run the same code; the n = 2000/5000 rows
run 128-regular, the dense regime the column step serves. Both sides
are timed by :func:`benchmarks.conftest.alternating`: one warm-up run
each, then ``repeats`` alternating rounds of one run per side. Every
row records each side's median seconds per run and interquartile
range, rounds/sec at the median, and ``column_speedup`` (the dict
plane's median over the default's). Acceptance gate (non-quick runs):
**``column_speedup`` ≥ 3 on flooding at n = 5000** — asserted, so a
regression fails the bench loudly. Every row asserts identical outputs
and round counts on both sides (``tests/test_engine_equivalence.py``
pins full bit-identity).

Run from the repo root::

    PYTHONPATH=src python benchmarks/run_benchmarks.py --suite simulator

Results land in ``BENCH_simulator.json``.
"""

from __future__ import annotations

from typing import Dict, List

from benchmarks.conftest import MIN_ROUNDS, alternating
from tests.oracles.round_loops import round_loop

#: Scale rows (n > this) run the dense regime the column step serves;
#: smaller rows keep the historical sparse sweep.
SPARSE_MAX_N = 1000
SPARSE_DEGREE = 8
DENSE_DEGREE = 128

#: The E28 gate: the ratio of median seconds, dict over default, at
#: flooding n=5000.
COLUMN_GATE_N = 5000
COLUMN_GATE_SPEEDUP = 3.0

#: The :func:`round_loop` names every row times.
LOOPS = ("default", "dict")


def _flood_sizes(quick: bool):
    return (24, 60) if quick else (100, 500, 1000, 2000, 5000)


def _flood_degree(n: int) -> int:
    return SPARSE_DEGREE if n <= SPARSE_MAX_N else DENSE_DEGREE


def _flood_on(loop: str, graph, seed: int):
    """One flood run on ``loop`` (network built once, outside the
    timing)."""
    from repro.simulator.algorithms.flooding import ExtremumFloodProgram
    from repro.simulator.network import Network
    from repro.simulator.runner import SyncRunner

    network = Network(graph, rng=seed)
    factory = lambda v: ExtremumFloodProgram(network.node_id(v))  # noqa: E731

    def once():
        with round_loop(loop):
            return SyncRunner(network, rng=seed).run(factory)

    return once


def _row(n: int, degree: int, seed: int, repeats: int) -> Dict:
    """Time both loops on one graph; assert they agree."""
    from repro.graphs.generators import random_regular_connected

    graph = random_regular_connected(degree, n, rng=1)
    timings, results = alternating(
        {loop: _flood_on(loop, graph, seed) for loop in LOOPS}, repeats
    )
    default, plain = results["default"], results["dict"]
    if plain.outputs != default.outputs:
        raise AssertionError(f"flooding n={n}: dict disagrees on outputs")
    assert plain.metrics.rounds == default.metrics.rounds, (
        f"flooding n={n}: dict disagrees on round counts"
    )
    rounds = default.metrics.rounds
    return {
        "program": "flooding",
        "n": n,
        "m": graph.number_of_edges(),
        "degree": degree,
        "seed": seed,
        "rounds": rounds,
        **{
            loop: {
                **timings[loop],
                "rounds_per_sec": round(rounds / timings[loop]["median_s"], 1),
            }
            for loop in LOOPS
        },
        "column_speedup": round(
            timings["dict"]["median_s"] / timings["default"]["median_s"], 2
        ),
    }


def run(quick: bool = False, repeats: int = 9, seed: int = 3) -> Dict:
    rows: List[Dict] = []
    for n in _flood_sizes(quick):
        degree = _flood_degree(n) if not quick else SPARSE_DEGREE
        row = _row(n, degree, seed, repeats)
        rows.append(row)
        if not quick and n == COLUMN_GATE_N:
            # The E28 acceptance gate: a column-step regression must
            # fail the bench, not just lower a number in a JSON file.
            assert row["column_speedup"] >= COLUMN_GATE_SPEEDUP, (
                f"column gate failed: {row['column_speedup']}x < "
                f"{COLUMN_GATE_SPEEDUP}x over the dict plane on flooding "
                f"n={n} (degree {degree})"
            )
    return {
        "benchmark": "simulator_round_loop",
        "unit": (
            "seconds per run, median and IQR over alternating rounds "
            "(outputs asserted identical)"
        ),
        "loops": list(LOOPS),
        "repeats": repeats,
        "results": rows,
    }


def format_row(row: Dict) -> str:
    cells = "  ".join(
        f"{loop}={row[loop]['rounds_per_sec']:>9.1f} r/s "
        f"(median {row[loop]['median_s']:.4f}s, IQR {row[loop]['iqr_s']:.4f}s)"
        for loop in LOOPS
    )
    return (
        f"{row['program']:>10} n={row['n']:<5} d={row['degree']:<3} "
        f"rounds={row['rounds']:<5} {cells}  "
        f"default/dict={row['column_speedup']}x"
    )


def smoke() -> None:
    """Tiny end-to-end run for the tier-1 bench_smoke marker."""
    report = run(quick=True, repeats=MIN_ROUNDS)
    assert report["results"], "simulator bench produced no rows"
    for row in report["results"]:
        assert row["rounds"] > 0
        for loop in LOOPS:
            assert row[loop]["rounds_per_sec"] > 0
