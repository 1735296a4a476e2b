"""Round-loop throughput of the simulator (rounds/sec).

Times the one round loop on workloads run straight on a
:class:`~repro.simulator.network.Network`, three ways per row:

* ``default`` — the loop as shipped: each round picks the dict plane or
  the numpy column step by the measured rule in
  :mod:`repro.simulator.runner`;
* ``dict`` — the same loop with the column step off (its fan-out
  constant patched to infinity), so every round takes the dict plane;
* ``reference`` — the preserved pre-engine loop
  (:mod:`repro.simulator.runner_reference`), timed up to n = 1000 —
  past that it only slows the sweep down without informing it.

Workloads:

* **flooding** — extremum flood on a random regular graph: the
  saturated-broadcast hot path (every node transmits in round 1, traffic
  decays as the extremum spreads). n ≤ 1000 rows stay 8-regular, where
  the rule never takes the column step; the n = 2000/5000 scale rows run
  128-regular, the dense regime the column step serves. Every row
  records its ``degree``.
* **shared-mst** — :func:`simultaneous_msts` over a 2-part Karger edge
  partition: the composite Lemma 5.1 workload (subgraph floods, BFS,
  pipelined upcast) that chains many simulations end to end.

Each row stores ``speedup`` (default over reference, E23) and
``column_speedup`` (default over dict, E28). Acceptance gate (non-quick
runs, E28): the column step must lift flooding at n = 5000 to **≥ 3×
the rounds/sec of the dict plane** — asserted, so a regression fails the
bench loudly. Every row asserts identical outputs and round counts
across the three ways (the equivalence suites pin full bit-identity;
this bench pins speed).

Run from the repo root::

    PYTHONPATH=src python benchmarks/run_benchmarks.py --suite simulator
    PYTHONPATH=src python benchmarks/bench_simulator.py            # direct

Results land in ``BENCH_simulator.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import pathlib
import platform
import time
from typing import Dict, List

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

#: The reference loop is a correctness oracle, not a contender; past
#: this n it is dropped from the timing sweep.
REFERENCE_MAX_N = 1000

#: Scale rows (n > this) run the dense regime the column step serves;
#: smaller rows keep the historical sparse sweep.
SPARSE_MAX_N = 1000
SPARSE_DEGREE = 8
DENSE_DEGREE = 128

#: The E28 gate: default over dict rounds/sec at flooding n=5000.
COLUMN_GATE_N = 5000
COLUMN_GATE_SPEEDUP = 3.0

LOOPS = ("default", "dict", "reference")


@contextlib.contextmanager
def round_loop(name: str):
    """Run the simulations inside on one of :data:`LOOPS`."""
    from repro.simulator import runner
    from repro.simulator.runner_reference import _run_reference

    patches = {
        "default": {},
        "dict": {"COLUMN_MIN_FANOUT": float("inf")},
        "reference": {"_run_rounds": _run_reference},
    }[name]
    saved = {attr: getattr(runner, attr) for attr in patches}
    for attr, value in patches.items():
        setattr(runner, attr, value)
    try:
        yield
    finally:
        for attr, value in saved.items():
            setattr(runner, attr, value)


def _flood_sizes(quick: bool):
    return (24, 60) if quick else (100, 500, 1000, 2000, 5000)


def _flood_degree(n: int) -> int:
    return SPARSE_DEGREE if n <= SPARSE_MAX_N else DENSE_DEGREE


def _mst_sizes(quick: bool):
    return (24, 60) if quick else (100, 500, 1000)


def _flood_rounds_per_sec(graph, loop: str, repeats: int, seed: int):
    """Total rounds / total wall seconds over ``repeats`` runs (network
    built once; only the round loop is timed)."""
    from repro.simulator.algorithms.flooding import ExtremumFloodProgram
    from repro.simulator.network import Network
    from repro.simulator.runner import SyncRunner

    network = Network(graph, rng=seed)
    factory = lambda v: ExtremumFloodProgram(network.node_id(v))  # noqa: E731

    def once():
        return SyncRunner(network, rng=seed).run(factory)

    with round_loop(loop):
        once()  # warmup (also builds the column step's cached plane)
        gc.collect()  # no earlier row's garbage in this cell's timing
        rounds = 0
        start = time.perf_counter()
        for _ in range(repeats):
            result = once()
            rounds += result.metrics.rounds
        elapsed = time.perf_counter() - start
    return rounds, elapsed, result.outputs


def _shared_mst_rounds_per_sec(graph, loop: str, seed: int):
    from repro.graphs.sampling import karger_edge_partition
    from repro.simulator.algorithms.shared_mst import simultaneous_msts
    from repro.simulator.network import Network
    from repro.utils.rng import ensure_rng

    with round_loop(loop):
        network = Network(graph, rng=seed)
        parts = karger_edge_partition(graph, 2, ensure_rng(seed + 1))
        gc.collect()  # no earlier row's garbage in this cell's timing
        start = time.perf_counter()
        result = simultaneous_msts(network, parts)
        elapsed = time.perf_counter() - start
    rounds = result.fragment_rounds + result.completion_rounds
    return rounds, elapsed, result.forests


def _cell(rounds: int, elapsed: float) -> Dict:
    return {
        "rounds": rounds,
        "seconds": round(elapsed, 6),
        "rounds_per_sec": round(rounds / max(elapsed, 1e-9), 1),
    }


def _speedup(cells: Dict, loop: str, baseline: str):
    return round(
        cells[loop]["rounds_per_sec"] / cells[baseline]["rounds_per_sec"], 2
    )


def _row(program: str, n: int, graph, timed) -> Dict:
    """Time ``timed(loop)`` on every loop the row runs; assert they agree."""
    loops = [
        loop for loop in LOOPS if loop != "reference" or n <= REFERENCE_MAX_N
    ]
    cells = {}
    payloads = {}
    for loop in loops:
        rounds, elapsed, payloads[loop] = timed(loop)
        cells[loop] = _cell(rounds, elapsed)
    for loop in loops[1:]:
        if payloads[loop] != payloads["default"]:
            raise AssertionError(
                f"{program} n={n}: {loop} disagrees with default on outputs"
            )
        assert cells[loop]["rounds"] == cells["default"]["rounds"], (
            f"{program} n={n}: {loop} disagrees on round counts"
        )
    row = {
        "program": program,
        "n": n,
        "m": graph.number_of_edges(),
        "rounds": cells["default"]["rounds"],
        **cells,
        "column_speedup": _speedup(cells, "default", "dict"),
    }
    if "reference" in cells:
        row["speedup"] = _speedup(cells, "default", "reference")
    return row


def run(quick: bool = False, repeats: int = 10, seed: int = 3) -> Dict:
    from repro.graphs.generators import random_regular_connected

    rows: List[Dict] = []

    # -- flooding, up to the E28 scale points ---------------------------
    for n in _flood_sizes(quick):
        degree = _flood_degree(n) if not quick else SPARSE_DEGREE
        graph = random_regular_connected(degree, n, rng=1)
        # Big graphs amortize fixed costs already; fewer repeats keep
        # the sweep honest without an hour of reference-loop time.
        n_repeats = repeats if n <= 1000 else max(2, repeats // 3)
        row = _row(
            "flooding", n, graph,
            lambda loop: _flood_rounds_per_sec(graph, loop, n_repeats, seed),
        )
        row.update(degree=degree, seed=seed, repeats=n_repeats)
        rows.append(row)
        if not quick and n == COLUMN_GATE_N:
            # The E28 acceptance gate: a column-step regression must
            # fail the bench, not just lower a number in a JSON file.
            assert row["column_speedup"] >= COLUMN_GATE_SPEEDUP, (
                f"column gate failed: {row['column_speedup']}x < "
                f"{COLUMN_GATE_SPEEDUP}x over the dict plane on flooding "
                f"n={n} (degree {degree})"
            )

    # -- shared-mst: the composite workload ------------------------------
    for n in _mst_sizes(quick):
        graph = random_regular_connected(SPARSE_DEGREE, n, rng=1)
        row = _row(
            "shared-mst", n, graph,
            lambda loop: _shared_mst_rounds_per_sec(graph, loop, seed),
        )
        row.update(degree=SPARSE_DEGREE, seed=seed)
        rows.append(row)
    from repro.api.backends import schedulable_cpus

    return {
        "benchmark": "simulator_round_loop",
        "unit": "rounds per wall-clock second (outputs asserted identical)",
        "loops": list(LOOPS),
        "flood_repeats": repeats,
        # Both counts, deliberately: cpu_count is the host's logical
        # CPUs, schedulable_cpus the affinity mask this process actually
        # runs on.
        "cpu_count": os.cpu_count(),
        "schedulable_cpus": schedulable_cpus(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "results": rows,
    }


def smoke() -> None:
    """Tiny end-to-end run for the tier-1 bench_smoke marker."""
    report = run(quick=True, repeats=2)
    assert report["results"], "simulator bench produced no rows"
    assert report["schedulable_cpus"] >= 1
    for row in report["results"]:
        assert row["rounds"] > 0
        for loop in LOOPS:
            assert row[loop]["rounds_per_sec"] > 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="tiny graphs")
    parser.add_argument("--repeats", type=int, default=10)
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument(
        "--out",
        type=pathlib.Path,
        default=REPO_ROOT / "BENCH_simulator.json",
        help="output JSON path (default: repo root)",
    )
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be >= 1")
    report = run(quick=args.quick, repeats=args.repeats, seed=args.seed)
    args.out.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    for row in report["results"]:
        cells = "  ".join(
            f"{loop}={row[loop]['rounds_per_sec']:>9.1f} r/s"
            for loop in LOOPS
            if loop in row
        )
        extras = [f"default/dict={row['column_speedup']}x"]
        if "speedup" in row:
            extras.append(f"default/ref={row['speedup']}x")
        print(
            f"{row['program']:>10} n={row['n']:<5} d={row['degree']:<3} "
            f"rounds={row['rounds']:<5} {cells}  {' '.join(extras)}"
        )
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
