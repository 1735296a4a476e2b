"""Round-loop throughput of the simulation engines (rounds/sec).

Measures the registered engines against each other on workloads built
through the scenario layer:

* **flooding** — extremum flood on a random regular graph: the
  saturated-broadcast hot path (every node transmits in round 1, traffic
  decays as the extremum spreads). Two regimes:

  - n ≤ 1000 rows stay 8-regular, continuous with the sweeps of earlier
    revisions;
  - the n = 2000/5000 scale rows run 128-regular — the dense regime the
    columnar message plane targets (the all-to-all traffic of the
    queued clique-listing/spanner workloads is the limit of it), where
    per-delivery costs dominate and engine differences are real rather
    than fixed-cost noise. Every row records its ``degree``.

  Runs ``indexed`` vs ``reference`` vs ``vectorized`` (the columnar
  numpy engine, where numpy imports); the reference loop is only timed
  up to n = 1000 — past that it only slows the sweep down without
  informing it.
* **shared-mst** — :func:`simultaneous_msts` over a 2-part Karger edge
  partition: the composite Lemma 5.1 workload (subgraph floods, BFS,
  pipelined upcast) that chains many simulations end to end.

Acceptance gate (non-quick runs, E28): vectorized must run **≥ 3×
rounds/sec over ``indexed`` at flooding n = 5000** — asserted whenever
both engines run the row, so a regression fails the bench loudly.

Every row asserts identical outputs and round counts across engines
(the equivalence suites pin full bit-identity; this bench pins speed).

``--engines`` filters the timed engines (comma-separated); unknown
names fail with the engine registry's own listing message.

Run from the repo root::

    PYTHONPATH=src python benchmarks/run_benchmarks.py --suite simulator
    PYTHONPATH=src python benchmarks/bench_simulator.py            # direct

Results land in ``BENCH_simulator.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import time
from typing import Dict, List, Optional, Sequence

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

#: The reference loop is a correctness oracle, not a contender; past
#: this n it is dropped from the timing sweep.
REFERENCE_MAX_N = 1000

#: Scale rows (n > this) run the dense regime targeted by the columnar
#: plane; smaller rows keep the historical sparse sweep.
SPARSE_MAX_N = 1000
SPARSE_DEGREE = 8
DENSE_DEGREE = 128

#: The E28 gate: vectorized rounds/sec over indexed at flooding n=5000.
VECTORIZED_GATE_N = 5000
VECTORIZED_GATE_SPEEDUP = 3.0


def _flood_sizes(quick: bool):
    return (24, 60) if quick else (100, 500, 1000, 2000, 5000)


def _flood_degree(n: int) -> int:
    return SPARSE_DEGREE if n <= SPARSE_MAX_N else DENSE_DEGREE


def _mst_sizes(quick: bool):
    return (24, 60) if quick else (100, 500, 1000)


def _flood_engines():
    from repro.simulator.runner_vectorized import numpy_available

    engines = ["indexed", "reference"]
    if numpy_available():
        engines.append("vectorized")
    return engines


def resolve_engine_filter(spec: Optional[str]) -> Optional[List[str]]:
    """Parse a comma-separated ``--engines`` filter.

    Each name is validated through the runner registry, so a typo fails
    with the same engine-listing message ``SyncRunner`` itself gives.
    """
    if spec is None:
        return None
    from repro.simulator.runner import _require_engine

    engines = [name.strip() for name in spec.split(",") if name.strip()]
    if not engines:
        raise ValueError("--engines got an empty engine list")
    for name in engines:
        _require_engine(name)  # SimulationError lists registered engines
    return engines


def _flood_rounds_per_sec(graph, engine: str, repeats: int, seed: int):
    """Total rounds / total wall seconds over ``repeats`` runs (network
    built once; only the round loop is timed)."""
    from repro.simulator.algorithms.flooding import ExtremumFloodProgram
    from repro.simulator.network import Network
    from repro.simulator.runner import SyncRunner

    network = Network(graph, rng=seed)
    factory = lambda v: ExtremumFloodProgram(network.node_id(v))  # noqa: E731

    def once():
        return SyncRunner(network, rng=seed, engine=engine).run(factory)

    once()  # warmup (also builds the vectorized plane cache)
    rounds = 0
    start = time.perf_counter()
    for _ in range(repeats):
        result = once()
        rounds += result.metrics.rounds
    elapsed = time.perf_counter() - start
    return rounds, elapsed, result.outputs


def _shared_mst_rounds_per_sec(graph, engine: str, seed: int):
    from repro.graphs.sampling import karger_edge_partition
    from repro.simulator.algorithms.shared_mst import simultaneous_msts
    from repro.simulator.network import Network
    from repro.simulator.runner import engine_context
    from repro.utils.rng import ensure_rng

    with engine_context(engine):
        network = Network(graph, rng=seed)
        parts = karger_edge_partition(graph, 2, ensure_rng(seed + 1))
        start = time.perf_counter()
        result = simultaneous_msts(network, parts)
        elapsed = time.perf_counter() - start
    rounds = result.fragment_rounds + result.completion_rounds
    return rounds, elapsed, result.forests


def _engine_cell(rounds: int, elapsed: float) -> Dict:
    return {
        "rounds": rounds,
        "seconds": round(elapsed, 6),
        "rounds_per_sec": round(rounds / max(elapsed, 1e-9), 1),
    }


def _speedup(per_engine: Dict, engine: str, baseline: str = "indexed"):
    return round(
        per_engine[engine]["rounds_per_sec"]
        / per_engine[baseline]["rounds_per_sec"],
        2,
    )


def run(
    quick: bool = False,
    repeats: int = 10,
    seed: int = 3,
    engines: Optional[Sequence[str]] = None,
) -> Dict:
    from repro.graphs.generators import random_regular_connected

    rows: List[Dict] = []

    # -- flooding: the engine shoot-out, up to the E28 scale points ----
    flood_engines = _flood_engines()
    if engines is not None:
        flood_engines = [e for e in flood_engines if e in engines]
    for n in _flood_sizes(quick):
        degree = _flood_degree(n) if not quick else SPARSE_DEGREE
        graph = random_regular_connected(degree, n, rng=1)
        # Big graphs amortize fixed costs already; fewer repeats keep
        # the sweep honest without an hour of reference-loop time.
        n_repeats = repeats if n <= 1000 else max(2, repeats // 3)
        row_engines = [
            engine
            for engine in flood_engines
            if engine != "reference" or n <= REFERENCE_MAX_N
        ]
        if not row_engines:
            continue  # filter excluded every engine for this row
        per_engine = {}
        payloads = {}
        for engine in row_engines:
            rounds, elapsed, payload = _flood_rounds_per_sec(
                graph, engine, n_repeats, seed
            )
            per_engine[engine] = _engine_cell(rounds, elapsed)
            payloads[engine] = payload
        if "indexed" in per_engine:
            for engine in row_engines:
                if engine == "indexed":
                    continue
                if payloads[engine] != payloads["indexed"]:
                    raise AssertionError(
                        f"flooding n={n}: {engine} disagrees with indexed "
                        "on outputs"
                    )
                assert (
                    per_engine[engine]["rounds"]
                    == per_engine["indexed"]["rounds"]
                ), f"flooding n={n}: {engine} disagrees on round counts"
        row = {
            "program": "flooding",
            "n": n,
            "degree": degree,
            "m": graph.number_of_edges(),
            "seed": seed,
            "repeats": n_repeats,
            "rounds": per_engine[row_engines[0]]["rounds"],
            **per_engine,
        }
        if "reference" in per_engine and "indexed" in per_engine:
            row["speedup"] = _speedup(per_engine, "indexed", "reference")
        if "vectorized" in per_engine and "indexed" in per_engine:
            row["vectorized_speedup"] = _speedup(per_engine, "vectorized")
        rows.append(row)
        if (
            not quick
            and n == VECTORIZED_GATE_N
            and "vectorized_speedup" in row
        ):
            # The E28 acceptance gate: a columnar-plane regression must
            # fail the bench, not just lower a number in a JSON file.
            assert row["vectorized_speedup"] >= VECTORIZED_GATE_SPEEDUP, (
                f"vectorized gate failed: {row['vectorized_speedup']}x < "
                f"{VECTORIZED_GATE_SPEEDUP}x over indexed on flooding "
                f"n={n} (degree {degree})"
            )

    # -- shared-mst: the composite workload ------------------------------
    mst_engines = ["indexed", "reference"]
    if "vectorized" in flood_engines:
        mst_engines.append("vectorized")
    if engines is not None:
        mst_engines = [e for e in mst_engines if e in engines]
    for n in _mst_sizes(quick) if mst_engines else ():
        graph = random_regular_connected(SPARSE_DEGREE, n, rng=1)
        per_engine = {}
        payloads = {}
        for engine in mst_engines:
            rounds, elapsed, payload = _shared_mst_rounds_per_sec(
                graph, engine, seed
            )
            per_engine[engine] = _engine_cell(rounds, elapsed)
            payloads[engine] = payload
        if "indexed" in per_engine:
            for engine in mst_engines:
                if engine == "indexed":
                    continue
                if payloads[engine] != payloads["indexed"]:
                    raise AssertionError(
                        f"shared-mst n={n}: {engine} disagrees with indexed "
                        "on outputs"
                    )
                assert (
                    per_engine[engine]["rounds"]
                    == per_engine["indexed"]["rounds"]
                ), f"shared-mst n={n}: {engine} disagrees on round counts"
        row = {
            "program": "shared-mst",
            "n": n,
            "degree": SPARSE_DEGREE,
            "m": graph.number_of_edges(),
            "seed": seed,
            "rounds": per_engine[mst_engines[0]]["rounds"],
            **per_engine,
        }
        if "reference" in per_engine and "indexed" in per_engine:
            row["speedup"] = _speedup(per_engine, "indexed", "reference")
        if "vectorized" in per_engine and "indexed" in per_engine:
            row["vectorized_speedup"] = _speedup(per_engine, "vectorized")
        rows.append(row)
    from repro.api.backends import schedulable_cpus

    return {
        "benchmark": "simulator_round_loop",
        "unit": "rounds per wall-clock second (outputs asserted identical)",
        "engines": flood_engines,
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
        assert row["indexed"]["rounds_per_sec"] > 0
        if "vectorized" in row:
            assert row["vectorized"]["rounds_per_sec"] > 0
    # The --engines filter path: a single-engine run and a typo.
    filtered = run(
        quick=True, repeats=1, engines=resolve_engine_filter("indexed"),
    )
    for row in filtered["results"]:
        assert "indexed" in row and "reference" not in row
    try:
        resolve_engine_filter("indexed,no-such-engine")
    except Exception as exc:
        assert "no-such-engine" in str(exc)
    else:  # pragma: no cover - the registry must reject typos
        raise AssertionError("engine typo was not rejected")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="tiny graphs")
    parser.add_argument("--repeats", type=int, default=10)
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument(
        "--engines", type=str, default=None,
        help="comma-separated engine filter (e.g. 'indexed,vectorized')",
    )
    parser.add_argument(
        "--out",
        type=pathlib.Path,
        default=REPO_ROOT / "BENCH_simulator.json",
        help="output JSON path (default: repo root)",
    )
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be >= 1")
    try:
        engine_filter = resolve_engine_filter(args.engines)
    except Exception as exc:
        parser.error(str(exc))
    report = run(
        quick=args.quick, repeats=args.repeats, seed=args.seed,
        engines=engine_filter,
    )
    args.out.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    for row in report["results"]:
        cells = "  ".join(
            f"{engine}={row[engine]['rounds_per_sec']:>9.1f} r/s"
            for engine in ("indexed", "reference", "vectorized")
            if engine in row
        )
        extras = []
        if "speedup" in row:
            extras.append(f"idx/ref={row['speedup']}x")
        if "vectorized_speedup" in row:
            extras.append(f"vec/idx={row['vectorized_speedup']}x")
        print(
            f"{row['program']:>10} n={row['n']:<5} d={row['degree']:<3} "
            f"rounds={row['rounds']:<5} {cells}  {' '.join(extras)}"
        )
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
