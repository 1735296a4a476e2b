"""E27: corruption sweep — coded vs uncoded flood under adversarial channels.

The :mod:`repro.simulator.adversary` layer flips delivered payloads with
a per-``(edge, round)`` probability; this suite sweeps that rate over
the uncoded retransmitting flood and the two coded defenses of
:mod:`repro.apps.coded` (checksummed drop-on-bad, repetition voting) and
records, per point:

* **coverage** — fraction of nodes holding the true global minimum;
* **wrong_rate** — fraction holding a value strictly *below* it (a
  state no honest execution can reach: direct evidence of poisoning);
* **bits** and the coded **overhead ratio** vs the uncoded flood at the
  same rate (the price of the defense in honest transmitted bits).

Gate: at the benchmark's reference corruption rate the uncoded flood
must *measurably fail* (wrong answers or lost coverage) while both
coded variants hold ≥ 0.99 coverage with zero wrong answers — the
coded-defense acceptance criterion of the adversarial-channels PR.
Results → ``BENCH_resilience.json`` (via ``run_benchmarks.py --suite
resilience``).
"""

from __future__ import annotations

from typing import Dict, List

#: The corruption rate the gate is evaluated at: high enough that the
#: uncoded flood is reliably poisoned on every benchmark graph, low
#: enough that checksum verification and repetition voting stay clean.
GATE_RATE = 0.05

#: Coded variants must hold at least this coverage at GATE_RATE.
GATE_COVERAGE = 0.99


def _cases(quick: bool):
    from repro.graphs.generators import harary_graph, random_regular_connected

    if quick:
        return [("harary(4,16)", lambda: harary_graph(4, 16))]
    return [
        ("harary(4,24)", lambda: harary_graph(4, 24)),
        ("regular(6,60)", lambda: random_regular_connected(6, 60, rng=3)),
        ("harary(6,100)", lambda: harary_graph(6, 100)),
    ]


def _rates(quick: bool) -> List[float]:
    if quick:
        return [0.0, GATE_RATE]
    return [0.0, 0.02, GATE_RATE, 0.1]


def run(quick: bool = False, seed: int = 0) -> Dict:
    """Sweep corruption rates × flood variants; gate the coded defenses."""
    from repro.apps.resilience import flood_corruption_sweep

    rows: List[Dict] = []
    gate_failures: List[str] = []
    for name, builder in _cases(quick):
        graph = builder()
        reports = flood_corruption_sweep(
            graph, _rates(quick), seed=seed, kinds=("flip",)
        )
        # bits of the uncoded flood per rate, for the overhead ratio.
        uncoded_bits = {
            r.corruption_rate: r.bits
            for r in reports
            if r.variant == "uncoded"
        }
        for report in reports:
            baseline = uncoded_bits.get(report.corruption_rate, 0)
            rows.append(
                {
                    "graph": name,
                    "n": graph.number_of_nodes(),
                    "m": graph.number_of_edges(),
                    "seed": seed,
                    "variant": report.variant,
                    "corruption_rate": report.corruption_rate,
                    "coverage": round(report.coverage, 4),
                    "wrong_rate": round(report.wrong_rate, 4),
                    "completed": report.completed,
                    "rounds": report.rounds,
                    "messages": report.messages,
                    "bits": report.bits,
                    "bits_overhead": (
                        round(report.bits / baseline, 3) if baseline else None
                    ),
                }
            )
        at_gate = {
            r.variant: r
            for r in reports
            if r.corruption_rate == GATE_RATE
        }
        uncoded = at_gate["uncoded"]
        if uncoded.wrong_rate == 0.0 and uncoded.coverage == 1.0:
            gate_failures.append(
                f"{name}: uncoded flood survived rate {GATE_RATE:g} — "
                "the gate rate is not adversarial enough to discriminate"
            )
        for variant in ("checksum", "vote"):
            coded = at_gate[variant]
            if coded.coverage < GATE_COVERAGE or coded.wrong_rate > 0.0:
                gate_failures.append(
                    f"{name}: {variant} flood failed at rate {GATE_RATE:g} "
                    f"(coverage {coded.coverage:.3f}, wrong_rate "
                    f"{coded.wrong_rate:.3f})"
                )
    if gate_failures:
        raise AssertionError(
            "resilience gate failed:\n  " + "\n  ".join(gate_failures)
        )
    return {
        "benchmark": "resilience",
        "unit": "coverage / wrong-answer fraction per (rate, variant)",
        "gate": (
            f"at rate {GATE_RATE:g}: uncoded measurably fails; checksum and "
            f"vote hold coverage >= {GATE_COVERAGE:g} with wrong_rate 0"
        ),
        "adversary": {"kinds": ["flip"], "rates": _rates(quick)},
        "results": rows,
    }


def format_row(row: Dict) -> str:
    return (
        "{graph:>14}  {variant:>8} p={corruption_rate:<5g} "
        "coverage={coverage:<7} wrong={wrong_rate:<7} bits={bits}"
    ).format(**row)


def smoke():
    """Tiny sweep + the full gate, for the bench-smoke tier."""
    report = run(quick=True)
    assert report["results"], "resilience bench produced no rows"
    for row in report["results"]:
        assert 0.0 <= row["coverage"] <= 1.0
        assert 0.0 <= row["wrong_rate"] <= 1.0
