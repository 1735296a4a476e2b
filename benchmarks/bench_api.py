"""E25: session-cached pipeline vs per-call canonicalization.

The :class:`repro.api.GraphSession` exists so the standard workload —
estimate vertex connectivity, build the CDS packing, broadcast over it —
pays for canonicalization (and the underlying packing construction)
once instead of once per call. This benchmark times the full
estimate → pack → broadcast pipeline both ways on the same graph and
seed, asserts the outputs are identical, and records the speedup →
``BENCH_api.json`` (via ``run_benchmarks.py --suite api``).

* **per-call** — the legacy free-function path:
  ``approximate_vertex_connectivity`` + ``fractional_cds_packing`` +
  ``vertex_broadcast``, each call re-canonicalizing the graph and the
  first two each running their own packing construction.
* **session** — one ``GraphSession``: ``connectivity()`` and
  ``pack_cds()`` share a single construction over a single index, and
  ``broadcast()`` rides on the cached packing.

Gate: the cached session pipeline must beat the per-call pipeline on
every row (the acceptance criterion for the API-layer PR).
"""

from __future__ import annotations

from typing import Dict, List

from benchmarks.conftest import best_of

MESSAGES = 16


def _cases(quick: bool):
    from repro.graphs.generators import harary_graph, random_regular_connected

    if quick:
        return [
            ("harary(6,48)", lambda: harary_graph(6, 48)),
            ("regular(8,80)", lambda: random_regular_connected(8, 80, rng=3)),
        ]
    return [
        ("harary(6,120)", lambda: harary_graph(6, 120)),
        ("regular(8,250)", lambda: random_regular_connected(8, 250, rng=3)),
        ("harary(8,400)", lambda: harary_graph(8, 400)),
    ]


def _per_call_pipeline(graph, seed: int):
    """The pre-API shape: three free calls, three canonicalizations."""
    from repro.apps.broadcast import vertex_broadcast
    from repro.core.cds_packing import fractional_cds_packing
    from repro.core.vertex_connectivity import approximate_vertex_connectivity

    estimate = approximate_vertex_connectivity(graph, rng=seed)
    packing = fractional_cds_packing(graph, rng=seed).packing
    nodes = sorted(graph.nodes(), key=str)
    sources = {i: nodes[i % len(nodes)] for i in range(MESSAGES)}
    outcome = vertex_broadcast(packing, sources, rng=seed)
    return estimate, packing, outcome


def _session_pipeline(graph, seed: int):
    """The API shape: one session, one index, one construction."""
    from repro.api import GraphSession

    session = GraphSession(graph)
    estimate = session.connectivity(seed=seed)
    packing = session.pack_cds(seed=seed).raw.packing
    outcome = session.broadcast(messages=MESSAGES, seed=seed).raw
    return estimate, packing, outcome


def run(quick: bool = False, repeats: int = 3, seed: int = 9) -> Dict:
    """Time both pipelines; assert identical outputs per row."""
    rows: List[Dict] = []
    for name, builder in _cases(quick):
        graph = builder()
        per_call_s, per_call = best_of(
            lambda: _per_call_pipeline(graph, seed), repeats
        )
        session_s, session_out = best_of(
            lambda: _session_pipeline(graph, seed), repeats
        )
        estimate, packing, outcome = per_call
        s_estimate, s_packing, s_outcome = session_out
        if (
            estimate.lower_bound != s_estimate.payload["lower_bound"]
            or estimate.upper_bound != s_estimate.payload["upper_bound"]
            or packing.size != s_packing.size
            or outcome.rounds != s_outcome.rounds
            or outcome.tree_assignment != s_outcome.tree_assignment
        ):
            raise AssertionError(
                f"{name}: session and per-call pipelines diverged"
            )
        speedup = per_call_s / session_s
        if not quick and speedup <= 1.0:
            # The full-size gate: one construction + one index must beat
            # three canonicalizations + two constructions. (--quick rows
            # are too small to time-gate without flaking.)
            raise AssertionError(
                f"{name}: cached session ({session_s:.4f}s) did not beat "
                f"per-call canonicalization ({per_call_s:.4f}s)"
            )
        rows.append(
            {
                "graph": name,
                "n": graph.number_of_nodes(),
                "m": graph.number_of_edges(),
                "seed": seed,
                "messages": MESSAGES,
                "packing_size": packing.size,
                "broadcast_rounds": outcome.rounds,
                "per_call_s": round(per_call_s, 6),
                "session_s": round(session_s, 6),
                "speedup": round(speedup, 2),
            }
        )
    return {
        "benchmark": "api",
        "unit": "seconds (best of repeats, wall clock)",
        "pipeline": "connectivity -> pack_cds -> broadcast",
        "repeats": repeats,
        "gate": "cached session beats per-call canonicalization on every row",
        "results": rows,
    }


def format_row(row: Dict) -> str:
    return (
        "{graph:>16}  n={n:<4} m={m:<5} per-call={per_call_s:.3f}s "
        "session={session_s:.3f}s speedup={speedup}x "
        "rounds={broadcast_rounds}"
    ).format(**row)


def smoke():
    """Tiny run + equality gate for the bench-smoke tier."""
    report = run(quick=True, repeats=1)
    assert report["results"], "api bench produced no rows"
    for row in report["results"]:
        assert row["packing_size"] > 0
        assert row["session_s"] > 0
