"""Markdown report generation: claim vs. measured, programmatically.

EXPERIMENTS.md snapshots the benchmark tables; this module regenerates
the headline comparisons as a single markdown document from live runs,
so a downstream user can produce their own claim-vs-measured report on
their own graphs::

    from repro.analysis.report import full_report
    print(full_report([my_graph], rng=1))

The report covers the four headline quantities: the dominating tree
packing size against ``Ω(k / log n)`` (Theorem 1.1/1.2), the spanning
tree packing size against ``⌈(λ−1)/2⌉`` (Theorem 1.3), the vertex
connectivity estimate interval (Corollary 1.7), and broadcast
throughput (Corollary 1.4).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, List, Sequence, Tuple

import networkx as nx

from repro.utils.rng import RngLike, ensure_rng, fresh_seed


def render_markdown_table(
    headers: Sequence[str], rows: Iterable[Sequence]
) -> str:
    """A GitHub-flavored markdown table."""
    def fmt(cell) -> str:
        if isinstance(cell, float):
            return f"{cell:.3f}"
        return str(cell)

    lines = [
        "| " + " | ".join(headers) + " |",
        "|" + "|".join("---" for _ in headers) + "|",
    ]
    for row in rows:
        lines.append("| " + " | ".join(fmt(c) for c in row) + " |")
    return "\n".join(lines)


@dataclass
class GraphReportRow:
    """Measured headline quantities for one graph."""

    name: str
    n: int
    k: int
    lam: int
    cds_size: float
    cds_bound: float       # k / ln n
    spanning_size: float
    tutte_bound: int
    estimate_interval: Tuple[float, float]
    broadcast_throughput: float


def measure_graph(
    graph: nx.Graph, name: str = "graph", rng: RngLike = None
) -> GraphReportRow:
    """Run the four headline measurements on one graph: one
    :class:`~repro.api.GraphSession`, one seed drawn from ``rng``, and
    the estimate and the broadcast on one CDS packing."""
    from repro.api import GraphSession

    seed = fresh_seed(ensure_rng(rng))
    session = GraphSession(graph, label=name)
    n = session.n
    estimate = session.connectivity(seed=seed, exact=True).payload
    k, lam = estimate["exact_k"], estimate["exact_lambda"]
    spanning = session.pack_spanning(seed=seed, lam=lam).payload
    outcome = session.broadcast(messages=2 * n, seed=seed).payload

    return GraphReportRow(
        name=name,
        n=n,
        k=k,
        lam=lam,
        cds_size=estimate["packing_size"],
        cds_bound=k / math.log(max(n, 2)),
        spanning_size=spanning["size"],
        tutte_bound=spanning["target"],
        estimate_interval=(estimate["lower_bound"], estimate["upper_bound"]),
        broadcast_throughput=outcome["throughput"],
    )


def full_report(
    graphs: Sequence[Tuple[str, nx.Graph]], rng: RngLike = None
) -> str:
    """Markdown claim-vs-measured report over named graphs."""
    rand = ensure_rng(rng)
    rows = [measure_graph(graph, name, rand) for name, graph in graphs]

    sections: List[str] = ["# repro measurement report", ""]

    sections.append("## Theorem 1.1/1.2 — dominating tree packing")
    sections.append("")
    sections.append(
        render_markdown_table(
            ["graph", "n", "k", "size", "k/ln n", "size·ln n/k"],
            [
                (
                    r.name,
                    r.n,
                    r.k,
                    r.cds_size,
                    r.cds_bound,
                    r.cds_size / max(r.cds_bound, 1e-9),
                )
                for r in rows
            ],
        )
    )
    sections.append("")

    sections.append("## Theorem 1.3 — spanning tree packing")
    sections.append("")
    sections.append(
        render_markdown_table(
            ["graph", "λ", "size", "⌈(λ-1)/2⌉", "size/bound"],
            [
                (
                    r.name,
                    r.lam,
                    r.spanning_size,
                    r.tutte_bound,
                    r.spanning_size / r.tutte_bound,
                )
                for r in rows
            ],
        )
    )
    sections.append("")

    sections.append("## Corollary 1.7 — vertex connectivity estimate")
    sections.append("")
    sections.append(
        render_markdown_table(
            ["graph", "k", "lower", "upper", "contains k"],
            [
                (
                    r.name,
                    r.k,
                    r.estimate_interval[0],
                    r.estimate_interval[1],
                    r.estimate_interval[0] - 1e-9
                    <= r.k
                    <= r.estimate_interval[1] + 1e-9,
                )
                for r in rows
            ],
        )
    )
    sections.append("")

    sections.append("## Corollary 1.4 — broadcast throughput")
    sections.append("")
    sections.append(
        render_markdown_table(
            ["graph", "k", "throughput (msgs/round)", "k/ln n"],
            [
                (r.name, r.k, r.broadcast_throughput, r.cds_bound)
                for r in rows
            ],
        )
    )
    sections.append("")
    return "\n".join(sections)
