"""Distributed minimum spanning tree via Borůvka phases.

This is the repository's substitute for the Kutten–Peleg MST [37]
(DESIGN.md Section 2): a correct synchronous CONGEST MST with the same
input/output contract — each node ends up knowing which of its incident
edges belong to the MST. It runs ``O(log n)`` phases; each phase costs
``O(D_frag)`` rounds of subgraph flooding, so the total measured round
count follows the ``O(D' log n)`` shape rather than [37]'s optimal
``O(D + √n log* n)``; the analytic bound is attached to the report.

Edge weights are totally ordered by ``(weight, id_u, id_v)`` with node
ids, which makes the MST unique and lets simultaneous fragment merges
never create cycles (classic Borůvka argument).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, Hashable, List, Optional, Set, Tuple

from repro.errors import SimulationError
from repro.simulator.algorithms.exchange import exchange_once
from repro.simulator.algorithms.subgraph_flood import (
    identify_components,
    subgraph_extremum,
)
from repro.simulator.metrics import AnalyticRoundCost, RoundReport, SimulationMetrics
from repro.simulator.network import Network
from repro.simulator.transport import Model


@dataclass
class MstResult:
    """Output of :func:`distributed_mst`."""

    edges: Set[FrozenSet[Hashable]]
    report: RoundReport

    @property
    def metrics(self) -> SimulationMetrics:
        return self.report.measured


def _edge_key(
    network: Network,
    u: Hashable,
    v: Hashable,
    weight_fn: Callable[[Hashable, Hashable], float],
) -> Tuple[float, int, int]:
    """Total order on edges: (weight, smaller id, larger id)."""
    id_u, id_v = network.node_id(u), network.node_id(v)
    lo, hi = (id_u, id_v) if id_u < id_v else (id_v, id_u)
    return (float(weight_fn(u, v)), lo, hi)


def distributed_mst(
    network: Network,
    weight_fn: Callable[[Hashable, Hashable], float],
    model: Model = Model.V_CONGEST,
    max_phases: Optional[int] = None,
) -> MstResult:
    """Compute the MST of the network under ``weight_fn``.

    Returns the MST edge set (as frozensets of endpoints) plus the round
    report. ``weight_fn(u, v)`` must be symmetric.
    """
    n = network.n
    metrics = SimulationMetrics()
    by_id = network.node_by_id  # the network owns the canonical id map
    tree_edges: Set[FrozenSet[Hashable]] = set()
    forest_adjacency: Dict[Hashable, Set[Hashable]] = {
        v: set() for v in network.nodes
    }
    phases_cap = max_phases if max_phases is not None else 2 * n.bit_length() + 4

    for phase in range(phases_cap):
        fragment_of, ident_result = identify_components(
            network, network.nodes, forest_adjacency, model=model
        )
        metrics.merge(ident_result.metrics)
        metrics.record_phase("mst-identify", ident_result.metrics.rounds)
        fragments = set(fragment_of.values())
        if len(fragments) == 1:
            break

        # One round: everyone announces their fragment id.
        heard, exch_result = exchange_once(
            network,
            {v: fragment_of[v] for v in network.nodes},
            model=model,
        )
        metrics.merge(exch_result.metrics)
        metrics.record_phase("mst-exchange", exch_result.metrics.rounds)

        # Locally pick the lightest outgoing edge of each node.
        local_best: Dict[Hashable, Optional[Tuple[float, int, int]]] = {}
        for v in network.nodes:
            best: Optional[Tuple[float, int, int]] = None
            for u, frag in heard[v].items():
                if frag == fragment_of[v]:
                    continue
                key = _edge_key(network, v, u, weight_fn)
                if best is None or key < best:
                    best = key
            local_best[v] = best

        # Fragment-wide minimum via flooding along forest edges.
        flood_result = subgraph_extremum(
            network,
            network.nodes,
            forest_adjacency,
            values=local_best,
            minimize=True,
            model=model,
        )
        metrics.merge(flood_result.metrics)
        metrics.record_phase("mst-fragmin", flood_result.metrics.rounds)

        new_edges: Set[FrozenSet[Hashable]] = set()
        for v in network.nodes:
            winner = flood_result.outputs[v]
            if winner is None:
                continue
            _, lo, hi = winner
            new_edges.add(frozenset((by_id(lo), by_id(hi))))
        if not new_edges:
            raise SimulationError(
                "Borůvka made no progress: network appears disconnected"
            )
        for edge in new_edges:
            u, v = tuple(edge)
            if edge not in tree_edges:
                tree_edges.add(edge)
                forest_adjacency[u].add(v)
                forest_adjacency[v].add(u)
    else:
        raise SimulationError("Borůvka exceeded its phase budget")

    report = RoundReport(
        measured=metrics,
        analytic=[AnalyticRoundCost.kutten_peleg_mst(n, network.diameter())],
    )
    return MstResult(edges=tree_edges, report=report)
