"""Distributed fractional spanning tree packing (Section 5.1 / Lemma 5.1).

The MWU loop of :mod:`repro.core.spanning_packing`, executed as an
E-CONGEST protocol:

* per iteration, every node knows the loads ``x_e`` of its incident edges
  (it stores the trees it belongs to), hence the costs ``c_e`` — the
  message-size trick of footnote 6 (send ``z_e``, not ``c_e``) is
  respected since our MST substitute compares costs locally;
* the MST under the costs is computed by the distributed Borůvka of
  :mod:`repro.simulator.algorithms.boruvka` (substituting Kutten–Peleg;
  DESIGN.md §2);
* the termination test ``Cost(MST) > (1−ε)·Σ c_e·x_e`` is decided at a
  leader: both sums are aggregated up a BFS tree by convergecast and the
  verdict broadcast back down (the paper's exact mechanism).

**One construction.** The MWU loop, Section 5.2's Karger split, the λ
oracle and the packing assembly are :mod:`repro.core.spanning_packing`'s;
this module supplies only the per-iteration step, :func:`_protocol_step`
bound to each part's network, and the Lemma 5.1 round report.

Parts are **edge-disjoint**, so their protocols run in parallel without
interference, and the per-iteration round cost is the *maximum* over
parts plus the pipelined ``O(D + η)`` decision upcast of Lemma 5.1 —
this is how the combined metrics are accounted.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import random
from dataclasses import dataclass
from typing import Dict, FrozenSet, Hashable, List, Optional, Sequence

import networkx as nx

from repro.core import spanning_packing
from repro.core.spanning_packing import (
    MwuParameters,
    MwuStep,
    SpanningPackingResult,
)
from repro.core.tree_packing import SpanningTreePacking
from repro.fastgraph import IndexedGraph
from repro.graphs.sampling import choose_karger_parts
from repro.simulator.algorithms.bfs import build_bfs_tree
from repro.simulator.algorithms.boruvka import distributed_mst
from repro.simulator.algorithms.convergecast import converge_sum
from repro.simulator.metrics import (
    AnalyticRoundCost,
    RoundReport,
    SimulationMetrics,
)
from repro.simulator.network import Network
from repro.simulator.runner import Model
from repro.utils.rng import RngLike, ensure_rng

Edge = FrozenSet[Hashable]


@dataclass
class DistributedSpanningResult:
    """Packing plus round accounting for the distributed construction."""

    result: SpanningPackingResult
    report: RoundReport
    iterations_per_part: List[int]

    @property
    def packing(self) -> SpanningTreePacking:
        return self.result.packing


def _protocol_step(
    graph: nx.Graph,
    rng: random.Random,
    part_metrics: List[SimulationMetrics],
    indexed: IndexedGraph,
    edge_ids: Sequence[int],
    params: MwuParameters,
) -> MwuStep:
    """Section 5.1's protocol as the MWU step of one connected part.

    Builds the part's network (the graph itself when the part holds every
    edge; otherwise all nodes plus the part's edges in the graph's edge
    order, as Karger's split lays them out) and its leader's BFS tree,
    then answers each step with a distributed MST and the leader's
    verdict. The part's measured metrics are appended to
    ``part_metrics``.
    """
    if len(edge_ids) == indexed.m:
        network = Network(graph, rng=rng, require_connected=False,
                          indexed=indexed)
    else:
        network = Network(indexed.tree_graph(sorted(edge_ids)), rng=rng,
                          require_connected=False)
    metrics = SimulationMetrics()
    part_metrics.append(metrics)

    # Leader + BFS tree for the decision aggregation (O(D) preprocessing).
    root = max(network.nodes, key=network.node_id)
    bfs, bfs_result = build_bfs_tree(network, root)
    metrics.merge(bfs_result.metrics)

    position: Dict[Edge, int] = {}
    # Each edge is owned by its smaller-id endpoint, which reports it in
    # the convergecasts.
    owner: List[Hashable] = []
    for p, i in enumerate(edge_ids):
        u, v = indexed.endpoints(i)
        position[frozenset((u, v))] = p
        owner.append(u if network.node_id(u) < network.node_id(v) else v)
    # Values are scaled to ints for the payload (the footnote-6 rounding
    # to multiples of Θ(1/n)).
    scale = max(1, network.n) * 1000
    one_minus_eps = 1.0 - params.epsilon

    def step(costs, loads):
        def cost(u: Hashable, v: Hashable) -> float:
            if costs is None:
                return 1.0
            return costs[position[frozenset((u, v))]]

        mst = distributed_mst(network, cost, model=Model.E_CONGEST)
        metrics.merge(mst.metrics)
        tree = [position[e] for e in mst.edges]
        if costs is None:
            return tree, False

        # Convergecast the two sums to the leader.
        owner_mst = dict.fromkeys(network.nodes, 0)
        owner_frac = dict.fromkeys(network.nodes, 0)
        for p in tree:
            owner_mst[owner[p]] += int(round(costs[p] * scale))
        for p, c in enumerate(costs):
            owner_frac[owner[p]] += int(round(c * loads[p] * scale))
        mst_cost, res = converge_sum(network, bfs, owner_mst)
        metrics.merge(res.metrics)
        frac_cost, res = converge_sum(network, bfs, owner_frac)
        metrics.merge(res.metrics)
        # Leader's verdict travels back down the BFS tree: O(depth) rounds.
        metrics.record_round(0, 0, 0)
        for _ in range(bfs.depth):
            metrics.record_round(network.n, network.n, 1)
        return tree, mst_cost > one_minus_eps * frac_cost

    return step


def distributed_spanning_packing(
    graph: nx.Graph,
    lam: Optional[int] = None,
    params: Optional[MwuParameters] = None,
    rng: RngLike = None,
) -> DistributedSpanningResult:
    """Theorem 1.3's distributed construction with Lemma 5.1 accounting.

    :func:`~repro.core.spanning_packing.fractional_spanning_tree_packing`
    with the protocol step. ``params.max_iterations`` defaults to 30,
    well below the Θ(log³ n) cap — the simulation is faithful but slow,
    and the early-stopping rule usually fires long before the cap on the
    tested families; set it higher to run to the analytic schedule.
    """
    params = params or MwuParameters()
    if params.max_iterations is None:
        params = dataclasses.replace(params, max_iterations=30)
    rand = ensure_rng(rng)
    part_metrics: List[SimulationMetrics] = []
    # One index: the full-graph part's network shares it, so its MSTs'
    # Kutten–Peleg bounds and this report read one cached diameter.
    indexed = IndexedGraph.from_networkx(graph)
    result = spanning_packing.fractional_spanning_tree_packing(
        graph, lam, params, rand, indexed=indexed,
        step=functools.partial(_protocol_step, graph, rand, part_metrics),
    )
    iterations = [trace.iterations for trace in result.traces]
    n = graph.number_of_nodes()
    eta = choose_karger_parts(result.lam, n, params.epsilon)
    diameter = indexed.diameter()
    # Parallel composition over edge-disjoint parts: measured rounds =
    # max over parts, plus the pipelined decision upcast O(D + η) per
    # iteration (Lemma 5.1).
    combined = SimulationMetrics()
    combined.merge(max(part_metrics, key=lambda m: m.rounds))
    for _ in range((diameter + eta) * max(iterations) if eta > 1 else 0):
        combined.record_round(0, 0, 0)
    log_n = math.log2(max(n, 2))
    analytic = [
        AnalyticRoundCost(
            "lemma-5.1",
            (diameter + math.sqrt(n * max(1, result.lam)) / max(1.0, log_n))
            * log_n**3,
        )
    ]
    return DistributedSpanningResult(
        result=result,
        report=RoundReport(measured=combined, analytic=analytic),
        iterations_per_part=iterations,
    )
