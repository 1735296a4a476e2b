"""Distributed integral spanning tree packing (§1.2, "Integral Tree
Packings" paragraph).

The paper notes that "a considerably simpler variant of the algorithm of
Theorem 1.3 can be adapted to produce a spanning tree packing of size
``Ω(λ / log n)``, with a similar ``Õ(D + √(λn))`` round complexity":
split the edges into ``η = Θ(λ / log n)`` random parts (each part stays
connected w.h.p. by Karger sampling) and build one spanning tree per
part — no MWU iterations needed, because any spanning tree of a part is
a valid packing member.

This module runs that variant *distributedly* on the simulator: the
random edge partition is a zero-round local coin flip per edge (each
edge's smaller-id endpoint draws the part and tells the other endpoint
in one round), and the η spanning trees are computed simultaneously
with the Lemma 5.1 composition
(:func:`~repro.simulator.algorithms.shared_mst.simultaneous_msts`) —
parallel in-part Borůvka plus one shared pipelined completion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional

import networkx as nx

from repro.core.tree_packing import SpanningTreePacking, WeightedTree
from repro.errors import GraphValidationError, PackingConstructionError
from repro.fastgraph import IndexedGraph
from repro.fastgraph.flow import edge_connectivity
from repro.graphs.sampling import karger_edge_partition
from repro.simulator.algorithms.shared_mst import (
    SharedMstResult,
    simultaneous_msts,
)
from repro.simulator.network import Network
from repro.utils.rng import RngLike, ensure_rng


@dataclass
class DistributedIntegralSpanningResult:
    """An integral packing plus the distributed round accounting."""

    packing: SpanningTreePacking
    parts: int
    connected_parts: int
    mst_rounds: SharedMstResult

    @property
    def size(self) -> int:
        return len(self.packing.trees)

    @property
    def total_rounds(self) -> int:
        # +1: the edge-partition announcement round.
        return 1 + self.mst_rounds.total_rounds


def distributed_integral_spanning_packing(
    graph: nx.Graph,
    lam: Optional[int] = None,
    parts_factor: float = 0.5,
    local_phases: int = 2,
    rng: RngLike = None,
) -> DistributedIntegralSpanningResult:
    """Edge-disjoint spanning trees, one per Karger part, distributedly.

    ``lam`` is the edge connectivity (computed exactly when omitted —
    the distributed algorithm would use the Ghaffari–Kuhn 3-approximation
    here, see DESIGN.md §2). Parts that lose connectivity to sampling
    are dropped, exactly as in the centralized twin
    (:func:`repro.core.integral_packing.integral_spanning_packing`);
    the achieved size is the experiment's measurement.
    """
    if graph.number_of_nodes() < 2 or not nx.is_connected(graph):
        raise GraphValidationError("graph must be connected with >= 2 nodes")
    if parts_factor <= 0:
        raise GraphValidationError("parts_factor must be positive")
    rand = ensure_rng(rng)
    indexed = IndexedGraph.from_networkx(graph)
    if lam is None:
        lam, _ = edge_connectivity(indexed)
    n = graph.number_of_nodes()
    parts = max(1, int(parts_factor * lam / math.log(max(n, 2))))
    subgraphs = karger_edge_partition(graph, parts, rand)

    network = Network(graph, rng=rand, indexed=indexed)
    mst_result = simultaneous_msts(
        network, subgraphs, local_phases=local_phases
    )

    trees: List[WeightedTree] = []
    connected = 0
    for index, (part, edges) in enumerate(zip(subgraphs, mst_result.forests)):
        if len(edges) != n - 1:
            continue  # part was disconnected; its forest cannot span
        connected += 1
        tree = nx.Graph()
        tree.add_nodes_from(graph.nodes())
        tree.add_edges_from(tuple(e) for e in edges)
        trees.append(WeightedTree(tree=tree, weight=1.0, class_id=index))
    if not trees:
        raise PackingConstructionError(
            "no part stayed connected; λ too small for the requested split"
        )
    packing = SpanningTreePacking(graph, trees, indexed=indexed)
    packing.verify()
    if not packing.is_edge_disjoint():
        raise PackingConstructionError(
            "internal error: edge partition produced overlapping trees"
        )
    return DistributedIntegralSpanningResult(
        packing=packing,
        parts=parts,
        connected_parts=connected,
        mst_rounds=mst_result,
    )
