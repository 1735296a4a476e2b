"""Pre-kernel MWU spanning packing, preserved as a correctness oracle.

This module is the original ``networkx``-object implementation of
Section 5's fractional spanning tree packing, exactly as it ran before
the :mod:`repro.fastgraph` rewrite of :mod:`repro.core.spanning_packing`.
It is kept as the **oracle**: the property tests assert that the kernel
implementation returns bit-identical tree collections and weights under
fixed seeds (``tests/test_fastgraph.py``).

Do not optimize this module; its value is that it stays the slow,
obviously-faithful transliteration of the paper.
"""

from __future__ import annotations

import math
from typing import Dict, FrozenSet, Hashable, List, Optional, Tuple

import networkx as nx

from repro.errors import GraphValidationError, PackingConstructionError
from repro.core.spanning_packing import (
    MwuParameters,
    MwuTrace,
    SpanningPackingResult,
)
from repro.core.tree_packing import SpanningTreePacking, WeightedTree
from repro.graphs.connectivity import edge_connectivity
from repro.graphs.sampling import choose_karger_parts, karger_edge_partition
from repro.utils.mathutil import ceil_div
from repro.utils.rng import RngLike, ensure_rng

Edge = FrozenSet[Hashable]


def _tree_edges(tree: nx.Graph) -> FrozenSet[Edge]:
    return frozenset(frozenset(e) for e in tree.edges())


def _edges_to_tree(graph: nx.Graph, tree_edges: FrozenSet[Edge]) -> nx.Graph:
    tree = nx.Graph()
    tree.add_nodes_from(graph.nodes())
    for e in tree_edges:
        u, v = tuple(e)
        tree.add_edge(u, v)
    return tree


def mwu_spanning_packing_reference(
    graph: nx.Graph,
    lam: Optional[int] = None,
    params: Optional[MwuParameters] = None,
) -> Tuple[List[Tuple[FrozenSet[Edge], float]], MwuTrace, int]:
    """The pre-kernel MWU core (Section 5.1), verbatim."""
    if not nx.is_connected(graph):
        raise GraphValidationError("MWU packing requires a connected graph")
    params = params or MwuParameters()
    n = graph.number_of_nodes()
    if lam is None:
        lam = edge_connectivity(graph)
    target = max(1, ceil_div(max(0, lam - 1), 2))
    alpha = params.alpha(n)
    beta = params.beta(n)
    epsilon = params.epsilon

    edges: List[Edge] = [frozenset(e) for e in graph.edges()]
    loads: Dict[Edge, float] = {e: 0.0 for e in edges}
    collection: Dict[FrozenSet[Edge], float] = {}

    first = nx.minimum_spanning_tree(graph)
    first_edges = _tree_edges(first)
    collection[first_edges] = 1.0
    for e in first_edges:
        loads[e] = 1.0

    trace = MwuTrace()
    cap = params.iteration_cap(n)
    for _ in range(cap):
        trace.iterations += 1
        z = {e: loads[e] * target for e in edges}
        z_max = max(z.values())
        trace.max_relative_load.append(z_max / target)
        if trace.iterations > 1 and z_max <= 1.0 + epsilon:
            trace.stopped_early = True
            break
        costs = {e: math.exp(alpha * (z[e] - z_max)) for e in edges}

        weighted = nx.Graph()
        weighted.add_nodes_from(graph.nodes())
        for e in edges:
            u, v = tuple(e)
            weighted.add_edge(u, v, cost=costs[e])
        mst = nx.minimum_spanning_tree(weighted, weight="cost")
        mst_edges = _tree_edges(mst)
        mst_cost = sum(costs[e] for e in mst_edges)
        fractional_cost = sum(costs[e] * loads[e] for e in edges)

        if mst_cost > (1.0 - epsilon) * fractional_cost:
            trace.stopped_early = True
            break
        for tree_key in collection:
            collection[tree_key] *= 1.0 - beta
        collection[mst_edges] = collection.get(mst_edges, 0.0) + beta
        for e in edges:
            loads[e] *= 1.0 - beta
        for e in mst_edges:
            loads[e] += beta

    max_load = max(loads[e] for e in edges if loads[e] > 0.0)
    scale = 1.0 / max_load
    normalized = [
        (tree_key, weight * scale)
        for tree_key, weight in collection.items()
        if weight * scale > 1e-12
    ]
    return normalized, trace, target


def fractional_spanning_tree_packing_reference(
    graph: nx.Graph,
    lam: Optional[int] = None,
    params: Optional[MwuParameters] = None,
    rng: RngLike = None,
) -> SpanningPackingResult:
    """The pre-kernel Theorem 1.3 construction, verbatim.

    Note this keeps the seed's redundant per-part
    ``edge_connectivity(part)`` oracle calls — part of what the current
    implementation fixed (the oracle result is implied by Karger's
    ``λ/η`` guarantee).
    """
    if graph.number_of_nodes() < 2:
        raise GraphValidationError("graph must have at least 2 nodes")
    if not nx.is_connected(graph):
        raise GraphValidationError("graph must be connected")
    params = params or MwuParameters()
    rand = ensure_rng(rng)
    n = graph.number_of_nodes()
    if lam is None:
        lam = edge_connectivity(graph)

    eta = choose_karger_parts(lam, n, params.epsilon)
    if eta <= 1:
        parts = [graph]
    else:
        parts = karger_edge_partition(graph, eta, rand)

    trees: List[WeightedTree] = []
    traces: List[MwuTrace] = []
    class_id = 0
    packed_parts = 0
    for part in parts:
        if part.number_of_edges() == 0 or not nx.is_connected(part):
            continue
        part_lam = edge_connectivity(part) if eta > 1 else lam
        normalized, trace, _ = mwu_spanning_packing_reference(
            part, part_lam, params
        )
        traces.append(trace)
        packed_parts += 1
        for tree_edges, weight in normalized:
            trees.append(
                WeightedTree(
                    tree=_edges_to_tree(graph, tree_edges),
                    weight=min(1.0, weight),
                    class_id=class_id,
                )
            )
            class_id += 1
    if not trees:
        raise PackingConstructionError(
            "no part produced spanning trees (graph too sparse for η parts?)"
        )
    packing = SpanningTreePacking(graph, trees)
    packing.verify()
    return SpanningPackingResult(
        packing=packing,
        lam=lam,
        target=max(1, ceil_div(max(0, lam - 1), 2)),
        parts=packed_parts,
        traces=traces,
    )
