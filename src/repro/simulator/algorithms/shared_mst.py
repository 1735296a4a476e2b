"""Simultaneous MSTs of edge-disjoint subgraphs (Lemma 5.1, end to end).

Section 5.2 splits the graph into ``η`` edge-disjoint subgraphs and runs
the spanning-tree packing in each; every MWU iteration then needs the
MST of *every* subgraph. Lemma 5.1 observes the two phases compose
cheaply:

1. **Local fragment phase** — Borůvka merging inside each subgraph.
   Because the subgraphs are edge-disjoint, in the E-CONGEST model all
   subgraphs merge *in parallel*: a round of subgraph ``j`` only uses
   ``H_j``'s edges, so the measured cost of the phase is the *maximum*
   over subgraphs, not the sum.
2. **Shared completion phase** — the surviving inter-fragment candidate
   edges of *all* subgraphs are upcast over one global BFS tree with
   pipelining (:mod:`~repro.simulator.algorithms.pipelined_upcast`);
   the root completes every subgraph's MST and the merge decisions are
   downcast. Sharing the tree is the whole point: the upcast costs
   ``O(D + Σ_j items_j)`` instead of ``Σ_j O(D + items_j)``.

The result object reports each phase's measured rounds next to the
naive per-subgraph cost so the E21 bench can show the savings.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Hashable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

import networkx as nx

from repro.errors import GraphValidationError
from repro.graphs.union_find import UnionFind
from repro.simulator.algorithms.bfs import build_bfs_tree
from repro.simulator.algorithms.pipelined_upcast import pipelined_upcast
from repro.simulator.algorithms.subgraph_flood import (
    identify_components,
    subgraph_extremum,
)
from repro.simulator.network import Network
from repro.simulator.transport import Model

Edge = FrozenSet[Hashable]
WeightFn = Callable[[Hashable, Hashable], float]


@dataclass
class SharedMstResult:
    """Per-subgraph spanning forests plus the phase-by-phase accounting."""

    forests: List[Set[Edge]]
    fragment_rounds: int       # max over subgraphs (parallel composition)
    completion_rounds: int     # shared upcasts + downcast floods
    naive_completion_rounds: int  # what η separate upcasts would cost
    upcast_items: int

    @property
    def total_rounds(self) -> int:
        return self.fragment_rounds + self.completion_rounds

    @property
    def sharing_speedup(self) -> float:
        """Naive ÷ shared completion cost (> 1 once η > 1)."""
        return self.naive_completion_rounds / max(1, self.completion_rounds)


def _edge_key(
    network: Network, u: Hashable, v: Hashable, weight_fn: WeightFn
) -> Tuple[float, int, int]:
    id_u, id_v = network.node_id(u), network.node_id(v)
    lo, hi = (id_u, id_v) if id_u < id_v else (id_v, id_u)
    return (float(weight_fn(u, v)), lo, hi)


def _bounded_boruvka(
    network: Network,
    subgraph_adjacency: Dict[Hashable, Set[Hashable]],
    weight_fn: WeightFn,
    phases: int,
    model: Model,
) -> Tuple[Dict[Hashable, int], Set[Edge], int]:
    """Run ``phases`` Borůvka phases inside one subgraph.

    Returns (fragment id per node, forest edges so far, measured rounds).
    The subgraph is given as an adjacency restriction of the network.
    """
    by_id = network.node_by_id  # the network owns the canonical id map
    forest: Dict[Hashable, Set[Hashable]] = {v: set() for v in network.nodes}
    tree_edges: Set[Edge] = set()
    rounds = 0
    for _ in range(phases):
        fragment_of, ident = identify_components(
            network, network.nodes, forest, model=model
        )
        rounds += ident.metrics.rounds
        # Local lightest outgoing subgraph edge per node.
        local_best: Dict[Hashable, Optional[Tuple[float, int, int]]] = {}
        for v in network.nodes:
            best: Optional[Tuple[float, int, int]] = None
            for u in subgraph_adjacency[v]:
                if fragment_of[u] == fragment_of[v]:
                    continue
                key = _edge_key(network, v, u, weight_fn)
                if best is None or key < best:
                    best = key
            local_best[v] = best
        rounds += 1  # the fragment-id exchange implicit in the scan above
        flood = subgraph_extremum(
            network,
            network.nodes,
            forest,
            values=local_best,
            minimize=True,
            model=model,
        )
        rounds += flood.metrics.rounds
        progressed = False
        for v in network.nodes:
            winner = flood.outputs[v]
            if winner is None:
                continue
            _, lo, hi = winner
            edge = frozenset((by_id(lo), by_id(hi)))
            if edge not in tree_edges:
                tree_edges.add(edge)
                a, b = tuple(edge)
                forest[a].add(b)
                forest[b].add(a)
                progressed = True
        if not progressed:
            break
    fragment_of, ident = identify_components(
        network, network.nodes, forest, model=model
    )
    rounds += ident.metrics.rounds
    return fragment_of, tree_edges, rounds


def simultaneous_msts(
    network: Network,
    subgraphs: Sequence[nx.Graph],
    weight_fns: Optional[Sequence[WeightFn]] = None,
    local_phases: int = 2,
    model: Model = Model.E_CONGEST,
) -> SharedMstResult:
    """MSTs (minimum spanning forests) of ``η`` edge-disjoint subgraphs.

    ``subgraphs`` must partition (a subset of) the network's edges; each
    ``weight_fns[j]`` orders subgraph ``j``'s edges (uniform weights when
    omitted — any spanning forest is then minimum). ``local_phases``
    bounds the parallel Borůvka phase count (the ``d``-control of
    Kutten–Peleg; more phases mean fewer, deeper fragments and a lighter
    upcast).

    Returns per-subgraph forests — spanning trees whenever the subgraph
    is connected — with measured rounds for both phases.
    """
    if not subgraphs:
        raise GraphValidationError("need at least one subgraph")
    nodes = set(network.nodes)
    seen_edges: Set[Edge] = set()
    adjacencies: List[Dict[Hashable, Set[Hashable]]] = []
    for subgraph in subgraphs:
        adjacency: Dict[Hashable, Set[Hashable]] = {v: set() for v in nodes}
        for u, v in subgraph.edges():
            if u not in nodes or v not in nodes:
                raise GraphValidationError("subgraph edge outside network")
            if not network.graph.has_edge(u, v):
                raise GraphValidationError(
                    "subgraph edge missing from the network"
                )
            edge = frozenset((u, v))
            if edge in seen_edges:
                raise GraphValidationError(
                    "subgraphs must be edge-disjoint (Karger parts)"
                )
            seen_edges.add(edge)
            adjacency[u].add(v)
            adjacency[v].add(u)
        adjacencies.append(adjacency)
    if weight_fns is None:
        weight_fns = [lambda u, v: 1.0] * len(subgraphs)
    if len(weight_fns) != len(subgraphs):
        raise GraphValidationError("one weight function per subgraph")

    # Phase 1: parallel local merging (cost = max over subgraphs).
    fragment_maps: List[Dict[Hashable, int]] = []
    forests: List[Set[Edge]] = []
    fragment_rounds = 0
    for adjacency, weight_fn in zip(adjacencies, weight_fns):
        fragment_of, edges, rounds = _bounded_boruvka(
            network, adjacency, weight_fn, local_phases, model
        )
        fragment_maps.append(fragment_of)
        forests.append(edges)
        fragment_rounds = max(fragment_rounds, rounds)

    # Phase 2: shared pipelined upcast of inter-fragment candidates.
    root = min(nodes, key=network.node_id)
    bfs_tree, bfs_run = build_bfs_tree(network, root)
    items_per_node: Dict[Hashable, List[Tuple[int, Tuple]]] = {
        v: [] for v in nodes
    }
    upcast_items = 0
    for j, (adjacency, fragment_of, weight_fn) in enumerate(
        zip(adjacencies, fragment_maps, weight_fns)
    ):
        # The node with the smaller id holds each candidate: the minimum
        # weight edge between every adjacent fragment pair.
        best_per_pair: Dict[Tuple[int, int], Tuple[float, int, int]] = {}
        for v in nodes:
            for u in adjacency[v]:
                if network.node_id(v) > network.node_id(u):
                    continue
                fu, fv = fragment_of[u], fragment_of[v]
                if fu == fv:
                    continue
                pair = (min(fu, fv), max(fu, fv))
                key = _edge_key(network, u, v, weight_fn)
                if pair not in best_per_pair or key < best_per_pair[pair]:
                    best_per_pair[pair] = key
        for pair, (weight, lo, hi) in best_per_pair.items():
            holder = network.node_by_id(lo)
            items_per_node[holder].append((j, (weight, lo, hi)))
            upcast_items += 1

    upcast = pipelined_upcast(network, items_per_node, bfs_tree=bfs_tree)

    # Root finishes each subgraph's MST centrally (Kruskal over the
    # candidate edges with fragments pre-merged), then the chosen edges
    # are downcast — same pipeline cost as the upcast.
    for j in range(len(subgraphs)):
        fragment_of = fragment_maps[j]
        uf = UnionFind(nodes)
        for edge in forests[j]:
            a, b = tuple(edge)
            uf.union(a, b)
        candidates = sorted(upcast.items_of_stream(j))
        for weight, lo, hi in candidates:
            u, v = network.node_by_id(lo), network.node_by_id(hi)
            if uf.find(u) != uf.find(v):
                uf.union(u, v)
                forests[j].add(frozenset((u, v)))

    downcast_rounds = upcast.rounds  # symmetric pipeline back down
    completion_rounds = bfs_run.metrics.rounds + upcast.rounds + downcast_rounds
    naive_completion = bfs_run.metrics.rounds + sum(
        2 * (bfs_tree.depth + len(upcast.items_of_stream(j)))
        for j in range(len(subgraphs))
    )
    return SharedMstResult(
        forests=forests,
        fragment_rounds=fragment_rounds,
        completion_rounds=completion_rounds,
        naive_completion_rounds=naive_completion,
        upcast_items=upcast_items,
    )
