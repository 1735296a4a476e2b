"""Exact edge and vertex connectivity on the kernel, with certifying cuts.

One unit-augmenting max-flow routine, :class:`_FlowNetwork`, runs on flat
arc arrays: arcs come in pairs ``2j``/``2j+1``, each the other's residual
reverse (so the reverse of arc ``a`` is ``a ^ 1``), the residual is one
``cap`` list, and each augmenting path is found by a bidirectional BFS
that grows the smaller frontier. A flow stops at a cutoff, the best
value found so far, since a flow that reaches it cannot lower the bound.

On that routine:

* :func:`edge_connectivity` — λ after Matula and Esfahanian–Hakimi.
  Edge ``e`` is the arc pair ``2e``/``2e+1``, both of capacity 1. If
  λ < δ, each side of a minimum cut holds a vertex with no neighbour on
  the other side, so every dominating set meets both sides: flows from
  one member of a dominating set to each other member find λ.
* :func:`vertex_connectivity` — κ after Even, on the vertex-split
  network (vertex ``x`` becomes ``2x`` → ``2x+1`` of capacity 1; each
  edge becomes two arcs of capacity ``n``, so a cut below ``n`` holds
  vertex arcs only). If κ < δ, a minimum cut either misses the
  min-degree vertex ``v``, which then has a non-neighbour beyond it, or
  holds ``v``, which then has two non-adjacent neighbours on different
  sides of it.

Both start from δ and return ``(value, cut)``. The cut is the residual
reach of the last flow that lowered the bound: the edge indices (for λ)
or the vertex ids (for κ) that leave it. If δ stands, it is the
min-degree vertex's star or neighbourhood. A graph that is disconnected
or has one node gets 0 and an empty cut, K_n gets ``n − 1``, and an
empty graph raises :class:`~repro.errors.GraphValidationError`.
"""

from __future__ import annotations

import heapq
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.errors import GraphValidationError
from repro.fastgraph.indexed import IndexedGraph


class _FlowNetwork:
    """Arc arrays plus the scratch space of the augmenting-path search.

    ``out_arcs[x]`` lists the arcs leaving node ``x``, ``head[a]`` is
    where arc ``a`` ends, and ``capacity[a]`` its capacity; each flow
    starts from a fresh copy of ``capacity``.
    """

    __slots__ = ("out_arcs", "head", "capacity", "cap", "_pred", "_succ",
                 "_seen_s", "_seen_t", "_stamp")

    def __init__(self, out_arcs: List[List[int]], head: List[int],
                 capacity: List[int]) -> None:
        size = len(out_arcs)
        self.out_arcs = out_arcs
        self.head = head
        self.capacity = capacity
        self.cap = capacity
        # pred[z]: the arc that reached z from the source side;
        # succ[z]: the arc that leads from z toward the sink.
        self._pred = [0] * size
        self._succ = [0] * size
        # Visit stamps, so no search clears its marks.
        self._seen_s = [0] * size
        self._seen_t = [0] * size
        self._stamp = 0

    def max_flow(self, source: int, sink: int, cutoff: int) -> int:
        """The ``source``→``sink`` flow value, or ``cutoff`` if it reaches it."""
        self.cap = cap = list(self.capacity)
        head = self.head
        flow = 0
        while flow < cutoff:
            meet = self._meet(source, sink)
            if meet < 0:
                break
            z = meet
            pred = self._pred
            while z != source:
                a = pred[z]
                cap[a] -= 1
                cap[a ^ 1] += 1
                z = head[a ^ 1]
            z = meet
            succ = self._succ
            while z != sink:
                a = succ[z]
                cap[a] -= 1
                cap[a ^ 1] += 1
                z = head[a]
            flow += 1
        return flow

    def _meet(self, source: int, sink: int) -> int:
        """A node on a residual ``source``→``sink`` path, or -1 if none.

        Grows the smaller of the two BFS frontiers one level at a time;
        the path runs through ``pred`` back to the source and through
        ``succ`` on to the sink.
        """
        self._stamp += 1
        stamp = self._stamp
        out_arcs = self.out_arcs
        head = self.head
        cap = self.cap
        pred = self._pred
        succ = self._succ
        seen_s = self._seen_s
        seen_t = self._seen_t
        seen_s[source] = stamp
        seen_t[sink] = stamp
        front_s = [source]
        front_t = [sink]
        while front_s and front_t:
            grown = []
            if len(front_s) <= len(front_t):
                for x in front_s:
                    for a in out_arcs[x]:
                        if cap[a]:
                            z = head[a]
                            if seen_s[z] != stamp:
                                pred[z] = a
                                if seen_t[z] == stamp:
                                    return z
                                seen_s[z] = stamp
                                grown.append(z)
                front_s = grown
            else:
                for y in front_t:
                    for b in out_arcs[y]:
                        if cap[b ^ 1]:
                            z = head[b]
                            if seen_t[z] != stamp:
                                succ[z] = b ^ 1
                                if seen_s[z] == stamp:
                                    return z
                                seen_t[z] = stamp
                                grown.append(z)
                front_t = grown
        return -1

    def lowest_flow(
        self, pairs: Iterable[Tuple[int, int]], bound: int
    ) -> Tuple[int, Optional[List[bool]]]:
        """The least ``source``→``sink`` flow over ``pairs`` below ``bound``,
        each flow cut off at the best value so far, and the residual
        reach of the last flow that lowered it (``None`` if none did)."""
        reach = None
        for source, sink in pairs:
            if bound == 0:
                break
            flow = self.max_flow(source, sink, bound)
            if flow < bound:
                bound = flow
                reach = self.residual_reach(source)
        return bound, reach

    def residual_reach(self, source: int) -> List[bool]:
        """Nodes reachable from ``source`` in the last flow's residual."""
        out_arcs = self.out_arcs
        head = self.head
        cap = self.cap
        reached = [False] * len(out_arcs)
        reached[source] = True
        stack = [source]
        while stack:
            x = stack.pop()
            for a in out_arcs[x]:
                if cap[a] and not reached[head[a]]:
                    reached[head[a]] = True
                    stack.append(head[a])
        return reached


def _simple_adjacency(indexed: IndexedGraph) -> List[List[int]]:
    """Int adjacency without self-loops, which change no cut."""
    if indexed.n == 0:
        raise GraphValidationError("graph must be non-empty")
    return [[b for b in nbrs if b != a]
            for a, nbrs in enumerate(indexed.neighbors())]


def _min_degree_vertex(adj: Sequence[Sequence[int]]) -> int:
    return min(range(len(adj)), key=lambda x: len(adj[x]))


def _dominating_set(adj: Sequence[Sequence[int]], start: int) -> List[int]:
    """A greedy dominating set: ``start``, then each time the node that
    dominates the most undominated nodes (lowest id on ties).

    A smaller set means fewer flows; on hypercube:7 this greedy finds 16
    members where a single scan in id order finds 64.
    """
    n = len(adj)
    dominated = [False] * n
    gain = [len(nbrs) + 1 for nbrs in adj]  # undominated nodes in N[x]
    heap = [(-gain[x], x) for x in range(n)]
    heapq.heapify(heap)
    members: List[int] = []
    x = start
    while x >= 0:
        members.append(x)
        for y in (x, *adj[x]):
            if not dominated[y]:
                dominated[y] = True
                gain[y] -= 1
                for z in adj[y]:
                    gain[z] -= 1
        x = -1
        while heap:
            negative, y = heapq.heappop(heap)
            if gain[y] == -negative:
                x = y
                break
            if gain[y]:
                heapq.heappush(heap, (-gain[y], y))
    return members


def edge_connectivity(indexed: IndexedGraph) -> Tuple[int, List[int]]:
    """Exact λ and a minimum edge cut, as edge indices of ``indexed``."""
    adj = _simple_adjacency(indexed)
    n = indexed.n
    us, vs = indexed.u, indexed.v
    out_arcs: List[List[int]] = [[] for _ in range(n)]
    head = [0] * (2 * indexed.m)
    for e in range(indexed.m):
        a, b = us[e], vs[e]
        if a != b:
            out_arcs[a].append(2 * e)
            out_arcs[b].append(2 * e + 1)
            head[2 * e] = b
            head[2 * e + 1] = a
    v = _min_degree_vertex(adj)
    network = _FlowNetwork(out_arcs, head, [1] * len(head))
    # If v alone dominates, it is adjacent to every node and λ = δ.
    lam, reach = network.lowest_flow(
        ((v, w) for w in _dominating_set(adj, v)[1:]), len(adj[v])
    )
    if reach is None:
        return lam, [a >> 1 for a in out_arcs[v]]
    return lam, [e for e in range(indexed.m) if reach[us[e]] != reach[vs[e]]]


def vertex_connectivity(indexed: IndexedGraph) -> Tuple[int, List[int]]:
    """Exact κ and a minimum vertex cut, as vertex ids of ``indexed``.

    For K_n (no vertex cut) the cut is the neighbourhood of a vertex.
    """
    adj = _simple_adjacency(indexed)
    n = indexed.n
    # Vertex x is node 2x (in) → node 2x+1 (out): arc 2x of capacity 1,
    # so arc i leaves node i. Edge arcs out(a) → in(b) follow from 2n
    # on, each with its zero-capacity reverse.
    out_arcs: List[List[int]] = [[i] for i in range(2 * n)]
    head = [i ^ 1 for i in range(2 * n)]
    capacity = [1, 0] * n
    for a in range(n):
        for b in adj[a]:
            arc = len(head)
            out_arcs[2 * a + 1].append(arc)
            out_arcs[2 * b].append(arc + 1)
            head += (2 * b, 2 * a + 1)
            capacity += (n, 0)
    v = _min_degree_vertex(adj)
    nbrs = adj[v]
    near = set(nbrs)
    near.add(v)
    pairs = [(v, w) for w in range(n) if w not in near]
    for i, x in enumerate(nbrs):
        adjacent = set(adj[x])
        pairs += [(x, y) for y in nbrs[i + 1:] if y not in adjacent]
    network = _FlowNetwork(out_arcs, head, capacity)
    kappa, reach = network.lowest_flow(
        ((2 * x + 1, 2 * y) for x, y in pairs), len(nbrs)
    )
    if reach is None:
        return kappa, list(nbrs)
    return kappa, [x for x in range(n) if reach[2 * x] and not reach[2 * x + 1]]
