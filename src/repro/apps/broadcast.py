"""Tree-routed broadcast (Appendix A; Corollaries 1.4 and 1.5).

Every message is assigned to one tree of a packing (at random, with
probability proportional to tree weight — this is what makes the routing
*oblivious*), and is then flooded within that tree. Trees share vertices
(dominating tree packings) or edges (spanning tree packings) and
time-share them; the schedulers here simulate that token flow at the
model's granularity:

* :func:`vertex_broadcast` (V-CONGEST) — per round, each node transmits
  at most one (tree, message) token as a local broadcast; neighbors in
  the same tree continue the flood, and *all* neighbors record receipt —
  so domination delivers every message to every node.
* :func:`edge_broadcast` (E-CONGEST) — per round, each directed edge
  carries at most one token; floods follow tree edges, and since trees
  are spanning, every node is reached directly.

The schedulers are deliberately *not* NodeProgram simulations: the packing
fixes the routes, so only the queueing is left, and a token-level model
measures throughput/congestion orders of magnitude faster while enforcing
the identical per-round capacity constraints.

Both run on node indices: they read the trees' index forms on the
packing's :class:`~repro.fastgraph.indexed.IndexedGraph` (no labelled tree is
built), keep each node's received and queued messages as bitmasks, build
tree adjacency only for the trees some message uses, and count the
unfinished nodes instead of rescanning them. A message's tree fixes its
token, so a token is its message id. Nodes are served in index order —
``graph.nodes()`` order — the one order the schedule depends on; the
order of a node's neighbours or of a token's targets changes no queue.
Under V-CONGEST every transmission crosses all the sender's edges, so
an edge's count is the sum of its endpoints' transmissions. The
outcome is keyed by labels, and equals the label-level schedulers kept
in ``tests/oracles/broadcast_reference.py``.

Every entry point's ``rng`` defaults to seed 0 (not OS entropy): a
workload that omits the argument is still exactly reproducible, and
passing one seed pins the whole run — tree assignment included.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Dict, FrozenSet, Hashable, List, Sequence, Tuple

from repro.errors import GraphValidationError
from repro.core.tree_packing import (
    DominatingTreePacking,
    SpanningTreePacking,
    WeightedTree,
)
from repro.utils.rng import RngLike, ensure_rng


@dataclass
class BroadcastOutcome:
    """What a broadcast run measured."""

    rounds: int
    n_messages: int
    tree_assignment: Dict[int, int]          # message -> tree index
    node_transmissions: Dict[Hashable, int]  # vertex congestion
    edge_transmissions: Dict[FrozenSet[Hashable], int]  # edge congestion

    @property
    def throughput(self) -> float:
        """Messages delivered to all nodes per round."""
        return self.n_messages / max(1, self.rounds)

    @property
    def max_vertex_congestion(self) -> int:
        return max(self.node_transmissions.values(), default=0)

    @property
    def max_edge_congestion(self) -> int:
        return max(self.edge_transmissions.values(), default=0)


def assign_messages_to_trees(
    trees: Sequence[WeightedTree],
    n_messages: int,
    rng: RngLike = 0,
) -> Dict[int, int]:
    """Oblivious assignment: each message picks a tree ∝ its weight."""
    if not trees:
        raise GraphValidationError("packing has no trees")
    rand = ensure_rng(rng)
    weights = [max(t.weight, 0.0) for t in trees]
    total = sum(weights)
    if total <= 0:
        weights = [1.0] * len(trees)
        total = float(len(trees))
    assignment = {}
    for msg in range(n_messages):
        draw = rand.random() * total
        acc = 0.0
        chosen = len(trees) - 1
        for index, w in enumerate(weights):
            acc += w
            if draw <= acc:
                chosen = index
                break
        assignment[msg] = chosen
    return assignment


def _draw(
    packing, sources: Dict[int, Hashable], rng: RngLike
) -> Tuple[Dict[int, int], List[int], List[WeightedTree]]:
    """The oblivious tree draw, each message's origin index, and the
    trees in index form (messages are re-keyed to 0..N-1 in the
    iteration order of ``sources``)."""
    assignment = assign_messages_to_trees(
        packing.trees, len(sources), ensure_rng(rng)
    )
    index_of = packing.indexed.index_of
    origins = [index_of[source] for source in sources.values()]
    return assignment, origins, packing._index_forms()


def _outcome(
    packing,
    rounds: int,
    assignment: Dict[int, int],
    node_tx: List[int],
    edge_tx: Dict[FrozenSet[Hashable], int],
) -> BroadcastOutcome:
    return BroadcastOutcome(
        rounds=rounds,
        n_messages=len(assignment),
        tree_assignment=assignment,
        node_transmissions=dict(zip(packing.indexed.nodes, node_tx)),
        edge_transmissions=edge_tx,
    )


def vertex_broadcast(
    packing: DominatingTreePacking,
    sources: Dict[int, Hashable],
    rng: RngLike = 0,
    max_rounds: int = 1_000_000,
) -> BroadcastOutcome:
    """Broadcast ``sources`` (message id → origin node) via random trees
    of a dominating tree packing, under V-CONGEST token capacities.

    Per round each node sends at most one token (fair round-robin over
    its pending queue); a token transmission is a local broadcast:
    same-tree neighbors extend the flood, every neighbor records
    receipt. A source outside its message's tree hands the token to its
    neighbors inside the tree. Terminates when all nodes received all
    messages.
    """
    assignment, origins, trees = _draw(packing, sources, rng)
    indexed = packing.indexed
    n = indexed.n
    nbrs = indexed.neighbors()
    # Tree adjacency (keyed by the tree's nodes), for the used trees.
    adjacency = {t: trees[t]._adjacency() for t in set(assignment.values())}
    routes = [adjacency[assignment[msg]] for msg in range(len(origins))]

    full = (1 << len(origins)) - 1
    received = [0] * n
    queued = [0] * n
    queues = [deque() for _ in range(n)]
    for msg, source in enumerate(origins):
        bit = 1 << msg
        received[source] |= bit
        if not queued[source] & bit:
            queued[source] |= bit
            queues[source].append(msg)
    unfinished = sum(1 for got in received if got != full)

    node_tx = [0] * n
    first_tx: List[int] = []  # nodes in the order they first transmit
    rounds = 0
    while unfinished:
        rounds += 1
        if rounds > max_rounds:
            raise GraphValidationError(
                "broadcast did not complete; is the packing dominating?"
            )
        transmissions = [
            (v, queue.popleft()) for v, queue in enumerate(queues) if queue
        ]
        if not transmissions:
            raise GraphValidationError(
                "broadcast stalled with undelivered messages"
            )
        for v, msg in transmissions:
            if not node_tx[v]:
                first_tx.append(v)
            node_tx[v] += 1
            bit = 1 << msg
            for u in nbrs[v]:
                got = received[u]
                if not got & bit:
                    got |= bit
                    received[u] = got
                    if got == full:
                        unfinished -= 1
            adj = routes[msg]
            # Flood continuation runs along tree edges; a source outside
            # the tree hands the token to every neighbor inside it.
            onward = adj[v] if v in adj else [u for u in nbrs[v] if u in adj]
            for u in onward:
                if not queued[u] & bit:
                    queued[u] |= bit
                    queues[u].append(msg)

    # Edges keyed in the order they were first crossed: by first
    # transmission of an endpoint, then that endpoint's neighbor order.
    labels = indexed.nodes
    index_of = indexed.index_of
    neighbors = packing.graph.neighbors
    edge_tx: Dict[FrozenSet[Hashable], int] = {}
    keyed = bytearray(n)
    for a in first_tx:
        label = labels[a]
        for other in neighbors(label):
            b = index_of[other]
            if not keyed[b]:
                edge_tx[frozenset((label, other))] = (
                    node_tx[a] + node_tx[b] if b != a else node_tx[a]
                )
        keyed[a] = 1
    return _outcome(packing, rounds, assignment, node_tx, edge_tx)


def edge_broadcast(
    packing: SpanningTreePacking,
    sources: Dict[int, Hashable],
    rng: RngLike = 0,
    max_rounds: int = 1_000_000,
) -> BroadcastOutcome:
    """Broadcast via random trees of a spanning tree packing under
    E-CONGEST capacities (one token per directed edge per round).

    A node serves its queue in order each round, each token sending on
    every tree edge (but the one it came by) that no earlier token used
    this round; the rest wait. A token forwarded to a node served later
    in the same round moves on in that round.
    """
    assignment, origins, trees = _draw(packing, sources, rng)
    indexed = packing.indexed
    n = indexed.n
    # Each tree node's (tree neighbor, edge id) hops, for the used trees.
    hops_of = {}
    for t in set(assignment.values()):
        hops = {i: [] for i in trees[t]._nodes}
        for (a, b), edge in zip(trees[t]._pairs(), trees[t]._edge_ids()):
            hops[a].append((b, edge))
            hops[b].append((a, edge))
        hops_of[t] = hops
    routes = [hops_of[assignment[msg]] for msg in range(len(origins))]

    # A queue entry is (message, hops, the node it came from): a token
    # is queued only if it has a hop other than back to that node.
    full = (1 << len(origins)) - 1
    received = [0] * n
    queued = [0] * n
    queues: List[list] = [[] for _ in range(n)]
    for msg, source in enumerate(origins):
        bit = 1 << msg
        received[source] |= bit
        if not queued[source] & bit:
            queued[source] |= bit
            hops = routes[msg].get(source)
            if hops:
                queues[source].append((msg, hops, -1))
    unfinished = sum(1 for got in received if got != full)

    node_tx = [0] * n
    crossings: Dict[int, int] = {}  # edge id -> transmissions
    used = [0] * n  # stamp of the last (round, sender) that used edge v–u
    stamp = 0
    rounds = 0
    while unfinished:
        rounds += 1
        if rounds > max_rounds:
            raise GraphValidationError(
                "broadcast did not complete; is the packing spanning?"
            )
        progressed = False
        for v in range(n):
            pending = queues[v]
            if not pending:
                continue
            # The first target of the first token is always free.
            progressed = True
            queues[v] = kept = []
            stamp += 1
            sent = 0
            for msg, hops, came_from in pending:
                bit = 1 << msg
                blocked = []
                for hop in hops:
                    u, edge = hop
                    if u == came_from:
                        continue
                    if used[u] == stamp:
                        blocked.append(hop)
                        continue
                    used[u] = stamp
                    sent += 1
                    crossings[edge] = crossings.get(edge, 0) + 1
                    got = received[u]
                    if not got & bit:
                        got |= bit
                        received[u] = got
                        if got == full:
                            unfinished -= 1
                    if not queued[u] & bit:
                        queued[u] |= bit
                        onward = routes[msg].get(u)
                        if onward and (len(onward) > 1 or onward[0][0] != v):
                            queues[u].append((msg, onward, v))
                if blocked:
                    kept.append((msg, blocked, -1))
            node_tx[v] += sent
        if not progressed:
            raise GraphValidationError(
                "broadcast stalled with undelivered messages"
            )

    edge_tx = {
        frozenset(indexed.endpoints(edge)): count
        for edge, count in crossings.items()
    }
    return _outcome(packing, rounds, assignment, node_tx, edge_tx)
