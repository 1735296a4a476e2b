"""The pre-kernel tree-routed broadcast schedulers (Appendix A), kept as
the oracle of :mod:`repro.apps.broadcast`.

:func:`vertex_broadcast` and :func:`edge_broadcast` are the label-level
schedulers the product ran before its schedulers moved onto node
indices and bitmasks: sets of labels, one ``frozenset`` per edge
crossing, and a scan of every node per round. They read each tree
through :attr:`~repro.core.tree_packing.WeightedTree.tree`. The product
must reproduce their rounds, tree assignment and per-node and per-edge
transmission counts exactly; ``tests/test_broadcast_equivalence.py``
checks it.

Do not optimize this module; its value is that it stays the plain
label-level statement of the schedule.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, FrozenSet, Hashable, List, Set, Tuple

from repro.apps.broadcast import BroadcastOutcome, assign_messages_to_trees
from repro.core.tree_packing import DominatingTreePacking, SpanningTreePacking
from repro.errors import GraphValidationError
from repro.utils.rng import RngLike, ensure_rng


def vertex_broadcast(
    packing: DominatingTreePacking,
    sources: Dict[int, Hashable],
    rng: RngLike = 0,
    max_rounds: int = 1_000_000,
) -> BroadcastOutcome:
    """Broadcast ``sources`` (message id → origin node) via random trees
    of a dominating tree packing, under V-CONGEST token capacities.

    Per round each node sends at most one token (fair round-robin over
    its pending (tree, message) queue); a token transmission is a local
    broadcast: same-tree neighbors extend the flood, every neighbor
    records receipt. Terminates when all nodes received all messages.
    """
    graph = packing.graph
    rand = ensure_rng(rng)
    trees = packing.trees
    assignment = assign_messages_to_trees(trees, len(sources), rand)
    # message ids are re-keyed to 0..N-1 in iteration order of `sources`.
    messages = list(sources.items())

    tree_nodes: List[Set[Hashable]] = [set(t.tree.nodes()) for t in trees]
    tree_adj: List[Dict[Hashable, Set[Hashable]]] = [
        {v: set(t.tree.neighbors(v)) for v in t.tree.nodes()} for t in trees
    ]

    received: Dict[Hashable, Set[int]] = {v: set() for v in graph.nodes()}
    queues: Dict[Hashable, deque] = {v: deque() for v in graph.nodes()}
    queued: Dict[Hashable, Set[Tuple[int, int]]] = {
        v: set() for v in graph.nodes()
    }
    node_tx: Dict[Hashable, int] = {v: 0 for v in graph.nodes()}
    edge_tx: Dict[FrozenSet[Hashable], int] = {}

    def enqueue(v: Hashable, tree_index: int, msg: int) -> None:
        token = (tree_index, msg)
        if token not in queued[v]:
            queued[v].add(token)
            queues[v].append(token)

    n_messages = len(messages)
    # Message injection: the source holds the token; if the source is not
    # in the tree, its first transmission hands the token to dominating
    # tree neighbors (a legal V-CONGEST broadcast).
    for index, (msg_id, source) in enumerate(messages):
        tree_index = assignment[index]
        received[source].add(index)
        enqueue(source, tree_index, index)

    target = n_messages
    rounds = 0
    while any(len(received[v]) < target for v in graph.nodes()):
        rounds += 1
        if rounds > max_rounds:
            raise GraphValidationError(
                "broadcast did not complete; is the packing dominating?"
            )
        transmissions = []
        for v in graph.nodes():
            if queues[v]:
                transmissions.append((v, queues[v].popleft()))
        if not transmissions:
            raise GraphValidationError(
                "broadcast stalled with undelivered messages"
            )
        for v, (tree_index, msg) in transmissions:
            node_tx[v] += 1
            in_tree = v in tree_nodes[tree_index]
            for u in graph.neighbors(v):
                edge = frozenset((v, u))
                edge_tx[edge] = edge_tx.get(edge, 0) + 1
                if msg not in received[u]:
                    received[u].add(msg)
                # Flood continuation: only along tree edges.
                if (
                    in_tree
                    and u in tree_adj[tree_index].get(v, ())
                    and (tree_index, msg) not in queued[u]
                ):
                    enqueue(u, tree_index, msg)
            if not in_tree:
                # Source outside the tree: hand the token to every
                # dominating neighbor inside the tree.
                for u in graph.neighbors(v):
                    if u in tree_nodes[tree_index]:
                        enqueue(u, tree_index, msg)

    return BroadcastOutcome(
        rounds=rounds,
        n_messages=n_messages,
        tree_assignment=assignment,
        node_transmissions=node_tx,
        edge_transmissions=edge_tx,
    )


def edge_broadcast(
    packing: SpanningTreePacking,
    sources: Dict[int, Hashable],
    rng: RngLike = 0,
    max_rounds: int = 1_000_000,
) -> BroadcastOutcome:
    """Broadcast via random trees of a spanning tree packing under
    E-CONGEST capacities (one token per directed edge per round)."""
    graph = packing.graph
    rand = ensure_rng(rng)
    trees = packing.trees
    assignment = assign_messages_to_trees(trees, len(sources), rand)
    messages = list(sources.items())
    tree_adj: List[Dict[Hashable, Set[Hashable]]] = [
        {v: set(t.tree.neighbors(v)) for v in t.tree.nodes()} for t in trees
    ]

    received: Dict[Hashable, Set[int]] = {v: set() for v in graph.nodes()}
    # pending[v] = deque of (tree, msg, next-neighbors-to-serve)
    queues: Dict[Hashable, deque] = {v: deque() for v in graph.nodes()}
    queued: Dict[Hashable, Set[Tuple[int, int]]] = {
        v: set() for v in graph.nodes()
    }
    node_tx: Dict[Hashable, int] = {v: 0 for v in graph.nodes()}
    edge_tx: Dict[FrozenSet[Hashable], int] = {}

    def enqueue(v: Hashable, tree_index: int, msg: int, origin) -> None:
        token = (tree_index, msg)
        if token in queued[v]:
            return
        queued[v].add(token)
        targets = [u for u in tree_adj[tree_index].get(v, ()) if u != origin]
        if targets:
            queues[v].append((tree_index, msg, deque(targets)))

    n_messages = len(messages)
    for index, (msg_id, source) in enumerate(messages):
        tree_index = assignment[index]
        received[source].add(index)
        enqueue(source, tree_index, index, origin=None)

    rounds = 0
    while any(len(received[v]) < n_messages for v in graph.nodes()):
        rounds += 1
        if rounds > max_rounds:
            raise GraphValidationError(
                "broadcast did not complete; is the packing spanning?"
            )
        progressed = False
        for v in graph.nodes():
            # E-CONGEST: each incident edge carries at most one token this
            # round; a node may serve all its edges simultaneously.
            used_edges: Set[Hashable] = set()
            pending = list(queues[v])
            queues[v].clear()
            for tree_index, msg, targets in pending:
                blocked: deque = deque()
                while targets:
                    u = targets.popleft()
                    if u in used_edges:
                        blocked.append(u)
                        continue
                    used_edges.add(u)
                    progressed = True
                    node_tx[v] += 1
                    edge = frozenset((v, u))
                    edge_tx[edge] = edge_tx.get(edge, 0) + 1
                    received[u].add(msg)
                    enqueue(u, tree_index, msg, origin=v)
                if blocked:
                    queues[v].append((tree_index, msg, blocked))
        if not progressed:
            raise GraphValidationError(
                "broadcast stalled with undelivered messages"
            )

    return BroadcastOutcome(
        rounds=rounds,
        n_messages=n_messages,
        tree_assignment=assignment,
        node_transmissions=node_tx,
        edge_transmissions=edge_tx,
    )
