"""Pipelined upcast over a BFS tree (the Lemma 5.1 primitive).

Kutten–Peleg's MST algorithm finishes by upcasting the ``O(n/d)``
inter-fragment candidate edges over a BFS tree in ``O(D + n/d)`` rounds;
the paper's Lemma 5.1 observes that the upcasts of ``η`` *simultaneous*
MST computations (one per Karger-sampled subgraph) can share one BFS tree
with pipelining, landing at the root in ``O(D + η·n/d)`` rounds total —
the round complexity that makes Theorem 1.3's ``Õ(D + √(nλ))`` possible.

This module implements the primitive faithfully on the round simulator:
each node holds a multiset of items (opaque ``O(log n)``-bit values, each
tagged with the id of the computation it belongs to); per round, each
node forwards exactly one pending item to its BFS parent (E-CONGEST: one
message per tree edge per round). The root accumulates everything. The
measured round count is checked against the ``depth + total_items``
pipeline bound by the tests and the E19 bench.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Hashable, List, Optional, Sequence, Tuple

from repro.errors import GraphValidationError
from repro.simulator.algorithms.bfs import BfsTree, build_bfs_tree
from repro.simulator.message import Message
from repro.simulator.network import Network
from repro.simulator.node import Context, NodeProgram
from repro.simulator.runner import Model, simulate


@dataclass
class UpcastResult:
    """Outcome of one pipelined upcast."""

    root: Hashable
    collected: List[Tuple[int, Any]]  # (stream id, item) in arrival order
    rounds: int
    tree_depth: int
    total_items: int

    def items_of_stream(self, stream: int) -> List[Any]:
        """Items of one computation (e.g. one subgraph's MST edges)."""
        return [item for s, item in self.collected if s == stream]

    @property
    def pipeline_bound(self) -> int:
        """The ``depth + total items`` upper bound the run must meet."""
        return self.tree_depth + self.total_items


class _UpcastProgram(NodeProgram):
    """Forward one pending (stream, item) pair to the parent per round.

    Leaves drain first; interior nodes interleave their own items with
    relayed ones in FIFO order, which is exactly the pipelining argument
    of Lemma 5.1: the root's incoming link is busy every round once the
    first item arrives, so completion takes ``≤ depth + total`` rounds.
    """

    def __init__(
        self,
        parent: Optional[Hashable],
        own_items: Sequence[Tuple[int, Any]],
    ) -> None:
        self._parent = parent
        self._is_root = parent is None
        # The root's own items are already "delivered".
        self._pending = [] if self._is_root else list(own_items)
        self._collected: List[Tuple[int, Any]] = (
            list(own_items) if self._is_root else []
        )

    def on_start(self, ctx: Context):
        return self._emit()

    def on_round(self, ctx: Context, inbox: Dict[Hashable, Message]):
        for message in inbox.values():
            stream, item = message.payload
            if self._is_root:
                self._collected.append((stream, item))
            else:
                self._pending.append((stream, item))
        if self._is_root:
            ctx.output = list(self._collected)
            return None
        return self._emit()

    def _emit(self):
        if self._parent is None or not self._pending:
            return None
        return {self._parent: self._pending.pop(0)}


def pipelined_upcast(
    network: Network,
    items_per_node: Dict[Hashable, Sequence[Tuple[int, Any]]],
    root: Optional[Hashable] = None,
    bfs_tree: Optional[BfsTree] = None,
    max_rounds: int = 1_000_000,
) -> UpcastResult:
    """Upcast every node's tagged items to ``root`` with pipelining.

    ``items_per_node[v]`` is a sequence of ``(stream_id, item)`` pairs held
    by ``v``; stream ids distinguish the η parallel computations sharing
    the tree. The BFS tree is built on the fly (costing its own rounds,
    reported separately by :func:`build_bfs_tree`) unless one is supplied.

    Returns the root's arrival log plus the measured round count, which
    the caller can compare against :attr:`UpcastResult.pipeline_bound`.
    """
    nodes = set(network.nodes)
    for node, items in items_per_node.items():
        if node not in nodes:
            raise GraphValidationError(f"unknown item holder {node!r}")
        for entry in items:
            if len(entry) != 2:
                raise GraphValidationError(
                    "items must be (stream_id, item) pairs"
                )
    if bfs_tree is None:
        if root is None:
            root = min(nodes, key=network.node_id)
        bfs_tree, _ = build_bfs_tree(network, root)
    else:
        if root is not None and root != bfs_tree.root:
            raise GraphValidationError("root does not match supplied tree")
        root = bfs_tree.root

    total = sum(len(items) for items in items_per_node.values())
    result = simulate(
        network,
        lambda v: _UpcastProgram(
            bfs_tree.parent[v], items_per_node.get(v, ())
        ),
        model=Model.E_CONGEST,
        max_rounds=max_rounds,
    )
    collected = result.outputs[root] or []
    if len(collected) != total:
        raise GraphValidationError(
            f"upcast lost items: {len(collected)} of {total} arrived"
        )
    return UpcastResult(
        root=root,
        collected=collected,
        rounds=result.metrics.rounds,
        tree_depth=bfs_tree.depth,
        total_items=total,
    )


def parallel_upcast_rounds(
    depth: int, stream_sizes: Sequence[int]
) -> int:
    """The analytic Lemma 5.1 bound: ``O(D + Σ_j |stream_j|)``.

    Returned as the concrete ``depth + total`` value for report columns
    next to measured rounds.
    """
    if depth < 0 or any(size < 0 for size in stream_sizes):
        raise GraphValidationError("sizes must be non-negative")
    return depth + sum(stream_sizes)
