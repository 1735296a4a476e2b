"""Distributed BFS tree construction.

Section 2 of the paper: "by using a simple and standard BFS tree approach,
in O(D) rounds, nodes can learn the number of nodes in the network n, and
also a 2-approximation of the diameter". This module implements that BFS
wave; the count/diameter aggregation uses
:mod:`repro.simulator.algorithms.convergecast` on the produced tree.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, Optional, Tuple

from repro.simulator.message import Message
from repro.simulator.network import Network
from repro.simulator.node import Context, NodeProgram
from repro.simulator.runner import SimulationResult, simulate
from repro.simulator.transport import Model


@dataclass(frozen=True)
class BfsTree:
    """Result of a BFS wave: parent pointers and hop distances."""

    root: Hashable
    parent: Dict[Hashable, Optional[Hashable]]
    distance: Dict[Hashable, int]
    rounds: int

    @property
    def depth(self) -> int:
        return max(self.distance.values())

    def children(self) -> Dict[Hashable, Tuple[Hashable, ...]]:
        """Invert parent pointers."""
        kids: Dict[Hashable, list] = {node: [] for node in self.parent}
        for node, par in self.parent.items():
            if par is not None:
                kids[par].append(node)
        return {node: tuple(sorted(c, key=str)) for node, c in kids.items()}


class BfsProgram(NodeProgram):
    """One BFS wave from ``root``; ties broken by smallest sender id."""

    def __init__(self, is_root: bool) -> None:
        self._is_root = is_root
        self._distance: Optional[int] = None
        self._parent: Optional[Hashable] = None
        self._parent_id: Optional[int] = None

    def on_start(self, ctx: Context):
        if self._is_root:
            self._distance = 0
            ctx.output = (None, 0)
            return ("bfs", 0)
        return None

    def on_round(self, ctx: Context, inbox: Dict[Hashable, Message]):
        if self._distance is not None:
            return None
        best: Optional[Tuple[int, int, Hashable]] = None
        for sender, message in inbox.items():
            payload = message.payload
            # A hostile channel can deliver anything; only ("bfs", int)
            # is a wave message.
            if not (
                isinstance(payload, tuple)
                and len(payload) == 2
                and payload[0] == "bfs"
                and isinstance(payload[1], int)
            ):
                continue
            dist = payload[1]
            candidate = (dist, sender)
            if best is None or candidate[0] < best[0] or (
                candidate[0] == best[0] and str(candidate[1]) < str(best[2])
            ):
                best = (candidate[0], candidate[0], candidate[1])
        if best is None:
            return None
        self._distance = best[0] + 1
        self._parent = best[2]
        ctx.output = (self._parent, self._distance)
        return ("bfs", self._distance)


def build_bfs_tree(
    network: Network, root: Hashable, model: Model = Model.V_CONGEST
) -> Tuple[BfsTree, SimulationResult]:
    """Run a BFS wave from ``root``; every node learns (parent, distance)."""
    result = simulate(
        network,
        lambda node: BfsProgram(is_root=(node == root)),
        model=model,
    )
    parent: Dict[Hashable, Optional[Hashable]] = {}
    distance: Dict[Hashable, int] = {}
    for node in network.nodes:
        output = result.outputs[node]
        if output is None:
            raise RuntimeError(f"BFS did not reach node {node!r} (disconnected?)")
        parent[node], distance[node] = output
    tree = BfsTree(
        root=root, parent=parent, distance=distance, rounds=result.metrics.rounds
    )
    return tree, result
