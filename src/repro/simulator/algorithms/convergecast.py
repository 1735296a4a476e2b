"""Tree convergecast (aggregate up) and broadcast (push down).

On a rooted tree of depth ``d`` this takes ``O(d)`` rounds. The paper's
Section 5.1 uses exactly this to let a leader decide whether another MWU
iteration is needed: the total MST cost is summed up a BFS tree, then the
continue/stop bit is pushed back down.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Hashable, Optional, Tuple

from repro.simulator.algorithms.bfs import BfsTree
from repro.simulator.message import Message
from repro.simulator.network import Network
from repro.simulator.node import Context, NodeProgram
from repro.simulator.runner import SimulationResult, simulate
from repro.simulator.transport import Model


class ConvergeSumProgram(NodeProgram):
    """Sum integer values toward the root of a known tree.

    Leaves speak first; an internal node sends its subtree sum to its
    parent once all children have reported. E-CONGEST only (messages are
    addressed to the parent). Output at the root is the global sum.
    """

    def __init__(
        self,
        value: int,
        parent: Optional[Hashable],
        children: Tuple[Hashable, ...],
    ) -> None:
        self._sum = value
        self._parent = parent
        self._waiting = set(children)
        self._sent = False

    def _maybe_send(self, ctx: Context):
        if self._waiting or self._sent:
            return None
        self._sent = True
        if self._parent is None:
            ctx.halt(self._sum)
            return None
        ctx.output = self._sum
        return {self._parent: ("sum", self._sum)}

    def on_start(self, ctx: Context):
        return self._maybe_send(ctx)

    def on_round(self, ctx: Context, inbox: Dict[Hashable, Message]):
        for sender, message in inbox.items():
            tag, value = message.payload
            if tag == "sum" and sender in self._waiting:
                self._waiting.discard(sender)
                self._sum += value
        return self._maybe_send(ctx)


def converge_sum(
    network: Network,
    tree: BfsTree,
    values: Dict[Hashable, int],
) -> Tuple[int, SimulationResult]:
    """Sum ``values`` toward ``tree.root``; returns (total, result)."""
    children = tree.children()
    result = simulate(
        network,
        lambda node: ConvergeSumProgram(
            value=values[node],
            parent=tree.parent[node],
            children=children.get(node, ()),
        ),
        model=Model.E_CONGEST,
    )
    total = result.outputs[tree.root]
    return total, result
