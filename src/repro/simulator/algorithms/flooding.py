"""Extremum flooding and leader election.

The most basic CONGEST primitive: every node starts with a value, and in
each round forwards the best value seen so far; after ``D`` rounds every
node knows the global extremum. Leader election is extremum flooding on
node ids (the paper's Section 5.1 elects "the node with the largest id"
to centralize the iteration-continuation decision).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Hashable, Optional, Tuple

from repro.simulator.message import Message
from repro.simulator.network import Network
from repro.simulator.node import Context, NodeProgram
from repro.simulator.runner import SimulationResult, simulate
from repro.simulator.transport import Model


class ExtremumFloodProgram(NodeProgram):
    """Flood the minimum (or maximum) of per-node comparable values.

    Values must be payload-legal (ints or small tuples). A node re-broadcasts
    only on improvement, so the protocol quiesces after at most ``D + 1``
    rounds with total message count ``O(D·m)`` worst case.
    """

    def __init__(self, value, minimize: bool = True) -> None:
        self._best = value
        self._minimize = minimize

    def _better(self, candidate) -> bool:
        if self._best is None:
            return candidate is not None
        if candidate is None:
            return False
        return candidate < self._best if self._minimize else candidate > self._best

    def on_start(self, ctx: Context):
        ctx.output = self._best
        return self._best

    def on_round(self, ctx: Context, inbox: Dict[Hashable, Message]):
        # Hot loop: this scan runs once per delivery across the whole
        # network, so `_better` is inlined over locals (same comparison
        # sequence, no per-message method call).
        best = self._best
        minimize = self._minimize
        improved = False
        for message in inbox.values():
            candidate = message.payload
            if best is None:
                if candidate is not None:
                    best = candidate
                    improved = True
            elif candidate is not None and (
                candidate < best if minimize else candidate > best
            ):
                best = candidate
                improved = True
        self._best = best
        ctx.output = best
        return best if improved else None


def flood_extremum(
    network: Network,
    values: Dict[Hashable, Any],
    minimize: bool = True,
    model: Model = Model.V_CONGEST,
) -> SimulationResult:
    """Every node learns min (or max) over ``values`` (one per node)."""
    return simulate(
        network,
        lambda node: ExtremumFloodProgram(values[node], minimize=minimize),
        model=model,
    )


def elect_leader(
    network: Network, model: Model = Model.V_CONGEST
) -> Tuple[Hashable, SimulationResult]:
    """Elect the node with the largest random id; returns (leader, result).

    After the run, every node's output is the winning (id, node-marker)
    pair, so all nodes agree on the leader.
    """
    values = {node: network.node_id(node) for node in network.nodes}
    result = flood_extremum(network, values, minimize=False, model=model)
    winning_id = result.outputs[network.nodes[0]]
    leader = next(
        node for node in network.nodes if network.node_id(node) == winning_id
    )
    return leader, result
