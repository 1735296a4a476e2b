"""Extremum flooding restricted to a subgraph; component identification.

This is the simulator twin of the paper's Theorem B.2 (the
Thurimella/Kutten–Peleg component-identification subroutine): given a
subgraph ``G_sub`` of the network (each node knows which of its incident
edges are in ``G_sub``) and a per-node value, every node learns the
extremum value within its ``G_sub``-connected component.

Our implementation floods along ``G_sub`` edges only, converging in
``O(D')`` rounds where ``D'`` is the largest component diameter — the
first branch of Theorem B.2's ``O(min{D', D + √n log* n})``. The second
(Kutten–Peleg) branch is reported analytically via
:class:`repro.simulator.metrics.AnalyticRoundCost`.

Identifying components (each node learns the smallest id in its
component, used as the component id — Appendix B.1) is extremum flooding
on ``(id,)`` values.

V-CONGEST subtlety: a node *broadcasts* to all network neighbors (it has
no choice in V-CONGEST), and receivers discard messages from senders that
are not ``G_sub``-neighbors. This respects the model while logically
restricting information flow to the subgraph.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Hashable, Iterable, Optional, Set, Tuple

from repro.simulator.message import Message
from repro.simulator.network import Network
from repro.simulator.node import Context, NodeProgram
from repro.simulator.runner import SimulationResult, simulate
from repro.simulator.transport import Model


class SubgraphExtremumProgram(NodeProgram):
    """Flood min/max of per-node values along subgraph edges only.

    ``allowed`` is the set of this node's neighbors that are also its
    ``G_sub``-neighbors; ``member`` is whether the node itself belongs to
    the subgraph (non-members stay silent and output ``None``).
    """

    def __init__(
        self,
        value,
        allowed: Set[Hashable],
        member: bool,
        minimize: bool = True,
    ) -> None:
        self._best = value
        self._allowed = allowed
        self._member = member
        self._minimize = minimize

    def _better(self, candidate) -> bool:
        if candidate is None:
            return False
        if self._best is None:
            return True
        return candidate < self._best if self._minimize else candidate > self._best

    def on_start(self, ctx: Context):
        if not self._member:
            ctx.halt(None)
            return None
        ctx.output = self._best
        return self._best

    def on_round(self, ctx: Context, inbox: Dict[Hashable, Message]):
        improved = False
        for sender, message in inbox.items():
            if sender not in self._allowed:
                continue
            if self._better(message.payload):
                self._best = message.payload
                improved = True
        ctx.output = self._best
        return self._best if improved else None


def subgraph_extremum(
    network: Network,
    members: Iterable[Hashable],
    subgraph_adjacency: Dict[Hashable, Set[Hashable]],
    values: Dict[Hashable, Any],
    minimize: bool = True,
    model: Model = Model.V_CONGEST,
) -> SimulationResult:
    """Each subgraph member learns the extremum of ``values`` over its
    subgraph component; non-members output ``None``."""
    member_set = set(members)

    def factory(node: Hashable) -> NodeProgram:
        return SubgraphExtremumProgram(
            value=values.get(node),
            allowed=set(subgraph_adjacency.get(node, ())),
            member=node in member_set,
            minimize=minimize,
        )

    return simulate(network, factory, model=model)


def identify_components(
    network: Network,
    members: Iterable[Hashable],
    subgraph_adjacency: Dict[Hashable, Set[Hashable]],
    model: Model = Model.V_CONGEST,
) -> Tuple[Dict[Hashable, Optional[int]], SimulationResult]:
    """Component identification on a subgraph (Theorem B.2 contract).

    Every member node learns its component id — the smallest random node
    id within its component; non-members map to ``None``. Returns the
    component-id map and the simulation result (for round accounting).
    """
    member_set = set(members)
    values = {
        node: (network.node_id(node) if node in member_set else None)
        for node in network.nodes
    }
    result = subgraph_extremum(
        network, member_set, subgraph_adjacency, values, minimize=True, model=model
    )
    component_ids: Dict[Hashable, Optional[int]] = {}
    for node in network.nodes:
        component_ids[node] = result.outputs[node] if node in member_set else None
    return component_ids, result
