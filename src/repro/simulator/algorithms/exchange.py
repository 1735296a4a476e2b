"""One-round neighbor exchange.

Many steps of Appendix B are of the form "each node sends X to all its
neighbors" (class numbers, component ids, activity flags). This helper
runs exactly one such round and returns, for every node, the map of
neighbor → received payload.
"""

from __future__ import annotations

from typing import Any, Dict, Hashable, Tuple

from repro.simulator.message import Message
from repro.simulator.network import Network
from repro.simulator.node import Context, NodeProgram
from repro.simulator.runner import SimulationResult, simulate
from repro.simulator.transport import Model


class ExchangeOnceProgram(NodeProgram):
    """Broadcast a payload once; collect the neighbors' payloads."""

    def __init__(self, payload: Any) -> None:
        self._payload = payload

    def on_start(self, ctx: Context):
        return self._payload

    def on_round(self, ctx: Context, inbox: Dict[Hashable, Message]):
        ctx.halt({sender: message.payload for sender, message in inbox.items()})
        return None


def exchange_once(
    network: Network,
    payloads: Dict[Hashable, Any],
    model: Model = Model.V_CONGEST,
    tracer=None,
) -> Tuple[Dict[Hashable, Dict[Hashable, Any]], SimulationResult]:
    """Every node broadcasts ``payloads[node]``; returns what each heard.

    The returned outer dict maps node → {neighbor: payload}. Nodes with a
    ``None`` payload stay silent (their neighbors simply don't hear them).
    Under ``Model.CONGESTED_CLIQUE`` the broadcast reaches *every* other
    node, so the heard maps then span all senders, not just graph
    neighbors. ``tracer`` optionally records the round schedule
    (:class:`~repro.simulator.tracing.Tracer`).
    """
    factory = lambda node: ExchangeOnceProgram(payloads.get(node))  # noqa: E731
    if tracer is not None:
        factory = tracer.wrap(factory)
    result = simulate(network, factory, model=model)
    heard = {node: result.outputs[node] or {} for node in network.nodes}
    return heard, result
