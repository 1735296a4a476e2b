"""Congested-Clique primitives on :class:`CliqueTransport`.

The Congested Clique model (Lotker–Pavlov–Patt-Shamir–Peleg; the setting
of e.g. Parter–Yogev's clique spanner algorithms) keeps the input graph
as the *problem instance* but lets every pair of nodes exchange one
``O(log n)``-bit message per round — the communication graph is ``K_n``.
Problems that need ``Ω(D)`` rounds under CONGEST collapse to ``O(1)``
rounds here; these primitives make that collapse measurable next to the
CONGEST implementations of the sibling modules:

* :func:`clique_extremum` — global min/max in **one** round (every node
  broadcasts its value to everyone; compare the ``Θ(D)`` rounds of
  :func:`~repro.simulator.algorithms.flooding.flood_extremum`);
* :func:`clique_exchange` — one all-to-all round, each node learns every
  other node's payload (the building block of Lenzen-style routing);
* :func:`clique_degree_census` — every node learns the full degree
  sequence of the *input* graph in one round, e.g. the first step of a
  clique spanner/connectivity sketch.

All of them run on the ordinary engine via
``Model.CONGESTED_CLIQUE``; round/message/bit accounting is identical to
the CONGEST runs, so cross-model comparisons are apples to apples.
"""

from __future__ import annotations

from typing import Any, Dict, Hashable, Tuple

from repro.simulator.message import Message
from repro.simulator.network import Network
from repro.simulator.node import Context, NodeProgram
from repro.simulator.runner import SimulationResult, simulate
from repro.simulator.transport import Model


class CliqueExtremumProgram(NodeProgram):
    """Global extremum in one all-to-all round."""

    def __init__(self, value, minimize: bool = True) -> None:
        self._value = value
        self._minimize = minimize

    def on_start(self, ctx: Context):
        return self._value

    def on_round(self, ctx: Context, inbox: Dict[Hashable, Message]):
        best = self._value
        pick = min if self._minimize else max
        for message in inbox.values():
            if message.payload is None:
                continue
            best = (
                message.payload
                if best is None
                else pick(best, message.payload)
            )
        ctx.halt(best)
        return None


class CliqueExchangeProgram(NodeProgram):
    """Broadcast a payload to everyone; collect everyone's payloads."""

    def __init__(self, payload: Any) -> None:
        self._payload = payload

    def on_start(self, ctx: Context):
        return self._payload

    def on_round(self, ctx: Context, inbox: Dict[Hashable, Message]):
        ctx.halt({sender: message.payload for sender, message in inbox.items()})
        return None


def clique_extremum(
    network: Network,
    values: Dict[Hashable, Any],
    minimize: bool = True,
) -> SimulationResult:
    """Every node learns min (or max) over ``values`` in one clique round."""
    return simulate(
        network,
        lambda node: CliqueExtremumProgram(values[node], minimize=minimize),
        model=Model.CONGESTED_CLIQUE,
    )


def clique_exchange(
    network: Network,
    payloads: Dict[Hashable, Any],
) -> Tuple[Dict[Hashable, Dict[Hashable, Any]], SimulationResult]:
    """One all-to-all round; returns what each node heard from whom.

    Nodes with a ``None`` payload stay silent. The outer dict maps
    node → {sender: payload} over all ``n − 1`` potential senders.
    """
    result = simulate(
        network,
        lambda node: CliqueExchangeProgram(payloads.get(node)),
        model=Model.CONGESTED_CLIQUE,
    )
    heard = {node: result.outputs[node] or {} for node in network.nodes}
    return heard, result


def clique_degree_census(
    network: Network,
) -> Tuple[Dict[Hashable, Dict[Hashable, int]], SimulationResult]:
    """Every node learns every node's *input-graph* degree in one round.

    The payload is ``(node_id, degree)`` — the local knowledge a clique
    algorithm starts from when sketching the input topology.
    """
    payloads = {
        v: (network.node_id(v), network.degree(v)) for v in network.nodes
    }
    heard, result = clique_exchange(network, payloads)
    census: Dict[Hashable, Dict[Hashable, int]] = {}
    for v in network.nodes:
        degrees = {v: network.degree(v)}  # own degree is local knowledge
        for sender, payload in heard[v].items():
            degrees[sender] = payload[1]
        census[v] = degrees
    return census, result
