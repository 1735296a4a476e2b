"""Multi-key subgraph flooding — parallel per-class floods in one run.

In Appendix B every real node simulates ``Θ(log n)`` virtual nodes, and
one *meta-round* (Θ(log n) real rounds) lets each of them speak once. A
real node active in several classes therefore floods several per-class
values "in parallel". This program realizes that: each node holds a value
per *key* (key = class id), each key has its own allowed-edge set, and a
round's broadcast carries the vector of changed ``(key, value)`` entries.

Message budget: a node carries at most ``3L = Θ(log n)`` keys, so one
vector message is ``Θ(log n)`` messages of ``Θ(log n)`` bits — exactly
one meta-round of traffic. Callers scale ``bits_per_message``
accordingly and account ``real rounds = measured rounds × 3L``.
"""

from __future__ import annotations

from typing import Any, Dict, Hashable, Optional, Set, Tuple

from repro.simulator.message import Message
from repro.simulator.network import Network
from repro.simulator.node import Context, NodeProgram
from repro.simulator.runner import SimulationResult, SyncRunner
from repro.simulator.transport import Model
from repro.utils.rng import RngLike


class MultiKeyFloodProgram(NodeProgram):
    """Flood, for every key independently, the extremum along allowed edges."""

    def __init__(
        self,
        values: Dict[int, Any],
        allowed: Dict[int, Set[Hashable]],
        minimize: bool = True,
    ) -> None:
        self._values = dict(values)
        self._allowed = allowed
        self._minimize = minimize

    def _better(self, key: int, candidate) -> bool:
        if candidate is None:
            return False
        current = self._values.get(key)
        if current is None:
            return key in self._values
        return candidate < current if self._minimize else candidate > current

    def on_start(self, ctx: Context):
        ctx.output = dict(self._values)
        items = tuple(
            (key, value) for key, value in self._values.items() if value is not None
        )
        return items if items else None

    def on_round(self, ctx: Context, inbox: Dict[Hashable, Message]):
        changed = {}
        for sender, message in inbox.items():
            for key, value in message.payload:
                if sender not in self._allowed.get(key, ()):
                    continue
                if key in self._values and self._better(key, value):
                    self._values[key] = value
                    changed[key] = value
        ctx.output = dict(self._values)
        if not changed:
            return None
        return tuple(changed.items())


def multikey_flood(
    network: Network,
    values: Dict[Hashable, Dict[int, Any]],
    allowed: Dict[Hashable, Dict[int, Set[Hashable]]],
    minimize: bool = True,
    keys_bound: int = 1,
    model: Model = Model.V_CONGEST,
    tracer=None,
    max_rounds: int = 100000,
) -> SimulationResult:
    """Run the multi-key flood; returns per-node final value maps.

    ``values[v]`` maps each of ``v``'s keys to its initial value (``None``
    allowed — the node then only listens on that key); ``allowed[v][key]``
    is the set of neighbors whose messages count for that key.
    ``keys_bound`` is the maximum number of keys any node holds — it
    scales the message budget (one meta-round of virtual messages).
    Because the per-key ``allowed`` sets gate which senders count, the
    final value maps are identical under ``Model.CONGESTED_CLIQUE`` —
    only the delivery accounting changes. ``tracer`` optionally records
    the round schedule.
    """
    from repro.simulator.transport import default_message_budget

    budget = (keys_bound + 2) * default_message_budget(network.n)
    runner = SyncRunner(network, model=model, bits_per_message=budget)
    factory = lambda node: MultiKeyFloodProgram(  # noqa: E731
        values=values.get(node, {}),
        allowed=allowed.get(node, {}),
        minimize=minimize,
    )
    if tracer is not None:
        factory = tracer.wrap(factory)
    return runner.run(factory, max_rounds=max_rounds)
