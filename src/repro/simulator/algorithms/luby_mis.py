"""Luby's distributed maximal independent set ([3], [39]).

The matching stage of Appendix B.3 "simulates Luby's well-known
distributed maximal independent set algorithm" on the line graph of the
bridging graph. This module provides the plain MIS primitive itself —
part of the substrate the paper builds on, and independently useful.

Protocol (per phase, O(log n) phases w.h.p.): every active node draws a
random Θ(log n)-bit value and broadcasts it; a node whose value beats all
active neighbors joins the MIS; MIS nodes and their neighbors deactivate.
"""

from __future__ import annotations

from typing import Any, Dict, Hashable, Optional, Set, Tuple

from repro.simulator.message import Message
from repro.simulator.network import Network
from repro.simulator.node import Context, NodeProgram
from repro.simulator.runner import SimulationResult, simulate
from repro.simulator.transport import Model
from repro.utils.rng import RngLike

_IN_MIS = "in-mis"
_OUT = "out"


def _tag(payload: Any) -> Optional[str]:
    """``"mis"`` or ``"val"`` for the payloads the program sends, else
    ``None``: a hostile channel can deliver anything."""
    if payload == ("mis",):
        return "mis"
    if (
        isinstance(payload, tuple)
        and len(payload) == 3
        and payload[0] == "val"
        and isinstance(payload[1], int)
        and isinstance(payload[2], int)
    ):
        return "val"
    return None


class LubyMisProgram(NodeProgram):
    """One node's view of Luby's algorithm.

    Round structure (2 rounds per phase):
      round A: active nodes broadcast ("val", draw);
      round B: winners broadcast ("mis",); receivers of "mis" deactivate.
    """

    def __init__(self) -> None:
        self._state = "active"
        self._draw = None
        self._phase_round = "A"

    def _value_bits(self, ctx: Context) -> int:
        return 4 * max(8, ctx.n.bit_length())

    def on_start(self, ctx: Context):
        self._draw = ctx.rng.getrandbits(self._value_bits(ctx))
        return ("val", self._draw, ctx.node_id)

    def on_round(self, ctx: Context, inbox: Dict[Hashable, Message]):
        if self._state != "active":
            return None
        if self._phase_round == "A":
            # Evaluate the values heard; "mis" messages also arrive here
            # when neighbors won in the previous phase.
            best_neighbor = None
            for message in inbox.values():
                tag = _tag(message.payload)
                if tag == "mis":
                    self._state = _OUT
                    ctx.halt(_OUT)
                    return None
                if tag == "val":
                    _, draw, node_id = message.payload
                    key = (draw, node_id)
                    if best_neighbor is None or key > best_neighbor:
                        best_neighbor = key
            my_key = (self._draw, ctx.node_id)
            if best_neighbor is None or my_key > best_neighbor:
                self._state = _IN_MIS
                ctx.output = _IN_MIS
                self._phase_round = "B"
                return ("mis",)
            self._phase_round = "B"
            return None
        # Round B: losers re-draw unless a winner silenced them.
        for message in inbox.values():
            if _tag(message.payload) == "mis":
                self._state = _OUT
                ctx.halt(_OUT)
                return None
        if self._state == _IN_MIS:
            ctx.halt(_IN_MIS)
            return None
        self._draw = ctx.rng.getrandbits(self._value_bits(ctx))
        self._phase_round = "A"
        return ("val", self._draw, ctx.node_id)


def luby_mis(
    network: Network, model: Model = Model.V_CONGEST, rng: RngLike = None
) -> Tuple[Set[Hashable], SimulationResult]:
    """Compute a maximal independent set; returns (MIS, result).

    ``rng`` seeds the per-node randomness (the protocol is randomized;
    pass a seed for reproducible runs).
    """
    result = simulate(
        network, lambda node: LubyMisProgram(), model=model, rng=rng
    )
    mis = {v for v in network.nodes if result.outputs[v] == _IN_MIS}
    return mis, result


def is_maximal_independent_set(graph, candidate: Set[Hashable]) -> bool:
    """Exact MIS validity check (independence + maximality)."""
    for u in candidate:
        for v in graph.neighbors(u):
            if v in candidate:
                return False
    for v in graph.nodes():
        if v in candidate:
            continue
        if not any(u in candidate for u in graph.neighbors(v)):
            return False
    return True
