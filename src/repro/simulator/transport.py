"""Transport/model layer of the simulation engine.

A :class:`Transport` owns the *delivery semantics* of one communication
model: which receivers a program may address, who a bare-payload
broadcast reaches, and the per-message bit budget. The round loop of
:mod:`repro.simulator.runner` is model-agnostic — it hands each program's
raw return value to the transport for validation and gets back traffic in
the engine's indexed form.

Three transports ship with the engine:

* :class:`VCongestTransport` — the paper's V-CONGEST model (Section 1.2):
  one ``O(log n)``-bit message per round, broadcast to all neighbors.
  Addressing individual neighbors is a model violation.
* :class:`ECongestTransport` — the classical CONGEST model: one
  ``O(log n)``-bit message per direction of each edge; per-neighbor
  dicts allowed, bare payloads are broadcast shorthand.
* :class:`CliqueTransport` — the Congested Clique model (Lotker et al.;
  used by e.g. Parter–Yogev's clique spanner algorithms): the
  communication graph is the *complete* graph regardless of the input
  topology, so a node may address **any** other node, and a bare payload
  reaches all ``n − 1`` of them. The input graph still defines the
  problem instance (``ctx.neighbors`` is unchanged).

The historical :class:`Model` enum remains the ergonomic front door —
``SyncRunner(network, model=Model.E_CONGEST)`` builds the matching
transport — while ``SyncRunner(network, transport=...)`` accepts custom
transports (the plug point for later lossy/batched/async models).
"""

from __future__ import annotations

import enum
from typing import (
    Any, Dict, FrozenSet, Hashable, List, Optional, Sequence, Tuple, Union,
)

from repro.errors import ModelViolationError
from repro.simulator.message import Message, payload_bits
from repro.simulator.network import Network
from repro.utils.mathutil import ceil_log2


class Model(enum.Enum):
    """The communication models the engine ships transports for.

    ``V_CONGEST`` and ``E_CONGEST`` are the paper's two models (Section
    1.2); ``CONGESTED_CLIQUE`` is the all-to-all model of the congested
    clique literature.
    """

    V_CONGEST = "v-congest"
    E_CONGEST = "e-congest"
    CONGESTED_CLIQUE = "congested-clique"


def default_message_budget(n: int, factor: int = 32, slack: int = 128) -> int:
    """Concrete ``O(log n)`` bit budget: ``factor·⌈log₂ n⌉ + slack``.

    The paper's messages carry constantly many ids/values of ``O(log n)``
    bits each (component ids are triples, proposals carry an id, a
    component id, and a random value), so a generous constant factor is
    the honest instantiation.
    """
    return factor * max(1, ceil_log2(max(2, n))) + slack


# Outbound traffic in the engine's indexed form. A broadcast is the
# single shared Message (delivered along the transport's fan-out table);
# addressed traffic is a list of (receiver index, Message) pairs in the
# program's addressing order (which pins fault-plan RNG consumption).
Broadcast = Tuple["_BroadcastTag", Message]
Addressed = List[Tuple[int, Message]]
Outbound = Union[None, Broadcast, Addressed]


class _BroadcastTag:
    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "<broadcast>"


#: Sentinel marking a validated broadcast: ``out[0] is BROADCAST``.
BROADCAST = _BroadcastTag()


class Transport:
    """Base transport: broadcast-only delivery along a fan-out table.

    Subclasses override :attr:`name`, the fan-out (who a broadcast
    reaches) and — for models that allow it — per-receiver addressing.
    """

    name = "abstract"
    #: Whether programs may return per-receiver dicts.
    allows_addressing = False

    def __init__(
        self, network: Network, bits_per_message: Optional[int] = None
    ) -> None:
        self.network = network
        self.bits_per_message = (
            bits_per_message
            if bits_per_message is not None
            else default_message_budget(network.n)
        )
        self._fanout: List[Tuple[int, ...]] = self._build_fanout(network)
        # O(1) addressing: per node, receiver label → receiver index for
        # every label the node may legally address.
        self._addressable: List[Dict[Hashable, int]] = (
            self._build_addressable(network) if self.allows_addressing else []
        )

    # -- model surface -------------------------------------------------

    def _build_fanout(self, network: Network) -> List[Tuple[int, ...]]:
        """Receiver indices of a broadcast, per sender index."""
        return network.neighbor_index_table()

    def _build_addressable(self, network: Network) -> List[Dict[Hashable, int]]:
        """Legally addressable receivers, per sender index."""
        index_of = network.index_map
        return [
            {u: index_of[u] for u in network.neighbors(v)}
            for v in network.nodes
        ]

    # -- engine surface ------------------------------------------------

    def fanout(self, sender_index: int) -> Tuple[int, ...]:
        """Broadcast receiver indices for the node at ``sender_index``."""
        return self._fanout[sender_index]

    def links(self, sender_index: int) -> FrozenSet[int]:
        """Every receiver index the node at ``sender_index`` can reach:
        its broadcast fan-out plus, where the model allows addressing,
        every addressable receiver. The fault and adversary plans bind
        to these links (``FaultPlan.bind``, ``AdversaryPlan.bind``)."""
        reach = set(self._fanout[sender_index])
        if self.allows_addressing:
            reach.update(self._addressable[sender_index].values())
        return frozenset(reach)

    def validate(self, node: Hashable, sender_index: int, raw: Any) -> Outbound:
        """Turn a program's return value into indexed outbound traffic,
        enforcing the model's congestion rules.

        Returns ``None`` for silence, ``(BROADCAST, message)`` for a
        validated broadcast, or a list of ``(receiver_index, message)``
        pairs for addressed traffic.
        """
        if raw is None:
            return None
        if isinstance(raw, dict):
            if not self.allows_addressing:
                raise ModelViolationError(
                    f"node {node!r} attempted per-neighbor messages in "
                    "V-CONGEST; only a single local broadcast is allowed"
                )
            addressable = self._addressable[sender_index]
            traffic: Addressed = []
            # Programs often address every receiver with the same payload
            # object; build (and size-check) one Message per object, not
            # one per receiver. Keyed by id(): the payloads stay alive in
            # `raw` for the duration of the loop.
            built: Dict[int, Message] = {}
            for receiver, payload in raw.items():
                receiver_index = addressable.get(receiver)
                if receiver_index is None:
                    self._reject_receiver(node, receiver)
                if payload is None:
                    continue
                message = built.get(id(payload))
                if message is None or message.payload is not payload:
                    message = Message(node, payload, payload_bits(payload))
                    if message.bits > self.bits_per_message:
                        self._reject_size(node, message)
                    built[id(payload)] = message
                traffic.append((receiver_index, message))
            return traffic
        # Bare payload: broadcast along the fan-out (legal in all models).
        # Budget enforcement applies even when nobody is listening (an
        # isolated node's oversized message is still a model violation).
        message = Message(node, raw, payload_bits(raw))
        if message.bits > self.bits_per_message:
            self._reject_size(node, message)
        if not self._fanout[sender_index]:
            return None  # nobody to reach (isolated node)
        return (BROADCAST, message)

    def _reject_receiver(self, node: Hashable, receiver: Hashable) -> None:
        raise ModelViolationError(
            f"node {node!r} addressed non-neighbor {receiver!r}"
        )

    def _reject_size(self, node: Hashable, message: Message) -> None:
        raise ModelViolationError(
            f"node {node!r} sent a {message.bits}-bit message; budget is "
            f"{self.bits_per_message} bits (O(log n))"
        )


class VCongestTransport(Transport):
    """V-CONGEST: broadcast-only, congestion on vertices."""

    name = "v-congest"
    allows_addressing = False


class ECongestTransport(Transport):
    """E-CONGEST (classical CONGEST): per-neighbor messages allowed."""

    name = "e-congest"
    allows_addressing = True


class CliqueTransport(Transport):
    """Congested Clique: all-to-all links of ``O(log n)`` bits per round.

    The fan-out of a broadcast is every *other* node, and any node may be
    addressed directly — the communication graph is ``K_n`` even when the
    input topology is sparse. Addressing yourself is rejected (a message
    to self is local state, not communication).
    """

    name = "congested-clique"
    allows_addressing = True

    def _build_fanout(self, network: Network) -> List[Tuple[int, ...]]:
        everyone = tuple(range(network.n))
        return [
            everyone[:sender] + everyone[sender + 1 :]
            for sender in range(network.n)
        ]

    def _build_addressable(self, network: Network) -> List[Dict[Hashable, int]]:
        index_of = network.index_map
        return [
            {u: index_of[u] for u in network.nodes if u != v}
            for v in network.nodes
        ]

    def _reject_receiver(self, node: Hashable, receiver: Hashable) -> None:
        if receiver == node:
            raise ModelViolationError(
                f"node {node!r} addressed itself in the congested clique"
            )
        raise ModelViolationError(
            f"node {node!r} addressed unknown node {receiver!r}"
        )


_TRANSPORTS = {
    Model.V_CONGEST: VCongestTransport,
    Model.E_CONGEST: ECongestTransport,
    Model.CONGESTED_CLIQUE: CliqueTransport,
}


def build_transport(
    model: Model, network: Network, bits_per_message: Optional[int] = None
) -> Transport:
    """The stock transport implementing ``model`` on ``network``."""
    try:
        transport_cls = _TRANSPORTS[model]
    except KeyError:  # pragma: no cover - future enum members
        raise ModelViolationError(f"no transport registered for {model!r}")
    return transport_cls(network, bits_per_message)
