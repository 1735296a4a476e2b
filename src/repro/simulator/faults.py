"""Fault injection for the round simulator.

The paper's model is synchronous and reliable; its w.h.p. guarantees say
nothing about crashes or loss. The test suite nevertheless needs to
*exercise failure paths*: that the Appendix E tester flags packings
broken by silent nodes, that quiescence-based protocols stall (rather
than return wrong answers silently) when the network misbehaves, and
that retransmitting primitives tolerate loss. This module provides the
machinery:

* :class:`EdgeCoins` — the seeded per-delivery coin, shared with the
  corruption adversary of :mod:`repro.simulator.adversary`.
* :class:`FaultPlan` — a declarative schedule of crash rounds, an i.i.d.
  message drop probability, and a deterministic per-edge drop schedule,
  consumed by :class:`~repro.simulator.runner.SyncRunner`, which binds
  it to the run's links (:meth:`FaultPlan.bind`).
* :class:`RetransmittingFloodProgram` — a loss-tolerant extremum flood
  (rebroadcasts every round for a fixed horizon), the positive control
  showing the fault plumbing composes with real protocols.

A crashed node stops executing and transmitting from its crash round
onward (crash-stop; no recovery). Random drops are decided per delivery
by a **pure function of (plan seed, directed edge, round)** — sha256 of
the three, thresholded against ``drop_probability`` — so the decision
for a given delivery is the same no matter which loop evaluates it or
in which order deliveries are iterated, and a fault sweep's losses
depend only on the seed. Scheduled drops name exact (sender, receiver,
round) deliveries — no RNG involved at all. The plan's seed follows the
shared ``ensure_rng`` path end to end: give the plan a seed directly,
or leave it unset and :class:`~repro.simulator.runner.SyncRunner`
derives one from the run seed at construction, so one seed pins the
whole faulty execution, whether it runs through
:meth:`repro.api.GraphSession.simulate` or a bare runner.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import (
    Any, Dict, FrozenSet, Hashable, Iterable, List, Optional, Tuple,
)

from repro.errors import GraphValidationError
from repro.simulator.message import Message
from repro.simulator.network import Network
from repro.simulator.node import Context, NodeProgram
from repro.simulator.transport import Transport, VCongestTransport
from repro.utils.rng import RngLike, ensure_rng, fresh_seed

# A directed delivery: (sender, receiver).
DirectedEdge = Tuple[Hashable, Hashable]

#: Bound on the per-edge digest-prefix cache. A million-delivery sweep
#: over a large clique visits O(n²) directed edges; retaining state per
#: edge forever would grow the plan without limit, so the cache is
#: cleared wholesale when full (same policy as the payload-size memo in
#: :mod:`repro.simulator.message`) — correctness is unaffected because
#: the prefix is a pure function of (seed, edge).
_EDGE_PREFIX_CACHE_MAX = 1 << 16


class EdgeCoins:
    """The seeded per-delivery coin both hostile channels decide by.

    Every decision of :class:`FaultPlan` and
    :class:`~repro.simulator.adversary.AdversaryPlan` derives from
    ``sha256(f"{seed}|{tag}{sender!r}->{receiver!r}|{round}")``: a pure
    function of the bound seed, the directed edge and the round (``repr``
    of the endpoints is stable across processes and hash seeds). No
    shared stream is consumed, so the round loop, the reference loop and
    the sweeps may evaluate deliveries in any order and agree on every
    decision. ``_TAG`` keeps the two plans' coins apart.

    Subclasses carry an ``rng`` field: an int is used verbatim, a
    generator contributes one :func:`fresh_seed` draw, and ``None``
    binds an OS-entropy seed that
    :class:`~repro.simulator.runner.SyncRunner` replaces with a draw
    from the run seed (via :meth:`reseed`) before any delivery is
    decided.
    """

    _TAG = ""

    def _bind_seed(self, rng: RngLike) -> None:
        """Fix the integer seed every digest derives from."""
        if isinstance(rng, bool):
            raise GraphValidationError("rng must be None, int, or Random")
        self._seed = (
            rng if isinstance(rng, int) else fresh_seed(ensure_rng(rng))
        )
        # Per-edge digest-prefix *bytes* (not hasher objects — a retained
        # hashlib handle per edge is both heavier and unpicklable),
        # derived lazily from the bound seed and bounded by
        # :data:`_EDGE_PREFIX_CACHE_MAX`.
        self._edge_prefixes: Dict[DirectedEdge, bytes] = {}

    def reseed(self, rng: RngLike) -> "EdgeCoins":
        """Rebind the plan's randomness (returns self).

        The runner calls this with a draw from the run seed when the
        plan was built without one. ``rng`` stays ``None``, so every
        runner construction re-derives: reusing one plan object across
        two identically-seeded runners yields identical runs.
        """
        self._bind_seed(rng)
        return self

    def _prefix(self, sender: Hashable, receiver: Hashable) -> bytes:
        """The edge's digest prefix, cached (cache-miss path)."""
        prefix = f"{self._seed}|{self._TAG}{sender!r}->{receiver!r}|".encode(
            "utf-8"
        )
        if len(self._edge_prefixes) >= _EDGE_PREFIX_CACHE_MAX:
            self._edge_prefixes.clear()
        self._edge_prefixes[(sender, receiver)] = prefix
        return prefix

    def _digest(
        self, sender: Hashable, receiver: Hashable, round_no: int
    ) -> bytes:
        """The delivery's sha256 digest."""
        prefix = self._edge_prefixes.get((sender, receiver)) or self._prefix(
            sender, receiver
        )
        return hashlib.sha256(
            prefix + str(round_no).encode("ascii")
        ).digest()

    def _coin(
        self, sender: Hashable, receiver: Hashable, round_no: int
    ) -> float:
        """The delivery's uniform draw in [0, 1): the digest's first 64
        bits. Computed inline, not through :meth:`_digest` — this is the
        per-delivery hot path of every hostile round."""
        prefix = self._edge_prefixes.get((sender, receiver)) or self._prefix(
            sender, receiver
        )
        digest = hashlib.sha256(
            prefix + str(round_no).encode("ascii")
        ).digest()
        return int.from_bytes(digest[:8], "big") / 2.0**64

    @staticmethod
    def _unlinked(
        network: Network, transport: Transport, pairs: Iterable[DirectedEdge]
    ) -> List[str]:
        """Sorted reprs of the ``pairs`` (of ``network`` nodes) that are
        not links of ``transport`` (:meth:`Transport.links`)."""
        index_of = network.index_map
        reach: Dict[int, FrozenSet[int]] = {}
        bad = []
        for pair in pairs:
            sender = index_of[pair[0]]
            if sender not in reach:
                reach[sender] = transport.links(sender)
            if index_of[pair[1]] not in reach[sender]:
                bad.append(repr(pair))
        return sorted(bad)


@dataclass
class FaultPlan(EdgeCoins):
    """A reproducible schedule of crash-stop and message-loss faults.

    ``crash_rounds`` maps node → first round at which the node is dead
    (``0`` kills it before its ``on_start`` traffic is delivered).
    ``drop_probability`` applies independently to every (message,
    receiver) pair of non-crashed senders; each decision is the
    :class:`EdgeCoins` coin of the delivery (see :meth:`drops`), so the
    loss pattern of a seeded plan is fixed before the run starts and
    independent of delivery iteration order.
    ``drop_schedule`` maps a *directed* ``(sender, receiver)`` pair to
    the set of rounds in which that delivery is deterministically
    destroyed — the adversarial counterpart to the i.i.d. noise
    (scheduled drops involve no randomness, so adding them does not
    perturb the random drops of a seeded run).
    """

    drop_probability: float = 0.0
    crash_rounds: Dict[Hashable, int] = field(default_factory=dict)
    drop_schedule: Dict[DirectedEdge, FrozenSet[int]] = field(
        default_factory=dict
    )
    rng: RngLike = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.drop_probability <= 1.0:
            raise GraphValidationError(
                "drop_probability must lie in [0, 1]"
            )
        for node, crash_round in self.crash_rounds.items():
            if crash_round < 0:
                raise GraphValidationError(
                    f"crash round for {node!r} must be >= 0"
                )
        normalized: Dict[DirectedEdge, FrozenSet[int]] = {}
        for edge, rounds in self.drop_schedule.items():
            if len(edge) != 2:
                raise GraphValidationError(
                    f"drop_schedule keys must be (sender, receiver) pairs; "
                    f"got {edge!r}"
                )
            round_set = frozenset(rounds)
            if any(round_no < 0 for round_no in round_set):
                raise GraphValidationError(
                    f"drop rounds for {edge!r} must be >= 0"
                )
            normalized[edge] = round_set
        self.drop_schedule = normalized
        self._bind_seed(self.rng)

    def bind(
        self, network: Network, transport: Optional[Transport] = None
    ) -> "FaultPlan":
        """Check the plan against the links of a run (returns self).

        Every crash or schedule node must exist; then every scheduled
        pair must be a link of ``transport`` (default: the edges of
        ``network``, as in V- and E-CONGEST). Either mistake would make
        the faulty run silently fault-free, so it raises
        :class:`~repro.errors.GraphValidationError`.
        :class:`~repro.simulator.runner.SyncRunner` calls this at
        construction with its own transport.
        """
        known = network.index_map
        unknown = {v for v in self.crash_rounds if v not in known}
        unknown.update(
            v for edge in self.drop_schedule for v in edge if v not in known
        )
        if unknown:
            raise GraphValidationError(
                "fault plan names nodes not in the network: "
                f"{sorted(map(repr, unknown))}"
            )
        bad = self._unlinked(
            network, transport or VCongestTransport(network), self.drop_schedule
        )
        if bad:
            raise GraphValidationError(
                f"drop schedule names non-edges of the network: {bad}"
            )
        return self

    def is_crashed(self, node: Hashable, round_no: int) -> bool:
        """Whether ``node`` is dead during ``round_no``."""
        crash_round = self.crash_rounds.get(node)
        return crash_round is not None and round_no >= crash_round

    def drops(
        self, sender: Hashable, receiver: Hashable, round_no: int
    ) -> bool:
        """Whether the ``sender → receiver`` delivery of ``round_no`` is
        lost — scheduled drops first (deterministic), then the i.i.d.
        coin, thresholded against ``drop_probability``.
        """
        if self.drop_schedule:
            scheduled = self.drop_schedule.get((sender, receiver))
            if scheduled is not None and round_no in scheduled:
                return True
        if self.drop_probability <= 0.0:
            return False
        return self._coin(sender, receiver, round_no) < self.drop_probability

    def describe(self) -> Dict[str, Any]:
        """JSON-clean summary of the plan's configuration (the bound
        seed included, so a result envelope pins the exact loss
        pattern). ``drop_schedule`` serializes as a sorted list of
        ``[sender, receiver, [rounds…]]`` rows — JSON objects cannot key
        on tuples."""
        return {
            "drop_probability": self.drop_probability,
            "crash_rounds": {
                repr(node): round_no
                for node, round_no in sorted(
                    self.crash_rounds.items(), key=repr
                )
            },
            "drop_schedule": sorted(
                (
                    [edge[0], edge[1], sorted(rounds)]
                    for edge, rounds in self.drop_schedule.items()
                ),
                key=repr,
            ),
            "seed": self._seed,
        }


class RetransmittingFloodProgram(NodeProgram):
    """Extremum flood that rebroadcasts every round for ``horizon`` rounds.

    Unlike the quiescence-driven
    :class:`~repro.simulator.algorithms.flooding.ExtremumFloodProgram`,
    this program keeps transmitting its current best whether or not it
    improved, so any individual message loss is repaired by the next
    round's retransmission. With drop probability ``p`` and horizon
    ``h ≥ D / (1 − p)`` plus slack, the flood completes w.h.p.

    The coded floods of :mod:`repro.apps.coded` are this flood with a
    different wire format (:meth:`_payload`) or commit rule
    (:meth:`_ingest`).
    """

    def __init__(self, value: Any, horizon: int, minimize: bool = True) -> None:
        if horizon < 1:
            raise GraphValidationError("horizon must be >= 1")
        self._best = value
        self._horizon = horizon
        self._minimize = minimize

    def _better(self, candidate: Any) -> bool:
        if self._best is None:
            return candidate is not None
        if candidate is None:
            return False
        if self._minimize:
            return candidate < self._best
        return candidate > self._best

    def _payload(self) -> Any:
        """What the node broadcasts each round: its current best."""
        return self._best

    def _ingest(self, payload: Any) -> None:
        """Take one received payload into account."""
        if self._better(payload):
            self._best = payload

    def on_start(self, ctx: Context):
        ctx.output = self._best
        return self._payload()

    def on_round(self, ctx: Context, inbox: Dict[Hashable, Message]):
        for message in inbox.values():
            self._ingest(message.payload)
        ctx.output = self._best
        if ctx.round >= self._horizon:
            ctx.halt(self._best)
            return None
        return self._payload()
