"""Fault injection for the round simulator.

The paper's model is synchronous and reliable; its w.h.p. guarantees say
nothing about crashes or loss. The test suite nevertheless needs to
*exercise failure paths*: that the Appendix E tester flags packings
broken by silent nodes, that quiescence-based protocols stall (rather
than return wrong answers silently) when the network misbehaves, and
that retransmitting primitives tolerate loss. This module provides the
machinery:

* :class:`FaultPlan` — a declarative schedule of crash rounds, an i.i.d.
  message drop probability, and a deterministic per-edge drop schedule,
  consumed by :class:`~repro.simulator.runner.SyncRunner`.
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
from typing import Any, Dict, FrozenSet, Hashable, Tuple

from repro.errors import GraphValidationError
from repro.simulator.message import Message
from repro.simulator.node import Context, NodeProgram
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


@dataclass
class FaultPlan:
    """A reproducible schedule of crash-stop and message-loss faults.

    ``crash_rounds`` maps node → first round at which the node is dead
    (``0`` kills it before its ``on_start`` traffic is delivered).
    ``drop_probability`` applies independently to every (message,
    receiver) pair of non-crashed senders; each decision is a pure
    function of the plan seed, the directed edge, and the round (see
    :meth:`drops`), so the loss pattern of a seeded plan is fixed before
    the run starts and independent of delivery iteration order.
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

    def _bind_seed(self, rng: RngLike) -> None:
        """Fix the integer seed the per-edge drop streams derive from.

        An explicit int seed is used verbatim (so the same int always
        reproduces the same loss pattern); a generator contributes one
        :func:`fresh_seed` draw; ``None`` falls back to OS entropy (the
        runner replaces it with a run-seed derivation via
        :meth:`reseed` before any delivery is decided).
        """
        if isinstance(rng, bool):
            raise GraphValidationError("rng must be None, int, or Random")
        if isinstance(rng, int):
            self._drop_seed = rng
        else:
            self._drop_seed = fresh_seed(ensure_rng(rng))
        # Per-edge digest-prefix *bytes* (not hasher objects — a retained
        # hashlib handle per edge is both heavier and unpicklable),
        # derived lazily from the bound seed and bounded by
        # :data:`_EDGE_PREFIX_CACHE_MAX`.
        self._edge_prefixes: Dict[DirectedEdge, bytes] = {}

    def reseed(self, rng: RngLike) -> "FaultPlan":
        """Rebind the plan's drop randomness (returns self).

        This is the hook :class:`~repro.simulator.runner.SyncRunner`
        uses to derive the plan's randomness from the shared run seed
        when the plan was built without one (``rng`` stays ``None``, so
        every runner construction re-derives — reusing one plan object
        across identically-seeded runners stays reproducible).
        """
        self._bind_seed(rng)
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
        coin.

        The coin is a *pure function* of ``(seed, sender, receiver,
        round)``: sha256 over the plan seed and the canonical directed
        edge key (``repr`` of the endpoints, stable across processes and
        hash seeds) yields a uniform 64-bit value thresholded against
        ``drop_probability``. No shared stream is consumed, so the
        decision does not depend on how many other deliveries were
        decided first — engines and sweeps may evaluate
        deliveries in any order and agree on every loss.
        """
        if self.drop_schedule:
            scheduled = self.drop_schedule.get((sender, receiver))
            if scheduled is not None and round_no in scheduled:
                return True
        if self.drop_probability <= 0.0:
            return False
        edge = (sender, receiver)
        prefix = self._edge_prefixes.get(edge)
        if prefix is None:
            prefix = f"{self._drop_seed}|{sender!r}->{receiver!r}|".encode(
                "utf-8"
            )
            if len(self._edge_prefixes) >= _EDGE_PREFIX_CACHE_MAX:
                self._edge_prefixes.clear()
            self._edge_prefixes[edge] = prefix
        coin = hashlib.sha256(prefix + str(round_no).encode("ascii"))
        draw = int.from_bytes(coin.digest()[:8], "big") / 2.0**64
        return draw < self.drop_probability

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
            "seed": self._drop_seed,
        }


class RetransmittingFloodProgram(NodeProgram):
    """Extremum flood that rebroadcasts every round for ``horizon`` rounds.

    Unlike the quiescence-driven
    :class:`~repro.simulator.algorithms.flooding.ExtremumFloodProgram`,
    this program keeps transmitting its current best whether or not it
    improved, so any individual message loss is repaired by the next
    round's retransmission. With drop probability ``p`` and horizon
    ``h ≥ D / (1 − p)`` plus slack, the flood completes w.h.p.
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

    def on_start(self, ctx: Context):
        ctx.output = self._best
        return self._best

    def on_round(self, ctx: Context, inbox: Dict[Hashable, Message]):
        for message in inbox.values():
            if self._better(message.payload):
                self._best = message.payload
        ctx.output = self._best
        if ctx.round >= self._horizon:
            ctx.halt(self._best)
            return None
        return self._best
