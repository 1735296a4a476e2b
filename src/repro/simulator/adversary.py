"""Adversarial channel corruption for the round simulator.

:mod:`repro.simulator.faults` models *erasures* — a delivery either
arrives intact or not at all. Robust-computation work (Censor-Hillel et
al., "Two for One, One for All: Deterministic LDC-based Robust
Computation in Congested Clique") studies the harsher regime where an
adversary may *alter* traffic: the receiver gets a message, but not the
one that was sent. This module provides that regime for every engine:

* :class:`AdversaryPlan` — a declarative corruption adversary mirroring
  :class:`~repro.simulator.faults.FaultPlan`: per-delivery corruption
  decisions that are **pure functions of (plan seed, directed edge,
  round)**, with budget knobs (global corruption budget, per-round edge
  budget, targeted edge sets) enforced deterministically, so the round
  loop and the reference loop agree on every corrupted delivery bit for
  bit.
* three corruption kinds, selected per corrupted slot from the same
  digest that decided the corruption: ``"flip"`` XORs the payload's
  integer content inside its honest two's-complement width (so a
  corrupted message never exceeds the honest bit budget, but *can* go
  negative — the poisoned-minimum attack on extremum floods),
  ``"forge"`` replaces the payload outright, and ``"replay"`` delivers
  the most recent payload previously carried on the same directed edge
  (a stale-but-well-formed message, the attack checksums cannot see).

Attach a plan to a run through ``GraphSession.simulate(adversary_plan=…)``
or ``SyncRunner(…, adversary_plan=…)``.

**Determinism contract.** Whether a delivery is corrupted, and what the
corrupted payload is, depends only on the plan's bound seed, the
directed ``(sender, receiver)`` edge, the round number, and — for
replay — the sequence of payloads previously delivered on that same
edge (itself deterministic, since an edge carries at most one message
per round and rounds are evaluated in order). No decision reads global
state, so engines and sweeps may evaluate deliveries in any order and
corrupt exactly the same ones the same way.

**Budget semantics.** Budgets cap corrupted *edge-round slots*, not
delivered messages: a budgeted plan pre-commits, round by round, to the
set of directed edges it corrupts that round (the candidate edges whose
corruption coin passes, ranked by coin value, truncated to the
per-round and remaining-global budgets). A slot spends budget whether
or not a message actually crosses its edge that round. This is what
keeps the decision a pure function — enforcing budgets over *actual*
traffic would make one delivery's corruption depend on how many other
deliveries an engine happened to evaluate first that round. Budgeted (or targeted) plans are bound to the
network by :class:`~repro.simulator.runner.SyncRunner` so the slot
universe (the directed edge list — all ordered pairs under the
congested clique) is fixed before the first round.

Accounting: metrics count the bits of the *honest transmission* — the
adversary tampers on the wire, after the sender paid for (and the
transport validated) the real message. Corrupted payloads built by
``flip`` stay within the honest width; ``forge``/``replay`` payloads
carry their own size, which the receiver's inbox reports faithfully.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import (
    Any,
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    List,
    Optional,
    Tuple,
)

from repro.errors import GraphValidationError, SimulationError
from repro.simulator.message import Message, payload_bits
from repro.simulator.network import Network
from repro.utils.rng import RngLike, ensure_rng, fresh_seed

# A directed delivery: (sender, receiver).
DirectedEdge = Tuple[Hashable, Hashable]

#: The corruption kinds a plan may draw from.
CORRUPTION_KINDS = ("flip", "forge", "replay")

#: Per-edge digest-prefix cache bound (mirrors FaultPlan's): cleared
#: wholesale when full, so million-delivery sweeps over huge edge
#: universes cannot grow the plan without limit.
_EDGE_PREFIX_CACHE_MAX = 1 << 16


@dataclass
class AdversaryPlan:
    """A reproducible corruption adversary over directed deliveries.

    ``corruption_probability`` is the per-(edge, round) corruption coin
    — a pure function of the plan seed, the directed edge, and the
    round (see :meth:`corrupts`). ``kinds`` restricts which corruption
    transformations the adversary uses; the kind of each corrupted slot
    is drawn deterministically from the slot's own digest.

    Budget knobs (all optional, combinable):

    ``targets``
        restrict corruption to a set of directed ``(sender, receiver)``
        pairs (the adversary controls specific links);
    ``round_budget``
        at most this many corrupted edge-slots per round;
    ``budget``
        at most this many corrupted edge-slots over the whole run
        (spent in round order).

    ``forge_payload`` is the payload the ``"forge"`` kind delivers;
    ``None`` derives a pseudo-random small int from the slot digest.
    ``rng`` follows the shared seed path of
    :class:`~repro.simulator.faults.FaultPlan`: an explicit int is used
    verbatim, ``None`` is derived from the run seed by
    :class:`~repro.simulator.runner.SyncRunner`.
    """

    corruption_probability: float = 0.0
    kinds: Tuple[str, ...] = ("flip",)
    targets: Optional[FrozenSet[DirectedEdge]] = None
    budget: Optional[int] = None
    round_budget: Optional[int] = None
    forge_payload: Any = None
    rng: RngLike = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.corruption_probability <= 1.0:
            raise GraphValidationError(
                "corruption_probability must lie in [0, 1]"
            )
        kinds = tuple(self.kinds)
        if not kinds:
            raise GraphValidationError(
                "kinds must name at least one corruption kind"
            )
        unknown = [k for k in kinds if k not in CORRUPTION_KINDS]
        if unknown:
            raise GraphValidationError(
                f"unknown corruption kind(s) {unknown!r}; valid kinds: "
                + ", ".join(CORRUPTION_KINDS)
            )
        self.kinds = kinds
        if self.targets is not None:
            normalized = []
            for edge in self.targets:
                if len(edge) != 2:
                    raise GraphValidationError(
                        f"targets must be (sender, receiver) pairs; "
                        f"got {edge!r}"
                    )
                normalized.append((edge[0], edge[1]))
            self.targets = frozenset(normalized)
        for name in ("budget", "round_budget"):
            value = getattr(self, name)
            if value is not None and value < 0:
                raise GraphValidationError(f"{name} must be >= 0")
        # Replay history only accumulates when the plan can replay.
        self._track_replay = "replay" in self.kinds
        self._bind_seed(self.rng)
        # Bound lazily by the runner: the canonical slot universe
        # (directed edges, or all ordered pairs under the clique).
        self._universe: Optional[List[DirectedEdge]] = None

    # -- seeding -------------------------------------------------------

    def _bind_seed(self, rng: RngLike) -> None:
        """Fix the integer seed every corruption digest derives from
        (same contract as :meth:`FaultPlan._bind_seed`)."""
        if isinstance(rng, bool):
            raise GraphValidationError("rng must be None, int, or Random")
        if isinstance(rng, int):
            self._seed = rng
        else:
            self._seed = fresh_seed(ensure_rng(rng))
        # Volatile caches, all derived purely from the bound seed.
        self._edge_prefixes: Dict[DirectedEdge, bytes] = {}
        self._slots: Dict[int, FrozenSet[DirectedEdge]] = {}
        self._slots_through = 0
        self._spent = 0
        self._history: Dict[DirectedEdge, Any] = {}

    def reseed(self, rng: RngLike) -> "AdversaryPlan":
        """Rebind the plan's corruption randomness (returns self).

        The hook :class:`~repro.simulator.runner.SyncRunner` uses to
        derive the plan's seed from the run seed when the plan was built
        without one; ``rng`` stays ``None`` so every runner construction
        re-derives and plan objects can be reused across runs.
        """
        self._bind_seed(rng)
        return self

    def begin_run(self) -> "AdversaryPlan":
        """Reset per-run state (the replay history) before a run.

        Called by :meth:`SyncRunner.run`. The slot/budget caches are
        pure functions of the bound seed and survive — only the replay
        history depends on the traffic of a particular execution.
        """
        self._history.clear()
        return self

    # -- binding to a network ------------------------------------------

    def bind(self, network: Network, complete: bool = False) -> "AdversaryPlan":
        """Validate targets against ``network`` and fix the slot universe.

        ``complete=True`` (the congested clique) makes every ordered
        node pair a potential delivery; otherwise only the network's
        directed edges are. Called by the runner at construction; safe
        to call repeatedly (re-binding to a different network resets the
        budget bookkeeping, which is relative to the universe).
        """
        known = network.index_map
        if self.targets is not None:
            unknown = sorted(
                repr(v)
                for edge in self.targets
                for v in edge
                if v not in known
            )
            if unknown:
                raise SimulationError(
                    f"adversary plan targets nodes not in the network: "
                    f"{unknown}"
                )
            if not complete:
                non_edges = [
                    edge
                    for edge in self.targets
                    if edge[1] not in network.neighbors(edge[0])
                ]
                if non_edges:
                    raise SimulationError(
                        "adversary plan targets non-edges (corruption "
                        "there would be a silent no-op): "
                        f"{sorted(map(repr, non_edges))}"
                    )
        if self.budget is None and self.round_budget is None:
            return self
        index_of = network.index_of
        if self.targets is not None:
            pairs = list(self.targets)
        elif complete:
            nodes = network.nodes
            pairs = [(u, v) for u in nodes for v in nodes if u is not v]
        else:
            pairs = [
                (u, v)
                for u in network.nodes
                for v in network.neighbors(u)
            ]
        # Canonical order: by endpoint indices — the deterministic
        # tie-break of the slot ranking, stable across processes.
        pairs.sort(key=lambda edge: (index_of(edge[0]), index_of(edge[1])))
        self._universe = pairs
        self._slots = {}
        self._slots_through = 0
        self._spent = 0
        return self

    # -- the pure decision functions -----------------------------------

    def _digest(
        self, sender: Hashable, receiver: Hashable, round_no: int
    ) -> bytes:
        """sha256 over (seed, directed edge, round) — the one source of
        corruption randomness. The per-edge prefix bytes are cached (and
        the cache cleared wholesale at its bound), never the hasher."""
        edge = (sender, receiver)
        prefix = self._edge_prefixes.get(edge)
        if prefix is None:
            prefix = f"{self._seed}|adv|{sender!r}->{receiver!r}|".encode(
                "utf-8"
            )
            if len(self._edge_prefixes) >= _EDGE_PREFIX_CACHE_MAX:
                self._edge_prefixes.clear()
            self._edge_prefixes[edge] = prefix
        return hashlib.sha256(
            prefix + str(round_no).encode("ascii")
        ).digest()

    def _coin(
        self, sender: Hashable, receiver: Hashable, round_no: int
    ) -> float:
        return (
            int.from_bytes(
                self._digest(sender, receiver, round_no)[:8], "big"
            )
            / 2.0**64
        )

    def _slots_for(self, round_no: int) -> FrozenSet[DirectedEdge]:
        """The pre-committed corrupted edge set of ``round_no``
        (budgeted path; requires :meth:`bind`)."""
        if self._universe is None:
            raise SimulationError(
                "a budgeted AdversaryPlan must be bound to a network "
                "before corruption decisions are made (SyncRunner does "
                "this automatically)"
            )
        while self._slots_through < round_no:
            r = self._slots_through + 1
            if self.budget is not None and self._spent >= self.budget:
                self._slots[r] = frozenset()
                self._slots_through = r
                continue
            p = self.corruption_probability
            candidates = [
                (self._coin(u, v, r), position, (u, v))
                for position, (u, v) in enumerate(self._universe)
                if self._coin(u, v, r) < p
            ]
            candidates.sort()
            if self.round_budget is not None:
                candidates = candidates[: self.round_budget]
            if self.budget is not None:
                candidates = candidates[: self.budget - self._spent]
            self._spent += len(candidates)
            self._slots[r] = frozenset(edge for _, _, edge in candidates)
            self._slots_through = r
        return self._slots[round_no]

    def corrupts(
        self, sender: Hashable, receiver: Hashable, round_no: int
    ) -> bool:
        """Whether the ``sender → receiver`` delivery of ``round_no`` is
        corrupted — a pure function of (seed, edge, round) and, under
        budgets, of the bound slot universe."""
        if self.corruption_probability <= 0.0:
            return False
        edge = (sender, receiver)
        if self.targets is not None and edge not in self.targets:
            return False
        if self.budget is None and self.round_budget is None:
            return self._coin(sender, receiver, round_no) < (
                self.corruption_probability
            )
        return edge in self._slots_for(round_no)

    def kind_of(
        self, sender: Hashable, receiver: Hashable, round_no: int
    ) -> str:
        """The corruption kind a corrupted slot uses (deterministic)."""
        digest = self._digest(sender, receiver, round_no)
        return self.kinds[digest[8] % len(self.kinds)]

    # -- the corruption transformations --------------------------------

    def apply(
        self,
        sender: Hashable,
        receiver: Hashable,
        round_no: int,
        message: Message,
    ) -> Message:
        """The delivery hook: returns the message the receiver actually
        gets. Engines call this once per non-dropped delivery; the
        replay history observes every such delivery, corrupted or not.
        """
        edge = (sender, receiver)
        corrupted = self.corrupts(sender, receiver, round_no)
        stale = self._history.get(edge) if self._track_replay else None
        if self._track_replay:
            self._history[edge] = message.payload
        if not corrupted:
            return message
        digest = self._digest(sender, receiver, round_no)
        kind = self.kinds[digest[8] % len(self.kinds)]
        material = int.from_bytes(digest[9:17], "big")
        if kind == "replay" and stale is not None:
            payload = stale
        elif kind == "forge":
            payload = (
                self.forge_payload
                if self.forge_payload is not None
                else _forged_int(material)
            )
        else:  # flip — also the fallback for replay with no history
            payload = _flip_payload(message.payload, material)
        return Message(message.sender, payload, payload_bits(payload))

    # -- reporting ------------------------------------------------------

    def describe(self) -> Dict[str, Any]:
        """JSON-clean summary of the plan's configuration (the bound
        seed included, so an envelope row reproduces the corruption)."""
        return {
            "corruption_probability": self.corruption_probability,
            "kinds": list(self.kinds),
            "targets": (
                None
                if self.targets is None
                else sorted(
                    [list(edge) for edge in self.targets], key=repr
                )
            ),
            "budget": self.budget,
            "round_budget": self.round_budget,
            "forge_payload": self.forge_payload,
            "seed": self._seed,
        }


def _forged_int(material: int) -> int:
    """The default forged payload: a signed 16-bit pseudo-random int,
    derived from the slot digest (never 0 — forgery must change
    *something* with overwhelming probability, and a small nonzero int
    is wrong for most protocols)."""
    value = material % 65536 - 32768
    return value if value != 0 else 1


def _flip_int(value: int, material: int) -> int:
    """XOR ``value`` inside its honest two's-complement width.

    The mask is nonzero and confined to ``payload_bits(value)`` bits, so
    the corrupted int never costs more bits than the honest one — but
    the sign bit is in range, so a non-negative value can corrupt to a
    negative one (the poisoned-extremum attack). One exception: the
    zero payload's 1-bit budget admits no *other* int at all, so zero
    corrupts to -1 (2 bits). One exclusion: ``-2**(width-1)`` fits the
    two's-complement width but :func:`payload_bits` charges it an extra
    magnitude bit, so it is nudged to the nearest in-budget int.
    """
    width = max(1, value.bit_length() + 1)
    space = 1 << width
    half = space >> 1
    mask = material % (space - 1) + 1  # in [1, space - 1]
    rep = (value & (space - 1)) ^ mask
    out = rep - space if rep >= half else rep
    if out == -half and width > 1:
        out = -half + 1 if value != -half + 1 else -half + 2
    return out


def _flip_payload(payload: Any, material: int) -> Any:
    """Bit-flip corruption of one payload.

    Ints are flipped in place; tuples have exactly one int element
    flipped (chosen by the slot digest). Payloads with no integer
    content fall back to a forged int — garbage is garbage.
    """
    if isinstance(payload, bool):
        return not payload
    if isinstance(payload, int):
        return _flip_int(payload, material)
    if isinstance(payload, tuple):
        slots = [
            i
            for i, item in enumerate(payload)
            if isinstance(item, int) and not isinstance(item, bool)
        ]
        if slots:
            target = slots[material % len(slots)]
            return tuple(
                _flip_int(item, material >> 3) if i == target else item
                for i, item in enumerate(payload)
            )
    return _forged_int(material)
