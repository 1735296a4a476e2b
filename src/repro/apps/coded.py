"""Coded defenses against channel corruption.

The :mod:`repro.simulator.adversary` layer delivers *wrong* messages,
not missing ones, so retransmission alone no longer helps: a single
flipped payload can poison an extremum flood forever (a corrupted value
below the true minimum propagates exactly like an honest one). This
module provides the two classical remedies in their simplest coded
form, mirroring the error-detecting / error-correcting split of
"Two for One, One for All" (PAPERS.md):

* **error detection** — :class:`ChecksummedFloodProgram` and the
  ``"checksum"`` gossip variant append a short hash of the payload
  (:func:`token_checksum`) and *drop on mismatch*: a flipped or forged
  payload fails verification with probability ``1 − 2^−bits`` and is
  treated exactly like an erasure, which retransmission already
  repairs. The blind spot is **replay**: a stale payload was honestly
  checksummed once, so it verifies — harmless for monotone extremum
  floods (an old best is never *better*), but a real gap in general.
* **error correction** — :class:`VotedFloodProgram` and the ``"vote"``
  gossip variant accept a candidate value only after seeing it
  ``votes`` independent times (across rounds and neighbors). Corrupted
  payloads almost never repeat — the flip mask and forge material
  change with every ``(edge, round)`` digest — so they never reach the
  vote threshold, while honest values are retransmitted every round
  and cross it quickly. No per-message overhead at all; the cost is
  latency (a value must be sighted ``votes`` times) and the residual
  risk that a *targeted* adversary repeats one forgery.

Overhead accounting rides the existing
:func:`~repro.simulator.message.payload_bits` algebra: a checksummed
payload is simply a wider tuple, so the honest-bits overhead of each
defense is read directly off ``SimulationMetrics.bits`` — see
``benchmarks/bench_resilience.py`` for the measured ratios.

All programs here transmit a bare payload broadcast per round (legal
under V-CONGEST, E-CONGEST, and the congested clique alike) and halt at
a fixed ``horizon``, so runs are deterministic in length and enroll
cleanly in the engine-equivalence differential matrix.
"""

from __future__ import annotations

import hashlib
from typing import Any, Dict, Hashable, Tuple

from repro.errors import GraphValidationError
from repro.simulator.faults import RetransmittingFloodProgram
from repro.simulator.message import Message
from repro.simulator.node import Context, NodeProgram

#: Default checksum width. 16 bits keeps a checksummed (origin, value,
#: checksum) tuple well inside the O(log n) budget while letting a
#: random corruption slip through only once per ~65k attempts.
DEFAULT_CHECKSUM_BITS = 16

#: Cap on the candidate-sighting table of the voting programs: an
#: adversary forging fresh values every round must not grow node state
#: without bound. New candidates are ignored while the table is full —
#: honest values enter early (round 1) and are unaffected.
MAX_TRACKED_CANDIDATES = 4096


def token_checksum(value: Any, bits: int = DEFAULT_CHECKSUM_BITS) -> int:
    """A ``bits``-wide checksum of a payload-legal value.

    sha256 over ``repr(value)`` — stable across processes and hash
    seeds, the same canonicalization the fault/adversary digests use —
    truncated to ``bits`` bits.
    """
    if bits < 1 or bits > 64:
        raise GraphValidationError("checksum bits must lie in [1, 64]")
    digest = hashlib.sha256(repr(value).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") % (1 << bits)


class ChecksummedFloodProgram(RetransmittingFloodProgram):
    """Error-*detecting* extremum flood: ``(value, checksum)`` payloads,
    drop-on-bad, retransmit every round until ``horizon``.

    Corrupted deliveries (flipped value, flipped checksum, or a forged
    pair) fail verification w.p. ``1 − 2^−checksum_bits`` and are
    discarded — corruption degrades to loss, which the per-round
    retransmission repairs. Overhead: ``checksum_bits`` (plus tuple
    framing) per message.
    """

    def __init__(
        self,
        value: Any,
        horizon: int,
        checksum_bits: int = DEFAULT_CHECKSUM_BITS,
        minimize: bool = True,
    ) -> None:
        super().__init__(value, horizon, minimize)
        self._bits = checksum_bits

    def _payload(self) -> Tuple[Any, int]:
        return (self._best, token_checksum(self._best, self._bits))

    def _ingest(self, payload: Any) -> None:
        if (
            not isinstance(payload, tuple)
            or len(payload) != 2
            or payload[1] != token_checksum(payload[0], self._bits)
        ):
            return  # detected corruption: treat as an erasure
        super()._ingest(payload[0])


class VotedFloodProgram(RetransmittingFloodProgram):
    """Error-*correcting* extremum flood: repetition voting.

    Broadcasts the current best every round (bare value, zero payload
    overhead); an improving candidate is adopted only once it has been
    sighted ``votes`` times in total — across rounds and across
    neighbors. Honest improvements are rebroadcast by every holder
    every round, so they cross the threshold in one or two rounds;
    one-shot corruptions (whose flip masks differ per round) don't.
    """

    def __init__(
        self,
        value: Any,
        horizon: int,
        votes: int = 2,
        minimize: bool = True,
    ) -> None:
        super().__init__(value, horizon, minimize)
        if votes < 1:
            raise GraphValidationError("votes must be >= 1")
        self._votes = votes
        self._sightings: Dict[Any, int] = {}

    def _ingest(self, candidate: Any) -> None:
        if not self._better(candidate):
            return
        count = self._sightings.get(candidate)
        if count is None:
            if len(self._sightings) >= MAX_TRACKED_CANDIDATES:
                return  # table full: ignore the (adversarial) flood
            count = 0
        count += 1
        if count >= self._votes:
            self._best = candidate
            # Everything tracked was only better than the *old* best;
            # re-filter against the new one to keep the table small.
            self._sightings = {
                value: seen
                for value, seen in self._sightings.items()
                if self._better(value)
            }
        else:
            self._sightings[candidate] = count


class TokenGossipProgram(NodeProgram):
    """All-to-all token gossip with a pluggable defense ``variant``.

    Every node owns one ``(origin, value)`` token and the goal is for
    every node to learn every token. Each round a node broadcasts one
    known token, round-robin over its committed origins (sorted, indexed
    by round number — deterministic, one token per round, CONGEST-legal).

    ``variant`` selects the commit rule for incoming tokens:

    * ``"plain"`` — first value seen for an origin wins (uncoded;
      corruptible: one flipped token poisons that origin everywhere
      downstream);
    * ``"checksum"`` — payloads carry ``token_checksum((origin,
      value))``; bad checksums are dropped, first *valid* value wins;
    * ``"vote"`` — an ``(origin, value)`` pair commits after ``votes``
      sightings; first pair to reach the threshold wins its origin.

    Output: sorted tuple of committed ``(origin, value)`` pairs.
    """

    VARIANTS = ("plain", "checksum", "vote")

    def __init__(
        self,
        origin: Hashable,
        value: Any,
        horizon: int,
        variant: str = "plain",
        votes: int = 2,
        checksum_bits: int = DEFAULT_CHECKSUM_BITS,
    ) -> None:
        if variant not in self.VARIANTS:
            raise GraphValidationError(
                f"unknown gossip variant {variant!r}; valid: "
                + ", ".join(self.VARIANTS)
            )
        if horizon < 1:
            raise GraphValidationError("horizon must be >= 1")
        if votes < 1:
            raise GraphValidationError("votes must be >= 1")
        self._variant = variant
        self._votes = votes
        self._bits = checksum_bits
        self._horizon = horizon
        self._tokens: Dict[Hashable, Any] = {}
        self._sightings: Dict[Tuple[Hashable, Any], int] = {}
        self._commit(origin, value)

    def _commit(self, origin: Hashable, value: Any) -> None:
        """Commit a token. The two sorted views of the token set (the
        emit rotation by origin repr, the output by pair repr) go stale
        and are rebuilt on their next read, so each is sorted at most
        once per round, and not at all in a round without a commit."""
        self._tokens[origin] = value
        self._origins = self._committed = None

    def _output(self) -> Tuple[Tuple[Hashable, Any], ...]:
        if self._committed is None:
            self._committed = tuple(sorted(self._tokens.items(), key=repr))
        return self._committed

    def _emit(self, round_index: int):
        if self._origins is None:
            self._origins = sorted(self._tokens, key=repr)
        origins = self._origins
        origin = origins[round_index % len(origins)]
        token = (origin, self._tokens[origin])
        if self._variant == "checksum":
            return (origin, self._tokens[origin],
                    token_checksum(token, self._bits))
        return token

    def _ingest(self, payload: Any) -> None:
        if self._variant == "checksum":
            if (
                not isinstance(payload, tuple)
                or len(payload) != 3
                or payload[2]
                != token_checksum((payload[0], payload[1]), self._bits)
            ):
                return  # detected corruption
            origin, value = payload[0], payload[1]
        else:
            if not isinstance(payload, tuple) or len(payload) != 2:
                return  # malformed (e.g. forged int): ignore
            origin, value = payload
        if origin in self._tokens:
            return  # committed (first-wins in every variant)
        if self._variant == "vote":
            key = (origin, value)
            count = self._sightings.get(key)
            if count is None:
                if len(self._sightings) >= MAX_TRACKED_CANDIDATES:
                    return
                count = 0
            count += 1
            if count < self._votes:
                self._sightings[key] = count
                return
            self._sightings = {
                k: seen for k, seen in self._sightings.items()
                if k[0] != origin
            }
        self._commit(origin, value)

    def on_start(self, ctx: Context):
        ctx.output = self._output()
        return self._emit(0)

    def on_round(self, ctx: Context, inbox: Dict[Hashable, Message]):
        for message in inbox.values():
            self._ingest(message.payload)
        ctx.output = self._output()
        if ctx.round >= self._horizon:
            ctx.halt(self._output())
            return None
        return self._emit(ctx.round)
