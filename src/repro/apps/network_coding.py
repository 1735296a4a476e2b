"""Random linear network coding (RLNC) comparison baseline.

The paper's introduction motivates connectivity decomposition by the
shortcoming of network coding in CONGEST-style models: *"in standard
distributed networks each message can contain at most O(log n) bits and
thus, because of the coefficients, network coding can only support a flow
of O(log n) messages per round"* (Section 1). This module makes that
claim measurable: it simulates gossip-by-RLNC over GF(2) under the same
per-message bit budget the simulator enforces, accounting the coefficient
vector against the budget, so the benchmark harness (experiment E17) can
plot coded throughput against the tree-packing broadcast of Appendix A
and locate the crossover the paper predicts.

On-wire format of a coded packet for ``N`` source messages of ``B``
payload bits: ``N`` coefficient bits + ``B`` payload bits. One packet
therefore occupies a link for ``⌈(N + B) / budget⌉`` CONGEST rounds; the
tree-routed scheme's packets carry ``⌈log₂ N⌉ + B`` bits and almost
always fit in one round. The linear algebra is GF(2) row reduction over
Python integers used as bit vectors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional

import networkx as nx

from repro.errors import GraphValidationError
from repro.simulator.transport import default_message_budget
from repro.utils.mathutil import ceil_div, ceil_log2
from repro.utils.rng import RngLike, ensure_rng


class Gf2Basis:
    """A subspace of GF(2)^dimension kept in row-echelon form.

    Vectors are Python ints; bit ``i`` is coordinate ``i``. Insertion
    reduces against existing rows and keeps one row per leading bit, so
    rank queries and membership tests are O(rank) word operations.
    """

    def __init__(self, dimension: int) -> None:
        if dimension < 1:
            raise GraphValidationError("dimension must be >= 1")
        self.dimension = dimension
        # rows[b] = the basis row whose leading (highest set) bit is b.
        self._rows: Dict[int, int] = {}

    @property
    def rank(self) -> int:
        return len(self._rows)

    @property
    def is_full(self) -> bool:
        return self.rank == self.dimension

    def reduce(self, vector: int) -> int:
        """Reduce ``vector`` against the basis; 0 iff already spanned."""
        while vector:
            lead = vector.bit_length() - 1
            row = self._rows.get(lead)
            if row is None:
                return vector
            vector ^= row
        return 0

    def insert(self, vector: int) -> bool:
        """Add ``vector`` to the span. True iff the rank grew."""
        if vector < 0 or vector.bit_length() > self.dimension:
            raise GraphValidationError(
                "vector does not fit the basis dimension"
            )
        reduced = self.reduce(vector)
        if reduced == 0:
            return False
        self._rows[reduced.bit_length() - 1] = reduced
        return True

    def contains(self, vector: int) -> bool:
        return self.reduce(vector) == 0

    def random_combination(self, rng) -> int:
        """A uniformly random vector of the span (possibly 0 for the
        empty basis). Used as the coded payload a node transmits."""
        combination = 0
        for row in self._rows.values():
            if rng.getrandbits(1):
                combination ^= row
        return combination


@dataclass
class CodedBroadcastOutcome:
    """Measurements of one RLNC gossip run."""

    slots: int
    rounds_per_packet: int
    n_messages: int
    packet_bits: int
    budget_bits: int

    @property
    def rounds(self) -> int:
        """CONGEST rounds consumed: every slot ships one packet per node,
        each packet occupying its links for ``rounds_per_packet``."""
        return self.slots * self.rounds_per_packet

    @property
    def throughput(self) -> float:
        """Messages delivered to all nodes per CONGEST round."""
        return self.n_messages / max(1, self.rounds)


def coded_packet_bits(n_messages: int, payload_bits: int) -> int:
    """On-wire size of one RLNC packet: coefficients + payload."""
    return n_messages + payload_bits


def routed_packet_bits(n_messages: int, payload_bits: int) -> int:
    """On-wire size of one routed packet: message id + payload."""
    return ceil_log2(max(2, n_messages)) + payload_bits


def rlnc_gossip(
    graph: nx.Graph,
    sources: Dict[int, Hashable],
    payload_bits: Optional[int] = None,
    budget_bits: Optional[int] = None,
    rng: RngLike = 0,
    max_slots: int = 1_000_000,
) -> CodedBroadcastOutcome:
    """All-to-all dissemination of ``sources`` by RLNC gossip.

    ``sources`` maps message ids ``0..N-1`` to their origin nodes. Every
    slot, every node broadcasts one uniformly random GF(2) combination of
    its received span to all neighbors (the V-CONGEST discipline: one
    transmission per node per slot). The run ends when every node's
    coefficient space has full rank ``N`` — i.e. every node can decode
    all messages by Gaussian elimination.

    Rounds are derived from slots via the packet/budget ratio; see the
    module docstring. Raises if dissemination cannot complete (e.g. the
    graph is disconnected).
    """
    if not sources:
        raise GraphValidationError("sources must be non-empty")
    if graph.number_of_nodes() == 0:
        raise GraphValidationError("graph must be non-empty")
    missing = [v for v in sources.values() if not graph.has_node(v)]
    if missing:
        raise GraphValidationError(f"source nodes not in graph: {missing!r}")
    if not nx.is_connected(graph):
        raise GraphValidationError("graph must be connected")
    n_messages = len(sources)
    expected_ids = set(range(n_messages))
    if set(sources) != expected_ids:
        raise GraphValidationError(
            "message ids must be exactly 0..N-1 for the coefficient space"
        )
    rand = ensure_rng(rng)
    n = graph.number_of_nodes()
    budget = (
        budget_bits if budget_bits is not None else default_message_budget(n)
    )
    payload = payload_bits if payload_bits is not None else budget
    if budget < 1 or payload < 1:
        raise GraphValidationError("budgets must be positive")

    spans: Dict[Hashable, Gf2Basis] = {
        v: Gf2Basis(n_messages) for v in graph.nodes()
    }
    for message_id, origin in sources.items():
        spans[origin].insert(1 << message_id)

    slots = 0
    while any(not spans[v].is_full for v in graph.nodes()):
        slots += 1
        if slots > max_slots:
            raise GraphValidationError(
                "RLNC gossip did not converge; graph may be disconnected"
            )
        # All transmissions within a slot are simultaneous: snapshot the
        # outgoing combinations before anyone updates their span.
        outgoing = {
            v: spans[v].random_combination(rand) for v in graph.nodes()
        }
        for v, coded in outgoing.items():
            if coded == 0:
                continue
            for u in graph.neighbors(v):
                spans[u].insert(coded)

    packet = coded_packet_bits(n_messages, payload)
    return CodedBroadcastOutcome(
        slots=slots,
        rounds_per_packet=ceil_div(packet, budget),
        n_messages=n_messages,
        packet_bits=packet,
        budget_bits=budget,
    )


@dataclass
class ThroughputComparison:
    """Side-by-side throughput of RLNC and tree-packing broadcast."""

    coded: CodedBroadcastOutcome
    tree_rounds: int
    n_messages: int

    @property
    def coded_throughput(self) -> float:
        return self.coded.throughput

    @property
    def tree_throughput(self) -> float:
        return self.n_messages / max(1, self.tree_rounds)

    @property
    def tree_advantage(self) -> float:
        """Tree throughput ÷ coded throughput (> 1 means trees win)."""
        return self.tree_throughput / max(self.coded_throughput, 1e-12)


def compare_with_tree_broadcast(
    graph: nx.Graph,
    packing,
    sources: Dict[int, Hashable],
    payload_bits: Optional[int] = None,
    budget_bits: Optional[int] = None,
    rng: RngLike = 0,
) -> ThroughputComparison:
    """Run both dissemination schemes on identical workloads.

    ``packing`` is a :class:`~repro.core.tree_packing.DominatingTreePacking`;
    the tree side runs :func:`repro.apps.broadcast.vertex_broadcast` and
    its rounds are scaled by the (usually 1) packet/budget ratio of the
    routed format so both sides pay for their headers.
    """
    from repro.apps.broadcast import vertex_broadcast

    rand = ensure_rng(rng)
    coded = rlnc_gossip(
        graph,
        sources,
        payload_bits=payload_bits,
        budget_bits=budget_bits,
        rng=rand,
    )
    outcome = vertex_broadcast(packing, sources, rng=rand)
    routed_cost = ceil_div(
        routed_packet_bits(len(sources), coded.packet_bits - len(sources)),
        coded.budget_bits,
    )
    return ThroughputComparison(
        coded=coded,
        tree_rounds=outcome.rounds * routed_cost,
        n_messages=len(sources),
    )
