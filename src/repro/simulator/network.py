"""Network topology container — the engine's *topology core*.

Wraps a :class:`networkx.Graph` with the pieces every node program needs:
stable neighbor lists, ``n``, a diameter estimate, and random node ids
(the paper notes nodes can generate ``4 log n``-bit random ids in one
round; we provide them up front, deterministic under a seed).

Since the engine refactor the network canonicalizes its nodes **once**
through :class:`repro.fastgraph.IndexedGraph`: every node gets a dense
integer index (position in ``graph.nodes()`` order) and the round loop of
:mod:`repro.simulator.runner` works entirely over those indices and flat
neighbor arrays — no per-message hashing of node keys. The public API
stays Hashable-keyed (``neighbors``, ``node_id``, ``nodes``); the index
view is exposed alongside it (``index_of``, ``node_at``, ``index_map``,
``neighbor_indices``) so node programs and drivers stop rebuilding the
mapping ad hoc.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional, Tuple

import networkx as nx

from repro.errors import GraphValidationError, SimulationError
from repro.fastgraph import IndexedGraph
from repro.utils.mathutil import ceil_log2
from repro.utils.rng import RngLike, ensure_rng

# How many times the id assignment may re-draw on collision before it
# gives up. With 4·⌈log₂ n⌉-bit ids the collision probability per draw is
# at most n/n⁴, so hitting this budget signals a broken RNG, not bad luck.
ID_DRAW_ATTEMPTS = 64


class Network:
    """A static undirected topology for synchronous simulation."""

    def __init__(
        self,
        graph: nx.Graph,
        rng: RngLike = None,
        require_connected: bool = True,
        indexed: Optional[IndexedGraph] = None,
    ) -> None:
        if graph.number_of_nodes() == 0:
            raise GraphValidationError("network must have at least one node")
        if require_connected and not nx.is_connected(graph):
            raise GraphValidationError("network graph must be connected")
        self._graph = graph
        # Canonicalize once: node → dense integer index, flat edge array.
        # A prebuilt canonicalization (e.g. a GraphSession's) may be
        # shared; the id-draw RNG stream is unaffected either way.
        if indexed is None:
            indexed = IndexedGraph.from_networkx(graph)
        elif indexed.n != graph.number_of_nodes() or (
            indexed.m != graph.number_of_edges()
        ):
            raise GraphValidationError(
                "prebuilt IndexedGraph does not match the network graph"
            )
        self._indexed = indexed
        self._nodes: List[Hashable] = self._indexed.nodes
        self._index_of: Dict[Hashable, int] = self._indexed.index_of
        # Neighbor order is pinned to graph.neighbors() (adjacency
        # insertion order) — the order the pre-refactor simulator used for
        # broadcast fan-out, which keeps schedules and fault-plan RNG
        # consumption bit-identical across engines.
        self._neighbors: Dict[Hashable, Tuple[Hashable, ...]] = {
            v: tuple(graph.neighbors(v)) for v in self._nodes
        }
        index_of = self._index_of
        self._neighbor_indices: List[Tuple[int, ...]] = [
            tuple(index_of[u] for u in self._neighbors[v]) for v in self._nodes
        ]
        # The column step's edge arrays (repro.simulator.column_step):
        # a function of the adjacency alone, built on the first columnar
        # round of any run over this network.
        self._column_plane = None
        rand = ensure_rng(rng)
        # 4·log n random bits per id (Section 2); distinct w.h.p., re-drawn
        # on collision — but bounded: a generator that keeps colliding
        # fails loudly instead of spinning forever.
        id_bits = 4 * max(1, ceil_log2(max(2, len(self._nodes))))
        used = set()
        self._ids: Dict[Hashable, int] = {}
        for v in self._nodes:
            for _ in range(ID_DRAW_ATTEMPTS):
                candidate = rand.getrandbits(id_bits)
                if candidate not in used:
                    used.add(candidate)
                    self._ids[v] = candidate
                    break
            else:
                raise SimulationError(
                    f"could not draw a distinct {id_bits}-bit node id for "
                    f"{v!r} within {ID_DRAW_ATTEMPTS} attempts; the id space "
                    "is exhausted or the RNG is degenerate"
                )
        self._by_id: Dict[int, Hashable] = {
            node_id: v for v, node_id in self._ids.items()
        }

    @property
    def graph(self) -> nx.Graph:
        """The underlying topology (do not mutate during a run)."""
        return self._graph

    @property
    def indexed(self) -> IndexedGraph:
        """The canonical integer-indexed view (shared, do not mutate)."""
        return self._indexed

    @property
    def nodes(self) -> List[Hashable]:
        return list(self._nodes)

    @property
    def n(self) -> int:
        return len(self._nodes)

    @property
    def m(self) -> int:
        return self._indexed.m

    # ------------------------------------------------------------------
    # Hashable-keyed API (unchanged from the pre-engine simulator)
    # ------------------------------------------------------------------

    def neighbors(self, node: Hashable) -> Tuple[Hashable, ...]:
        return self._neighbors[node]

    def degree(self, node: Hashable) -> int:
        return len(self._neighbors[node])

    def node_id(self, node: Hashable) -> int:
        """The node's random O(log n)-bit identifier."""
        return self._ids[node]

    def node_by_id(self, node_id: int) -> Hashable:
        """Inverse of :meth:`node_id` (ids are distinct by construction).

        Programs used to rebuild ``{node_id(v): v}`` maps ad hoc per
        phase; the network now owns the single canonical copy.
        """
        return self._by_id[node_id]

    # ------------------------------------------------------------------
    # Integer-index view (the engine's hot-path substrate)
    # ------------------------------------------------------------------

    def index_of(self, node: Hashable) -> int:
        """Dense integer index of ``node`` (position in ``nodes``)."""
        return self._index_of[node]

    def node_at(self, index: int) -> Hashable:
        """Node label at ``index`` — inverse of :meth:`index_of`."""
        return self._nodes[index]

    @property
    def index_map(self) -> Dict[Hashable, int]:
        """The full node → index mapping (shared dict, do not mutate)."""
        return self._index_of

    def neighbor_indices(self, index: int) -> Tuple[int, ...]:
        """Neighbor indices of the node at ``index``; order matches
        :meth:`neighbors` of the same node."""
        return self._neighbor_indices[index]

    def neighbor_index_table(self) -> List[Tuple[int, ...]]:
        """The whole adjacency as index tuples, position = node index."""
        return self._neighbor_indices

    def diameter(self) -> int:
        """Exact diameter, cached on the shared :attr:`indexed` (so every
        network a session builds reuses one computation)."""
        return self._indexed.diameter()
