"""The virtual graph G of Section 3.1, on the fastgraph kernel.

Each real node ``v`` simulates ``3L`` virtual nodes — one per
(layer ∈ 1..L, type ∈ {1,2,3}) pair — and two virtual nodes are adjacent
iff they live on the same real node or on adjacent real nodes
(footnote 5: G is just Θ(log n) reused copies of G). The integral
packing of Section 1.2 (the random layering of [12]) is the same graph
with one virtual node per real node, at a random (layer, type):
:attr:`VirtualGraph.hosts` records which virtual nodes each real node
hosts per layer, and the recursion iterates exactly those.

Key structural fact exploited everywhere: because same-real virtual nodes
are adjacent, the connected components of the class-``i`` virtual subgraph
``G[V_i^ℓ]`` project exactly onto the connected components of the real
induced subgraph ``G[Ψ(V_i^ℓ)]``. The per-class bookkeeping therefore
tracks, per class, the *real* projection (with per-real virtual
multiplicities) plus a union-find over real nodes — the Appendix C data
structure — while :class:`VirtualGraph` records the full per-virtual-node
assignment needed by the distributed output requirements (Section 2) and
the Lemma 4.6 measurements, on indices: per layer, one class per virtual
node of :attr:`VirtualGraph.hosts`.

Since the kernel port, the graph is canonicalized **once** at pipeline
entry into a :class:`CdsIndex` — integer node indices, flat adjacency in
``graph.neighbors()`` order (the order that pins nx-compatible traversal
and therefore bit-identity with the label-level pipeline in
``tests/oracles/cds_packing_reference.py``) — and every per-class structure
is an :class:`IndexedClassState`: multiplicities keyed by node index and
an :class:`~repro.fastgraph.IntUnionFind` over indices instead of the
label-dict :class:`~repro.graphs.union_find.UnionFind`. Label-keyed
views (``active_reals``, ``assignment``, ``real_classes``) are built
when read; hot paths (:mod:`repro.core.bridging`,
:mod:`repro.core.cds_packing`) use the index view.
"""

from __future__ import annotations

import random
from typing import (
    Dict, Hashable, Iterable, List, NamedTuple, Optional, Sequence, Set,
    Tuple,
)

import networkx as nx

from repro.errors import GraphValidationError
from repro.fastgraph import IndexedGraph, IntUnionFind
from repro.utils.mathutil import ceil_log2


class VirtualNode(NamedTuple):
    """A virtual node: (real node, layer in 1..L, type in {1,2,3})."""

    real: Hashable
    layer: int
    vtype: int


class CdsIndex:
    """Canonical integer view of a graph, shared by the CDS pipeline.

    Built once per construction (and reused across the Remark 3.1 guess
    loop); bundles the :class:`~repro.fastgraph.IndexedGraph`
    canonicalization with adjacency lists in ``graph.neighbors()`` order
    — the order every traversal below must follow to stay bit-identical
    to the label-level implementation (nx subgraph/BFS iteration order is
    adjacency-insertion order, not edge-array order).
    """

    __slots__ = ("graph", "indexed", "nodes", "index_of", "adj", "n",
                 "_connected")

    def __init__(
        self, graph: nx.Graph, indexed: Optional[IndexedGraph] = None
    ) -> None:
        self.graph = graph
        if indexed is None:
            indexed = IndexedGraph.from_networkx(graph)
        elif indexed.n != graph.number_of_nodes() or (
            indexed.m != graph.number_of_edges()
        ):
            raise GraphValidationError(
                "prebuilt IndexedGraph does not match the graph"
            )
        self.indexed = indexed
        self.nodes: List[Hashable] = self.indexed.nodes
        self.index_of: Dict[Hashable, int] = self.indexed.index_of
        index_of = self.index_of
        self.adj: List[List[int]] = [
            [index_of[u] for u in graph.neighbors(v)] for v in self.nodes
        ]
        self.n = self.indexed.n
        self._connected: Optional[bool] = None

    @property
    def connected(self) -> bool:
        """Whether the graph is connected (read once per index)."""
        if self._connected is None:
            self._connected = nx.is_connected(self.graph)
        return self._connected


class IndexedClassState:
    """Per-class projection bookkeeping on integer node indices.

    The union-find is an :class:`~repro.fastgraph.IntUnionFind` over all
    ``n`` indices; since inactive indices stay singletons, the class's
    component count is ``|active| − merges`` rather than the forest's
    global count. The label-level ``ClassState`` it replaced lives on in
    the CDS oracle, ``tests/oracles/cds_packing_reference.py``.
    """

    __slots__ = ("class_id", "_index", "multiplicity_by_index", "_uf",
                 "_active", "_merges", "_dominates")

    def __init__(self, class_id: int, index: CdsIndex) -> None:
        self.class_id = class_id
        self._index = index
        # node index -> number of virtual nodes joined (insertion order
        # = join order, matching the reference's dict bookkeeping).
        self.multiplicity_by_index: Dict[int, int] = {}
        self._uf = IntUnionFind(index.n)
        self._active = 0
        self._merges = 0
        self._dominates = False

    def add_indices(self, indices: Iterable[int]) -> None:
        """One more virtual node of each index in ``indices`` joins, in
        order; a newly active index merges through every active neighbor
        (in adjacency order)."""
        mult = self.multiplicity_by_index
        adj = self._index.adj
        uf = self._uf
        for i in indices:
            if i in mult:
                mult[i] += 1
                continue
            mult[i] = 1
            self._active += 1
            self._merges += sum(uf.union(i, j) for j in adj[i] if j in mult)

    def dominates(self) -> bool:
        """Whether every node is active or adjacent to an active node.
        Classes only grow, so once true the answer is kept."""
        if not self._dominates:
            mult = self.multiplicity_by_index
            adj = self._index.adj
            covered = set(mult)
            for i in mult:
                covered.update(adj[i])
            self._dominates = len(covered) == self._index.n
        return self._dominates

    def representatives(self) -> Dict[int, int]:
        """Active index → its component representative (index)."""
        find = self._uf.find
        return {i: find(i) for i in self.multiplicity_by_index}

    @property
    def active_reals(self) -> Set[Hashable]:
        nodes = self._index.nodes
        return {nodes[i] for i in self.multiplicity_by_index}

    def n_components(self) -> int:
        return self._active - self._merges

    def excess_components(self) -> int:
        """``max(0, N_i − 1)`` — this class's contribution to M_ℓ."""
        return max(0, self._active - self._merges - 1)

    def virtual_count(self) -> int:
        """Number of virtual nodes in the class (Lemma 4.6 measures this)."""
        return sum(self.multiplicity_by_index.values())


class VirtualGraph:
    """Assignment record for all virtual nodes plus per-class projections.

    ``index`` lets callers share one :class:`CdsIndex` canonicalization
    across repeated constructions (the Remark 3.1 guess loop builds a
    fresh ``VirtualGraph`` per attempt on the same graph).
    ``layering_rng`` switches to the integral packing's random layering:
    each real node then hosts a single virtual node, at a (layer, type)
    drawn from it in one ``choices`` call, instead of all ``3L``.

    The record is on indices: per layer, the class of each virtual node
    of :attr:`hosts` (aligned with it) and whether it is assigned yet.
    The label-keyed views, :attr:`assignment` and :attr:`real_classes`,
    are built when read.
    """

    def __init__(
        self,
        graph: nx.Graph,
        layers: int,
        n_classes: int,
        index: Optional[CdsIndex] = None,
        layering_rng: Optional[random.Random] = None,
    ) -> None:
        if layers < 2 or layers % 2 != 0:
            raise GraphValidationError("layers must be an even number >= 2")
        if n_classes < 1:
            raise GraphValidationError("n_classes must be >= 1")
        self.graph = graph
        self.index = index if index is not None else CdsIndex(graph)
        self.layers = layers
        self.n_classes = n_classes
        self.classes: List[IndexedClassState] = [
            IndexedClassState(i, self.index) for i in range(n_classes)
        ]
        # hosts[layer]: the (node index, type) pair of every virtual node
        # of ``layer``, in node-then-type order, hence sorted (hosts[0] is
        # empty).
        n = self.index.n
        if layering_rng is None:
            every = [(i, vtype) for i in range(n) for vtype in (1, 2, 3)]
            self.hosts: List[List[Tuple[int, int]]] = (
                [[]] + [every] * layers
            )
        else:
            self.hosts = [[] for _ in range(layers + 1)]
            cells = layering_rng.choices(range(3 * layers), k=n)
            for i, cell in enumerate(cells):
                self.hosts[cell // 3 + 1].append((i, cell % 3 + 1))
        self._layer_classes: List[List[int]] = [
            [0] * len(hosts) for hosts in self.hosts
        ]
        self._assigned = [bytearray(len(hosts)) for hosts in self.hosts]

    @property
    def assignment(self) -> Dict[VirtualNode, int]:
        """Every assigned virtual node's class, layer by layer in
        :attr:`hosts` order (a fresh dict on each read)."""
        nodes = self.index.nodes
        return {
            VirtualNode(nodes[i], layer, vtype): class_id
            for layer in range(1, self.layers + 1)
            for (i, vtype), class_id, assigned in zip(
                self.hosts[layer], self._layer_classes[layer],
                self._assigned[layer],
            )
            if assigned
        }

    @property
    def real_classes(self) -> Dict[Hashable, Set[int]]:
        """Real node → the classes it is active in (the inverse
        projection; a fresh dict on each read)."""
        sets: Dict[Hashable, Set[int]] = {v: set() for v in self.index.nodes}
        for state in self.classes:
            for v in state.active_reals:
                sets[v].add(state.class_id)
        return sets

    def assign(self, vnode: VirtualNode, class_id: int) -> None:
        """Put ``vnode`` into class ``class_id`` and update the projection."""
        self.assign_many(
            vnode.layer,
            [(self.index.index_of[vnode.real], vnode.vtype)],
            [class_id],
        )

    def assign_many(
        self,
        layer: int,
        hosts: Sequence[Tuple[int, int]],
        class_ids: Sequence[int],
    ) -> None:
        """Put the virtual node ``(hosts[k], layer)`` into class
        ``class_ids[k]`` for every ``k``, in order, and update the
        projections (the one apply path of the recursion).

        ``hosts`` holds ``(node index, type)`` pairs, usually
        ``self.hosts[layer]``. Every node is checked — once in the batch,
        not yet assigned, class id in range — before any is applied.
        """
        if not 1 <= layer <= self.layers:
            raise GraphValidationError(f"layer {layer} out of range")
        layer_hosts = self.hosts[layer]
        whole = hosts is layer_hosts
        try:
            positions = (
                range(len(hosts)) if whole
                else [layer_hosts.index(host) for host in hosts]
            )
        except ValueError:
            raise GraphValidationError(
                f"a virtual node is not in layer {layer}"
            ) from None
        if len(class_ids) != len(positions):
            raise ValueError("hosts and class_ids differ in length")
        if not whole and len(set(positions)) != len(positions):
            raise GraphValidationError(
                "a virtual node is repeated in the batch"
            )
        assigned = self._assigned[layer]
        clash = (
            assigned.find(1) if whole
            else next((k for k in positions if assigned[k]), -1)
        )
        if clash >= 0:
            i, vtype = layer_hosts[clash]
            vnode = VirtualNode(self.index.nodes[i], layer, vtype)
            raise GraphValidationError(
                f"virtual node {vnode} already assigned"
            )
        if class_ids and not (
            0 <= min(class_ids) and max(class_ids) < self.n_classes
        ):
            bad = next(c for c in class_ids if not 0 <= c < self.n_classes)
            raise GraphValidationError(f"class id {bad} out of range")
        if whole:
            self._layer_classes[layer] = list(class_ids)
            assigned[:] = b"\x01" * len(hosts)
        else:
            record = self._layer_classes[layer]
            for k, class_id in zip(positions, class_ids):
                record[k] = class_id
                assigned[k] = 1
        # Classes are independent, so each takes its joins in one call,
        # in the batch's order.
        joins: Dict[int, List[int]] = {}
        for (i, _), class_id in zip(hosts, class_ids):
            joins.setdefault(class_id, []).append(i)
        classes = self.classes
        for class_id, indices in joins.items():
            classes[class_id].add_indices(indices)

    def class_of(self, vnode: VirtualNode) -> Optional[int]:
        return self.assignment.get(vnode)

    def excess_components(self) -> int:
        """M_ℓ = Σ_i max(0, N_i − 1) over all classes (Section 3.1)."""
        return sum(state.excess_components() for state in self.classes)

    def projected_class_sets(self) -> List[Set[Hashable]]:
        """Ψ(V_i) for each class: real nodes with ≥ 1 virtual node in it."""
        return [state.active_reals for state in self.classes]

    def classes_per_real(self) -> Dict[Hashable, int]:
        """Number of distinct classes each real node participates in.

        Bounded by 3·layers = O(log n) by construction — this is the
        O(log n) tree-membership bound of Theorem 1.1 (and by 1 under the
        integral layering).
        """
        return {v: len(s) for v, s in self.real_classes.items()}

    def virtual_counts_per_class(self) -> List[int]:
        """Virtual node count per class (Lemma 4.6: O(n log n / k))."""
        return [state.virtual_count() for state in self.classes]


def default_layer_count(n: int, factor: int = 2, minimum: int = 4) -> int:
    """L = Θ(log n), even, at least ``minimum``."""
    layers = max(minimum, factor * max(1, ceil_log2(max(2, n))))
    return layers + (layers % 2)
