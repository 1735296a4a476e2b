"""Tree packing containers and full validity verification (Section 2).

A *fractional dominating tree packing* assigns weights ``x_τ ∈ [0, 1]`` to
dominating trees so that every vertex carries total weight at most 1; its
*size* is ``Σ x_τ``. A *fractional spanning tree packing* is the same with
spanning trees and per-edge capacity. These containers hold the trees,
compute sizes/loads, and :meth:`verify` every defining constraint, raising
:class:`~repro.errors.PackingValidationError` on the first violation.
"""

from __future__ import annotations

import math
from typing import (
    Dict, FrozenSet, Hashable, List, Optional, Sequence, Tuple, Union,
)

import networkx as nx

from repro.errors import PackingValidationError
from repro.fastgraph.indexed import IndexedGraph
from repro.graphs.connectivity import is_dominating_tree, is_spanning_tree

_TOLERANCE = 1e-9

#: A tree edge in index form: an edge id, or an ``(a, b)`` index pair.
TreeEdge = Union[int, Tuple[int, int]]


class WeightedTree:
    """One tree of a packing: the tree, its weight, and its class id.

    The constructions hand a tree over in *index form*
    (:meth:`from_index`): the :class:`~repro.fastgraph.indexed.IndexedGraph` it
    was built on, its node indices, and its edges — edge ids where the
    construction has them, else ``(a, b)`` index pairs. The labelled
    :attr:`tree` is built on first read and cached. A tree given as a
    graph (``WeightedTree(tree=graph, weight=…, class_id=…)``) keeps that
    graph and gets its index form once: against the graph of the packing
    that reads it, or, read on its own, against itself. The index form is
    taken once, so a later edit of :attr:`tree` is not seen by loads,
    broadcasts or :meth:`diameter`.
    """

    __slots__ = ("weight", "class_id", "_tree", "_indexed", "_nodes",
                 "_edges")

    def __init__(self, tree: nx.Graph, weight: float, class_id: int) -> None:
        if not 0.0 <= weight <= 1.0 + _TOLERANCE:
            raise PackingValidationError(
                f"tree weight {weight} outside [0, 1]"
            )
        self.weight = weight
        self.class_id = class_id
        self._tree: Optional[nx.Graph] = tree
        self._indexed: Optional[IndexedGraph] = None
        self._nodes: Sequence[int] = ()
        self._edges: Sequence[TreeEdge] = ()

    @classmethod
    def from_index(
        cls,
        indexed: IndexedGraph,
        nodes: Sequence[int],
        edges: Sequence[TreeEdge],
        weight: float,
        class_id: int,
    ) -> "WeightedTree":
        """A tree in index form; ``edges`` are all edge ids or all index
        pairs, and ``nodes`` and ``edges`` keep the order :attr:`tree`
        reports them in."""
        tree = cls(None, weight, class_id)
        tree._indexed = indexed
        tree._nodes = nodes
        tree._edges = edges
        return tree

    @property
    def tree(self) -> nx.Graph:
        """The labelled tree (built from the index form on first read)."""
        if self._tree is None:
            self._tree = self._indexed.tree_graph(self._edges, self._nodes)
        return self._tree

    def _on(self, indexed: IndexedGraph) -> "WeightedTree":
        """This tree with its index form on ``indexed``, derived once from
        the labelled tree when it was given as a graph or built on
        another index."""
        if self._indexed is indexed:
            return self
        tree = self.tree
        index_of = indexed.index_of
        try:
            nodes = [index_of[x] for x in tree]
        except KeyError as exc:
            raise PackingValidationError(
                f"tree (class {self.class_id}) has node {exc.args[0]!r}, "
                "which the graph lacks"
            ) from None
        edge_index = indexed.edge_index()
        try:
            edges = [
                edge_index[index_of[a], index_of[b]] for a, b in tree.edges()
            ]
        except KeyError:
            raise PackingValidationError(
                f"tree (class {self.class_id}) has an edge the graph lacks"
            ) from None
        self._indexed = indexed
        self._nodes = nodes
        self._edges = edges
        return self

    def _form(self) -> "WeightedTree":
        """This tree with an index form, its own graph's if it has none."""
        if self._indexed is None:
            self._on(IndexedGraph.from_networkx(self._tree))
        return self

    def _pairs(self) -> Sequence[Tuple[int, int]]:
        """The edges as ``(a, b)`` index pairs, in order."""
        edges = self._edges
        if edges and type(edges[0]) is not tuple:
            u = self._indexed.u
            v = self._indexed.v
            return [(u[i], v[i]) for i in edges]
        return edges

    def _edge_ids(self) -> Sequence[int]:
        """The edges as edge ids, in order."""
        edges = self._edges
        if edges and type(edges[0]) is tuple:
            edge_index = self._indexed.edge_index()
            return [edge_index[e] for e in edges]
        return edges

    def _adjacency(self) -> Dict[int, List[int]]:
        """Each tree node's tree neighbors, by index."""
        adj: Dict[int, List[int]] = {i: [] for i in self._nodes}
        for a, b in self._pairs():
            adj[a].append(b)
            adj[b].append(a)
        return adj

    @property
    def nodes(self) -> FrozenSet[Hashable]:
        labels = self._form()._indexed.nodes
        return frozenset(labels[i] for i in self._nodes)

    @property
    def edges(self) -> FrozenSet[FrozenSet[Hashable]]:
        labels = self._form()._indexed.nodes
        return frozenset(
            frozenset((labels[a], labels[b])) for a, b in self._pairs()
        )

    def diameter(self) -> int:
        """The tree's diameter, by two BFS sweeps over the index form.

        On a tree the node farthest from any start ends a longest path,
        so the second sweep's depth is exact (``nx.diameter`` runs a BFS
        from every node). A disconnected graph raises
        :class:`networkx.NetworkXError`, as ``nx.diameter`` does.
        """
        nodes = self._form()._nodes
        if len(nodes) <= 1:
            return 0
        adj = self._adjacency()

        def sweep(source: int) -> Tuple[int, int]:
            seen = {source}
            frontier = [source]
            far, depth = source, -1
            while frontier:
                depth += 1
                far = frontier[0]
                grown = []
                for a in frontier:
                    for b in adj[a]:
                        if b not in seen:
                            seen.add(b)
                            grown.append(b)
                frontier = grown
            if len(seen) != len(adj):
                raise nx.NetworkXError(
                    "Found infinite path length because the graph is not "
                    "connected"
                )
            return far, depth

        far, _ = sweep(nodes[0])
        return sweep(far)[1]


class _BasePacking:
    """Shared machinery for both packing kinds.

    Loads, counts and disjointness read the trees' index forms on
    :attr:`indexed`; :meth:`verify` reads the labelled trees, as the
    independent check.
    """

    def __init__(
        self,
        graph: nx.Graph,
        trees: List[WeightedTree],
        indexed: Optional[IndexedGraph] = None,
    ) -> None:
        self.graph = graph
        self.trees = list(trees)
        self._indexed = indexed

    @property
    def indexed(self) -> IndexedGraph:
        """The index of :attr:`graph` the trees are read on (the one the
        construction built them on, else canonicalized on first use)."""
        if self._indexed is None:
            self._indexed = IndexedGraph.from_networkx(self.graph)
        return self._indexed

    def _index_forms(self) -> List[WeightedTree]:
        """The trees, each with its index form on :attr:`indexed`."""
        indexed = self.indexed
        return [wt._on(indexed) for wt in self.trees]

    @property
    def size(self) -> float:
        """Total weight — the packing size κ of Section 2, summed exactly
        (``math.fsum``), so nine trees of weight 1/9 make 1.0."""
        return math.fsum(t.weight for t in self.trees)

    def __len__(self) -> int:
        return len(self.trees)

    def __iter__(self):
        return iter(self.trees)

    def max_diameter(self) -> int:
        """Largest tree diameter (Theorem 1.1 bounds this by Õ(n/k))."""
        return max((t.diameter() for t in self.trees), default=0)


class DominatingTreePacking(_BasePacking):
    """A fractional dominating tree packing (Section 2).

    Constraints verified by :meth:`verify`:

    * every tree is a dominating tree of ``graph`` (footnote 1);
    * every weight lies in ``[0, 1]``;
    * every vertex carries total weight ≤ 1.
    """

    def _node_sums(self, weighted: bool) -> list:
        """Per node index: the trees' weights (summed in tree order, so
        every float is fixed) or their count."""
        sums = [0.0 if weighted else 0] * self.indexed.n
        for wt in self._index_forms():
            add = wt.weight if weighted else 1
            for i in wt._nodes:
                sums[i] += add
        return sums

    def node_loads(self) -> Dict[Hashable, float]:
        """Total tree weight carried by each vertex."""
        return dict(zip(self.indexed.nodes, self._node_sums(True)))

    def trees_per_node(self) -> Dict[Hashable, int]:
        """How many trees contain each vertex (Theorem 1.1: O(log n))."""
        return dict(zip(self.indexed.nodes, self._node_sums(False)))

    def max_node_load(self) -> float:
        return max(self._node_sums(True), default=0.0)

    def verify(self) -> None:
        """Raise :class:`PackingValidationError` unless all constraints hold."""
        for index, wt in enumerate(self.trees):
            if not is_dominating_tree(self.graph, wt.tree):
                raise PackingValidationError(
                    f"tree #{index} (class {wt.class_id}) is not a "
                    "dominating tree of the graph"
                )
        load = self.max_node_load()
        if load > 1.0 + _TOLERANCE:
            raise PackingValidationError(
                f"vertex capacity violated: max node load {load} > 1"
            )

    def is_vertex_disjoint(self) -> bool:
        """Whether the trees are pairwise vertex-disjoint (integral packing)."""
        seen = bytearray(self.indexed.n)
        for wt in self._index_forms():
            for i in wt._nodes:
                if seen[i]:
                    return False
                seen[i] = 1
        return True


class SpanningTreePacking(_BasePacking):
    """A fractional spanning tree packing (Section 2).

    Constraints verified by :meth:`verify`:

    * every tree is a spanning tree of ``graph``;
    * every weight lies in ``[0, 1]``;
    * every edge carries total weight ≤ 1.
    """

    def _edge_sums(self, weighted: bool) -> list:
        """Per edge id: the trees' weights (summed in tree order) or
        their count."""
        sums = [0.0 if weighted else 0] * self.indexed.m
        for wt in self._index_forms():
            add = wt.weight if weighted else 1
            for i in wt._edge_ids():
                sums[i] += add
        return sums

    def _by_edge(self, sums: list) -> Dict[FrozenSet[Hashable], float]:
        """``sums`` keyed by edge label set, in ``graph.edges()`` order."""
        indexed = self.indexed
        return {
            frozenset(indexed.endpoints(i)): value
            for i, value in enumerate(sums)
        }

    def edge_loads(self) -> Dict[FrozenSet[Hashable], float]:
        return self._by_edge(self._edge_sums(True))

    def trees_per_edge(self) -> Dict[FrozenSet[Hashable], int]:
        """How many trees use each edge (Theorem 1.3: O(log³ n))."""
        return self._by_edge(self._edge_sums(False))

    def max_edge_load(self) -> float:
        return max(self._edge_sums(True), default=0.0)

    def verify(self) -> None:
        """Raise :class:`PackingValidationError` unless all constraints hold."""
        for index, wt in enumerate(self.trees):
            if not is_spanning_tree(self.graph, wt.tree):
                raise PackingValidationError(
                    f"tree #{index} (class {wt.class_id}) is not a spanning "
                    "tree of the graph"
                )
        load = self.max_edge_load()
        if load > 1.0 + _TOLERANCE:
            raise PackingValidationError(
                f"edge capacity violated: max edge load {load} > 1"
            )

    def is_edge_disjoint(self) -> bool:
        """Whether the trees are pairwise edge-disjoint (integral packing)."""
        seen = bytearray(self.indexed.m)
        for wt in self._index_forms():
            for i in wt._edge_ids():
                if seen[i]:
                    return False
                seen[i] = 1
        return True


def spanning_tree_of(graph: nx.Graph, nodes=None) -> nx.Graph:
    """A BFS spanning tree of ``graph`` (or of ``graph[nodes]``).

    Helper used to turn a connected CDS into a dominating tree and a
    connected edge-part into a spanning tree.
    """
    sub = graph if nodes is None else graph.subgraph(nodes)
    if sub.number_of_nodes() == 0:
        raise PackingValidationError("cannot build a tree on an empty node set")
    root = next(iter(sub.nodes()))
    tree = nx.bfs_tree(sub, root).to_undirected()
    result = nx.Graph()
    result.add_nodes_from(sub.nodes())
    result.add_edges_from(tree.edges())
    if not nx.is_tree(result):
        raise PackingValidationError("node set does not induce a connected graph")
    return result
