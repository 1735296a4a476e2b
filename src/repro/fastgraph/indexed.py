"""Canonical integer-indexed graph with a flat edge array.

Built once per construction from a :class:`networkx.Graph`; every
hot-path pass afterwards works on ``u[i]``/``v[i]`` int lists and edge
indices. Edge index ``i`` corresponds to the ``i``-th edge reported by
``graph.edges()`` — the same order :func:`networkx.minimum_spanning_tree`
uses as its stable tie-break, which is what lets the kernel reproduce
networkx results bit-for-bit (see :mod:`repro.fastgraph.kruskal`).
"""

from __future__ import annotations

from collections import deque
from typing import Dict, FrozenSet, Hashable, Iterable, List, Optional, Sequence, Tuple

import networkx as nx

from repro.fastgraph.kruskal import kruskal_from_order
from repro.fastgraph.union_find import IntUnionFind

Edge = FrozenSet[Hashable]


class IndexedGraph:
    """A graph canonicalized to integer node ids and an edge array.

    Attributes:
        nodes: original node labels, position = integer id;
        index_of: label → integer id;
        u, v: parallel lists, edge ``i`` joins ``u[i]`` and ``v[i]``;
        n, m: node and edge counts.

    An index is immutable once built: a caller whose graph changes
    re-canonicalizes with :meth:`from_networkx`. So what is computed
    from it alone (:meth:`neighbors`, :meth:`diameter`,
    :meth:`edge_index`) is cached on it.
    """

    __slots__ = ("nodes", "index_of", "u", "v", "n", "m", "_neighbors",
                 "_diameter", "_edge_index")

    def __init__(
        self,
        nodes: Sequence[Hashable],
        edges: Iterable[Tuple[int, int]],
    ) -> None:
        self.nodes: List[Hashable] = list(nodes)
        self.index_of: Dict[Hashable, int] = {
            node: i for i, node in enumerate(self.nodes)
        }
        if len(self.index_of) != len(self.nodes):
            raise ValueError("duplicate node labels")
        self.n = len(self.nodes)
        self.u: List[int] = []
        self.v: List[int] = []
        for a, b in edges:
            self.u.append(a)
            self.v.append(b)
        self.m = len(self.u)
        self._neighbors: Optional[List[List[int]]] = None
        self._diameter: Optional[int] = None
        self._edge_index: Optional[Dict[Tuple[int, int], int]] = None

    @classmethod
    def from_networkx(cls, graph: nx.Graph) -> "IndexedGraph":
        """Canonicalize ``graph``; edge ``i`` is the ``i``-th of ``graph.edges()``."""
        nodes = list(graph.nodes())
        index_of = {node: i for i, node in enumerate(nodes)}
        edges = [(index_of[a], index_of[b]) for a, b in graph.edges()]
        return cls(nodes, edges)

    # ------------------------------------------------------------------
    # Edge/adjacency views
    # ------------------------------------------------------------------

    def endpoints(self, i: int) -> Tuple[Hashable, Hashable]:
        """Original labels of edge ``i``'s endpoints."""
        return self.nodes[self.u[i]], self.nodes[self.v[i]]

    def neighbors(self) -> List[List[int]]:
        """Adjacency as int lists (cached; insertion order = edge order)."""
        if self._neighbors is None:
            adj: List[List[int]] = [[] for _ in range(self.n)]
            for a, b in zip(self.u, self.v):
                adj[a].append(b)
                if b != a:
                    adj[b].append(a)
            self._neighbors = adj
        return self._neighbors

    def edge_index(self) -> Dict[Tuple[int, int], int]:
        """Edge id of each index pair, both orientations (cached)."""
        if self._edge_index is None:
            index: Dict[Tuple[int, int], int] = {}
            for i, (a, b) in enumerate(zip(self.u, self.v)):
                index[a, b] = index[b, a] = i
            self._edge_index = index
        return self._edge_index

    def diameter(self) -> int:
        """Exact diameter (cached): a BFS from every node over
        :meth:`neighbors`, each stopping as soon as it has seen every node.

        A disconnected graph raises :class:`networkx.NetworkXError`, as
        :func:`networkx.diameter` does.
        """
        if self._diameter is None:
            adj = self.neighbors()
            seen = [-1] * self.n

            def eccentricity(source: int) -> int:
                seen[source] = source
                unseen = self.n - 1
                frontier = [source]
                depth = 0
                while unseen:
                    if not frontier:
                        raise nx.NetworkXError(
                            "Found infinite path length because the graph "
                            "is not connected"
                        )
                    depth += 1
                    grown = []
                    for a in frontier:
                        for b in adj[a]:
                            if seen[b] != source:
                                seen[b] = source
                                unseen -= 1
                                if not unseen:
                                    return depth
                                grown.append(b)
                    frontier = grown
                return depth

            self._diameter = max(map(eccentricity, range(self.n)), default=0)
        return self._diameter

    def edges_to_node_sets(self, edge_ids: Iterable[int]) -> FrozenSet[Edge]:
        """Edge-index set → the legacy ``frozenset``-of-``frozenset`` form."""
        nodes = self.nodes
        u = self.u
        v = self.v
        return frozenset(
            frozenset((nodes[u[i]], nodes[v[i]])) for i in edge_ids
        )

    # ------------------------------------------------------------------
    # Subset structure
    # ------------------------------------------------------------------

    def nx_edge_order(self, edge_ids: Iterable[int]) -> List[int]:
        """Reorder ``edge_ids`` as ``networkx`` would report them.

        A ``networkx.Graph`` holding all our nodes plus exactly these
        edges (inserted in the given order) reports ``graph.edges()`` in
        node-major adjacency order, which is the stable tie-break order
        of its Kruskal. This reproduces that order on indices, so
        subgraphs built index-side stay bit-compatible with subgraphs
        built graph-side.
        """
        adj: List[List[Tuple[int, int]]] = [[] for _ in range(self.n)]
        u = self.u
        v = self.v
        for i in edge_ids:
            a, b = u[i], v[i]
            adj[a].append((b, i))
            if b != a:
                adj[b].append((a, i))
        order: List[int] = []
        reported = [False] * self.n
        for a in range(self.n):
            for b, i in adj[a]:
                if not reported[b]:
                    order.append(i)
            reported[a] = True
        return order

    def is_connected_via(
        self, edge_ids: Optional[Iterable[int]] = None, uf: Optional[IntUnionFind] = None
    ) -> bool:
        """Whether the given edges (default: all) connect all ``n`` nodes:
        a Kruskal scan over them (which resets ``uf``) accepts ``n − 1``."""
        if self.n <= 1:
            return True
        if edge_ids is None:
            edge_ids = range(self.m)
        tree = kruskal_from_order(edge_ids, self.u, self.v, self.n, uf)
        return len(tree) == self.n - 1

    def bfs_tree_edges(self, edge_ids: Sequence[int], root: int = 0) -> List[int]:
        """Edge indices of a BFS spanning tree over the given edge subset.

        Visits neighbors in edge-subset insertion order from ``root`` —
        the same traversal :func:`networkx.bfs_tree` performs on a graph
        built by inserting these edges in the same order, so the
        resulting tree matches the legacy
        :func:`repro.core.tree_packing.spanning_tree_of` edge for edge.
        Only the nodes reachable from ``root`` are spanned; callers
        check connectivity first.
        """
        adj: List[List[Tuple[int, int]]] = [[] for _ in range(self.n)]
        u = self.u
        v = self.v
        for i in edge_ids:
            a, b = u[i], v[i]
            adj[a].append((b, i))
            if b != a:
                adj[b].append((a, i))
        tree: List[int] = []
        visited = [False] * self.n
        visited[root] = True
        queue = deque([root])
        while queue:
            a = queue.popleft()
            for b, i in adj[a]:
                if not visited[b]:
                    visited[b] = True
                    tree.append(i)
                    queue.append(b)
        return tree

    # ------------------------------------------------------------------
    # API boundary: back to networkx
    # ------------------------------------------------------------------

    def tree_graph(
        self,
        edges: Iterable,
        nodes: Optional[Iterable[int]] = None,
    ) -> nx.Graph:
        """A labeled :class:`networkx.Graph` on ``nodes`` (default: all)
        with these edges, each an edge id or an ``(a, b)`` index pair.

        Nodes and then edges go in in the order given, so the graph
        reports ``nodes()`` and ``edges()`` as one built by the public
        API in that order would. Packings materialize one graph per tree
        on first read, so this writes the adjacency structure directly
        when the networkx internals look like plain dicts (they have
        since 2.0) and falls back to the public API otherwise. Both
        paths produce byte-equivalent graphs (no node/edge data, default
        factories).
        """
        graph = nx.Graph()
        labels = self.nodes
        u = self.u
        v = self.v
        members = labels if nodes is None else [labels[i] for i in nodes]
        pairs = (
            (labels[e[0]], labels[e[1]]) if type(e) is tuple
            else (labels[u[e]], labels[v[e]])
            for e in edges
        )
        node_attrs = getattr(graph, "_node", None)
        adjacency = getattr(graph, "_adj", None)
        if type(node_attrs) is dict and type(adjacency) is dict:
            for label in members:
                node_attrs[label] = {}
                adjacency[label] = {}
            for a, b in pairs:
                data: Dict = {}
                adjacency[a][b] = data
                adjacency[b][a] = data
        else:  # pragma: no cover - exotic networkx configuration
            graph.add_nodes_from(members)
            graph.add_edges_from(pairs)
        return graph

    def to_networkx(self) -> nx.Graph:
        """The full graph back as a labeled :class:`networkx.Graph`."""
        return self.tree_graph(range(self.m))
