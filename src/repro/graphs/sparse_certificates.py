"""Sparse connectivity certificates (Thurimella [49] / Nagamochi–Ibaraki).

A *sparse certificate* for k-edge-connectivity is a subgraph with at most
``k·n`` edges that preserves all edge connectivity values up to ``k``. The
classical construction takes the union of ``k`` successively edge-disjoint
spanning forests (Nagamochi–Ibaraki; Thurimella gave the sublinear
distributed version cited by the paper's Theorem B.2 machinery).

The decomposition algorithms do not need certificates, and no product
path or benchmark builds one; they are part of the substrate the paper
builds on ([49] is the basis of the component-identification
subroutine), and the tests check that a certificate keeps every edge
connectivity value up to ``k``.
"""

from __future__ import annotations

from typing import List

import networkx as nx

from repro.errors import GraphValidationError
from repro.graphs.union_find import UnionFind


def spanning_forest_decomposition(graph: nx.Graph, count: int) -> List[nx.Graph]:
    """Greedily peel ``count`` edge-disjoint spanning forests off ``graph``.

    Forest ``i`` is a maximal spanning forest of the edges not used by
    forests ``0..i-1``. Standard union-find sweep; O(count · m · α(n)).
    """
    if count < 1:
        raise GraphValidationError("count must be >= 1")
    remaining = list(graph.edges())
    forests: List[nx.Graph] = []
    for _ in range(count):
        forest = nx.Graph()
        forest.add_nodes_from(graph.nodes())
        uf = UnionFind(graph.nodes())
        leftover = []
        for u, v in remaining:
            if uf.union(u, v):
                forest.add_edge(u, v)
            else:
                leftover.append((u, v))
        forests.append(forest)
        remaining = leftover
        if not remaining:
            break
    return forests


def sparse_connectivity_certificate(graph: nx.Graph, k: int) -> nx.Graph:
    """A subgraph with ≤ k·(n−1) edges preserving edge connectivity up to k.

    The union of ``k`` edge-disjoint spanning forests: any cut of value
    ``c ≤ k`` in ``graph`` has value exactly ``c`` in the certificate
    (Nagamochi–Ibaraki). Nodes are preserved.
    """
    if k < 1:
        raise GraphValidationError("k must be >= 1")
    forests = spanning_forest_decomposition(graph, k)
    certificate = nx.Graph()
    certificate.add_nodes_from(graph.nodes())
    for forest in forests:
        certificate.add_edges_from(forest.edges())
    return certificate
