"""Exact connectivity oracles and domination predicates.

* Exact vertex and edge connectivity, and a minimum vertex cut, for a
  labeled graph: each canonicalizes it and asks the kernel
  (:mod:`repro.fastgraph.flow`). A caller that already holds an
  :class:`~repro.fastgraph.IndexedGraph` asks the kernel directly.
* Domination, CDS, dominating-tree and spanning-tree predicates
  (Section 2).

Theorem 1.3 sizes every spanning packing from λ, so the spanning
packings (fractional, integral, and their distributed drivers) call the
λ oracle whenever ``lam`` is unset. ``estimate exact=true`` adds κ and λ
to Corollary 1.7's interval. The CDS packings never call an oracle:
Remark 3.1's guess loop sizes them. The tests and benchmarks use these
oracles to measure achieved packing sizes against true connectivity.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Set

import networkx as nx

from repro.errors import GraphValidationError
from repro.fastgraph import IndexedGraph, flow


def vertex_connectivity(graph: nx.Graph) -> int:
    """Exact vertex connectivity ``k`` of ``graph``.

    By convention, the complete graph K_n has connectivity ``n - 1`` and a
    disconnected graph has connectivity 0.
    """
    return flow.vertex_connectivity(IndexedGraph.from_networkx(graph))[0]


def edge_connectivity(graph: nx.Graph) -> int:
    """Exact edge connectivity ``λ`` of ``graph`` (0 if disconnected)."""
    return flow.edge_connectivity(IndexedGraph.from_networkx(graph))[0]


def min_vertex_cut(graph: nx.Graph) -> Set[Hashable]:
    """A minimum vertex cut of ``graph``: the kernel's certifying cut.

    Where several minimum cuts exist, this is the one the kernel's last
    bound-lowering flow found. Raises :class:`GraphValidationError` for
    complete graphs, which have no vertex cut. Completeness is read off
    κ = n − 1, so self-loops, which the kernel ignores, do not count.
    """
    indexed = IndexedGraph.from_networkx(graph)
    kappa, cut = flow.vertex_connectivity(indexed)
    if kappa == graph.number_of_nodes() - 1:
        raise GraphValidationError("complete graphs have no vertex cut")
    return {indexed.nodes[x] for x in cut}


def is_dominating_set(graph: nx.Graph, candidate: Iterable[Hashable]) -> bool:
    """Whether every node outside ``candidate`` has a neighbor inside it.

    This is the paper's Section 2 definition (note it does not require
    nodes *inside* the set to have neighbors in it).
    """
    members = set(candidate)
    if not members:
        return graph.number_of_nodes() == 0
    if not members <= set(graph.nodes()):
        raise GraphValidationError("candidate contains nodes not in graph")
    for node in graph.nodes():
        if node in members:
            continue
        if not any(neighbor in members for neighbor in graph.neighbors(node)):
            return False
    return True


def is_connected_dominating_set(
    graph: nx.Graph, candidate: Iterable[Hashable]
) -> bool:
    """Whether ``candidate`` is a CDS: dominating and inducing a connected
    subgraph (Section 2)."""
    members = set(candidate)
    if not members:
        return False
    if not is_dominating_set(graph, members):
        return False
    induced = graph.subgraph(members)
    return nx.is_connected(induced)


def is_dominating_tree(graph: nx.Graph, tree: nx.Graph) -> bool:
    """Whether ``tree`` is a dominating tree of ``graph``.

    Per footnote 1 of the paper: ``tree`` must be a tree using only nodes
    and edges of ``graph``, and its node set must dominate ``graph``.
    """
    if tree.number_of_nodes() == 0:
        return False
    if not set(tree.nodes()) <= set(graph.nodes()):
        return False
    for u, v in tree.edges():
        if not graph.has_edge(u, v):
            return False
    if not nx.is_tree(tree):
        return False
    return is_dominating_set(graph, tree.nodes())


def is_spanning_tree(graph: nx.Graph, tree: nx.Graph) -> bool:
    """Whether ``tree`` is a spanning tree of ``graph``."""
    if set(tree.nodes()) != set(graph.nodes()):
        return False
    for u, v in tree.edges():
        if not graph.has_edge(u, v):
            return False
    return nx.is_tree(tree)
