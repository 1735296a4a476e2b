"""Integral tree packings (Section 1.2, "Integral Tree Packings").

* :func:`integral_cds_packing` — vertex-disjoint CDS packing of size
  ``Ω(κ / log² n)`` via the random layering of [12, Theorem 1.2]: the
  construction of :mod:`repro.core.cds_packing` with
  ``PackingParameters(integral=True)``, where each *real* node hosts one
  virtual node (a random layer and type), so distinct classes are
  vertex-disjoint by construction and every dominating tree has
  weight 1; the same bridging/matching recursion connects them.
* :func:`integral_spanning_packing` — edge-disjoint spanning tree packing
  of size ``Ω(λ / log n)`` ("a considerably simpler variant" of
  Theorem 1.3): split the edges into ``Θ(λ / log n)`` random parts; each
  part is connected w.h.p. (Karger), and one spanning tree per connected
  part gives pairwise edge-disjoint spanning trees.

Both functions keep only classes/parts that verify, so outputs are always
valid integral packings; benchmark E15 records achieved vs. bound sizes.
"""

from __future__ import annotations

import math
from dataclasses import replace
from typing import List, Optional

import networkx as nx

from repro.errors import GraphValidationError, PackingConstructionError
from repro.core.cds_packing import (
    CdsPackingResult,
    PackingParameters,
    fractional_cds_packing,
)
from repro.core.tree_packing import SpanningTreePacking, WeightedTree
from repro.core.virtual_graph import CdsIndex
from repro.fastgraph import IndexedGraph, IntUnionFind
from repro.fastgraph.flow import edge_connectivity
from repro.graphs.sampling import karger_edge_index_partition
from repro.utils.rng import RngLike, ensure_rng


def integral_cds_packing(
    graph: nx.Graph,
    k: Optional[int] = None,
    params: Optional[PackingParameters] = None,
    rng: RngLike = None,
    index: Optional[CdsIndex] = None,
) -> CdsPackingResult:
    """Vertex-disjoint CDS packing of size Ω(κ / log² n).

    :func:`~repro.core.cds_packing.fractional_cds_packing` with
    ``params.integral`` set (``params`` defaults to
    ``class_factor=0.25``): ``t = class_factor · k / ⌈log₂ n⌉`` classes,
    invalid classes discarded, ``t`` halved when none verify, and with
    ``k`` unset Remark 3.1's guess loop instead of a connectivity oracle.
    """
    params = replace(
        params or PackingParameters(class_factor=0.25), integral=True
    )
    return fractional_cds_packing(graph, k, params, rng, index=index)


def integral_spanning_packing(
    graph: nx.Graph,
    lam: Optional[int] = None,
    parts_factor: float = 0.5,
    rng: RngLike = None,
    indexed: Optional[IndexedGraph] = None,
) -> SpanningTreePacking:
    """Edge-disjoint spanning tree packing of size Ω(λ / log n).

    Splits edges into ``max(1, parts_factor·λ/ln n)`` random parts and
    takes a spanning tree of each connected part. Parts are edge-disjoint,
    hence so are the trees (all carry weight 1 — an integral packing).

    Runs on the :mod:`repro.fastgraph` kernel: the partition is drawn
    over edge indices (same draw sequence as the graph-object form),
    connectivity is one :class:`IntUnionFind` sweep per part, and the
    BFS spanning trees mirror the traversal
    :func:`~repro.core.tree_packing.spanning_tree_of` performs, so the
    resulting trees are identical to the pre-kernel construction. They
    reach the packing in index form (edge ids).
    """
    if graph.number_of_nodes() < 2 or not nx.is_connected(graph):
        raise GraphValidationError("graph must be connected with >= 2 nodes")
    rand = ensure_rng(rng)
    if indexed is None:
        indexed = IndexedGraph.from_networkx(graph)
    if lam is None:
        lam, _ = edge_connectivity(indexed)
    n = graph.number_of_nodes()
    parts = max(1, int(parts_factor * lam / math.log(max(n, 2))))
    assignment = karger_edge_index_partition(indexed.m, parts, rand)
    buckets: List[List[int]] = [[] for _ in range(parts)]
    for i, part_id in enumerate(assignment):
        buckets[part_id].append(i)
    trees = []
    uf = IntUnionFind(indexed.n)
    for index, bucket in enumerate(buckets):
        if bucket and indexed.is_connected_via(bucket, uf):
            trees.append(
                WeightedTree.from_index(
                    indexed, range(indexed.n), indexed.bfs_tree_edges(bucket),
                    1.0, index,
                )
            )
    if not trees:
        raise PackingConstructionError(
            "no connected part; λ too small for the requested split"
        )
    # Each tree spans (a BFS over a connected part) and weighs 1, so
    # edge-disjointness is the one constraint left: it caps every edge
    # load at 1.
    packing = SpanningTreePacking(graph, trees, indexed=indexed)
    if not packing.is_edge_disjoint():
        raise PackingConstructionError(
            "internal error: edge partition produced overlapping trees"
        )
    return packing
