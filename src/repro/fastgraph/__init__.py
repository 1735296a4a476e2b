"""Indexed edge-array graph kernel for the packing hot paths.

The paper's constructions iterate thousands of times over the *same*
graph: the MWU spanning packing (Section 5.1) recomputes an MST per
iteration, the integral packing (Section 1.2) partitions edges and
spans the parts, and the tester (Appendix E) sweeps same-class edges.
Doing that over :class:`networkx.Graph` objects keyed by
``frozenset``-of-``frozenset`` edges pays dictionary hashing and graph
reconstruction costs on every pass.

This subpackage canonicalizes a graph **once** into integer node ids
and a flat edge array, after which every hot-path operation is an array
scan:

* :class:`~repro.fastgraph.indexed.IndexedGraph` — the canonical form:
  node labels ↔ contiguous ints, edges as parallel ``u[i]``/``v[i]``
  index lists, conversion back to :mod:`networkx` only at API
  boundaries;
* :class:`~repro.fastgraph.union_find.IntUnionFind` — disjoint sets
  over ``0..n-1`` backed by flat lists (no hashing);
* :mod:`~repro.fastgraph.kruskal` — Kruskal's MST as a scan over an
  edge *order*, plus :class:`~repro.fastgraph.kruskal.NearSortedEdgeOrder`
  which keeps the MWU's cost-sorted order alive across iterations
  (costs are a monotone transform of the slowly-changing loads, so each
  re-sort is adaptive instead of from-scratch);
* :mod:`~repro.fastgraph.flow` — exact edge and vertex connectivity
  (λ and κ), each with a certifying minimum cut, by one unit-augmenting
  max-flow routine over flat arc arrays.

The index caches what depends on the graph alone: its int adjacency
and, through :meth:`IndexedGraph.diameter`, its diameter.

Trees and edge subsets are plain ``list``/``frozenset`` of edge
indices (or index pairs); packings keep their trees in that form, and
:meth:`IndexedGraph.tree_graph` builds a labeled :class:`networkx.Graph`
only when a caller reads a tree
(:attr:`repro.core.tree_packing.WeightedTree.tree`).
"""
