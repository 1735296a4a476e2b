"""Graph substrate: data structures, generators, and connectivity oracles.

This subpackage provides everything the decomposition algorithms assume about
graphs: the disjoint-set forests of Appendix C, the graph families used by
the experiments, exact connectivity oracles and minimum vertex cuts (for
ground truth), Karger's random edge partition (Section 5.2), and
Thurimella-style sparse connectivity certificates.
"""

from repro.graphs.union_find import UnionFind
from repro.graphs.generators import (
    clique_chain,
    fat_cycle,
    gnp_connected,
    harary_graph,
    hypercube,
    random_k_connected,
    random_regular_connected,
    torus_grid,
)
from repro.graphs.connectivity import (
    edge_connectivity,
    is_connected_dominating_set,
    is_dominating_set,
    min_vertex_cut,
    vertex_connectivity,
)
from repro.graphs.sampling import karger_edge_partition, sample_vertices
from repro.graphs.sparse_certificates import sparse_connectivity_certificate

__all__ = [
    "UnionFind",
    "clique_chain",
    "fat_cycle",
    "gnp_connected",
    "harary_graph",
    "hypercube",
    "random_k_connected",
    "random_regular_connected",
    "torus_grid",
    "edge_connectivity",
    "is_connected_dominating_set",
    "is_dominating_set",
    "min_vertex_cut",
    "vertex_connectivity",
    "karger_edge_partition",
    "sample_vertices",
    "sparse_connectivity_certificate",
]
