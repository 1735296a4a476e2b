#!/usr/bin/env python
"""Cross-checking the decompositions against exact connectivity.

The product computes exact vertex and edge connectivity on its kernel
(repro.fastgraph.flow): one max-flow routine, each value with a
certifying minimum cut. This example runs those exact values side by
side with the paper's decompositions, each computed through a
:class:`repro.api.GraphSession`:

* the exact λ and its Tutte/Nash-Williams bound vs. the MWU fractional
  packing size (Theorem 1.3), and
* the exact vertex connectivity and a minimum vertex cut vs. the
  Corollary 1.7 estimate.

The exact integral packing number (Roskind–Tarjan) is a test oracle
(tests/oracles/tree_packing_exact.py); E18a prints it beside the MWU
size.

Run:  python examples/exact_baselines.py
"""

import networkx as nx

from repro.api import GraphSession
from repro.graphs.connectivity import min_vertex_cut


def spanning_side() -> None:
    print("=== edge connectivity side ===")
    header = (
        f"{'family':<18} {'lambda':>6} {'Tutte':>6} "
        f"{'MWU size':>8} {'load<=1+eps':>11}"
    )
    print(header)
    print("-" * len(header))
    for spec in ("harary:6,18", "hypercube:4", "fat_cycle:3,5"):
        session = GraphSession(spec)
        envelope = session.pack_spanning(seed=5)
        print(
            f"{spec:<18} {session.exact_edge_connectivity():>6} "
            f"{envelope.payload['target']:>6} "
            f"{envelope.payload['size']:>8.2f} "
            f"{envelope.payload['max_edge_load']:>11.3f}"
        )


def vertex_side() -> None:
    print("\n=== vertex connectivity side ===")
    header = (
        f"{'family':<18} {'k exact':>7} {'lambda':>6} {'cut size':>8} "
        f"{'parts':>5} {'estimate interval':>20} {'contains k':>10}"
    )
    print(header)
    print("-" * len(header))
    for spec in ("harary:4,20", "clique_chain:4,5", "fat_cycle:3,6"):
        session = GraphSession(spec)
        k = session.exact_vertex_connectivity()
        # The cut certifies k: removing it leaves several components.
        cut = min_vertex_cut(session.graph)
        rest = session.graph.copy()
        rest.remove_nodes_from(cut)
        payload = session.connectivity(seed=7).payload
        interval = (
            f"[{payload['lower_bound']:.1f}, {payload['upper_bound']:.1f}]"
        )
        contains = payload["lower_bound"] <= k <= payload["upper_bound"]
        print(
            f"{spec:<18} {k:>7} {session.exact_edge_connectivity():>6} "
            f"{len(cut):>8} {nx.number_connected_components(rest):>5} "
            f"{interval:>20} {str(contains):>10}"
        )


def main() -> None:
    spanning_side()
    vertex_side()


if __name__ == "__main__":
    main()
