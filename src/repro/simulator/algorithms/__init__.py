"""Distributed building blocks implemented as simulator node programs.

These are the substrate routines the paper's constructions invoke:

* :mod:`flooding` — extremum flooding (leader election, global min/max).
* :mod:`bfs` — BFS tree construction (the ``O(D)`` preprocessing of
  Section 2 that gives every node ``n`` and a diameter estimate).
* :mod:`subgraph_flood` — extremum flooding restricted to a subgraph; the
  workhorse behind component identification (the Theorem B.2 twin) and
  in-fragment aggregation.
* :mod:`convergecast` — aggregate up / broadcast down a rooted tree.
* :mod:`boruvka` — distributed minimum spanning tree via Borůvka phases
  (our substitute for Kutten–Peleg [37]; see DESIGN.md Section 2).
* :mod:`clique` — Congested-Clique primitives on the all-to-all
  transport (one-round extremum/exchange, degree census).
"""
