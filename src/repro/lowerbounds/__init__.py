"""Appendix G: lower-bound construction and two-party reduction.

* :mod:`repro.lowerbounds.construction` — the weighted family ``H(X,Y)``
  and its unweighted blow-up ``G(X,Y)`` (Section G.1), whose vertex-cut
  structure encodes set disjointness (Lemmas G.3/G.4).
* :mod:`repro.lowerbounds.disjointness` — set-disjointness instances and
  the Alice/Bob round-by-round simulation of Lemmas G.5/G.6, with exact
  bit accounting (``≤ 2·B·T`` bits for T simulated rounds).
"""
