"""Applications of the decompositions (Section 1.3, Appendix A).

* :mod:`repro.apps.broadcast` — broadcast by routing each message along a
  random tree of a packing (Corollaries 1.4/1.5), with V-CONGEST and
  E-CONGEST token-level schedulers.
* :mod:`repro.apps.gossip` — the gossiping / k-token dissemination of
  Appendix A (Corollary A.1).
* :mod:`repro.apps.oblivious_routing` — congestion measurements for the
  oblivious routing claims of Corollary 1.6.
* :mod:`repro.apps.network_coding` — RLNC gossip under the CONGEST bit
  budget (the Section 1 network-coding comparison).
* :mod:`repro.apps.point_to_point` — the [24] Θ(√n) point-to-point
  oblivious-routing witness on the grid.
* :mod:`repro.apps.resilience` — flood and gossip resilience under
  i.i.d. loss, adversarial cut blockades and channel corruption.
"""
