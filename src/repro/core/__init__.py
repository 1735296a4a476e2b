"""The paper's contribution: connectivity decompositions into tree packings.

* :mod:`repro.core.cds_packing` — Section 3 / Appendix C: the fractional
  CDS (dominating tree) packing, centralized driver.
* :mod:`repro.core.cds_packing_distributed` — Appendix B: the distributed
  driver on the V-CONGEST simulator.
* :mod:`repro.core.spanning_packing` — Section 5: the fractional spanning
  tree packing (MWU over MSTs + Karger sampling).
* :mod:`repro.core.integral_packing` — the integral variants of §1.2.
* :mod:`repro.core.packing_tester` — Appendix E tester.
* :mod:`repro.core.vertex_connectivity` — Corollary 1.7 approximation.
* :mod:`repro.core.tree_packing` — packing containers and verification.
* :mod:`repro.core.connector_paths` — Section 4.1 analysis toolbox.
* :mod:`repro.core.st_numbering` — §1.4.1's exact k = 2 case: st-numbering
  and the Itai–Rodeh two vertex independent trees.
* :mod:`repro.core.integral_packing_distributed` — the distributed
  integral spanning variant (Karger parts + Lemma 5.1 MSTs).
"""
