"""Graph substrate: data structures, generators, and connectivity oracles.

This subpackage provides everything the decomposition algorithms assume about
graphs: the disjoint-set forests of Appendix C, the graph families used by
the experiments, exact connectivity oracles and minimum vertex cuts (for
ground truth), Karger's random edge partition (Section 5.2), and
Thurimella-style sparse connectivity certificates.
"""
