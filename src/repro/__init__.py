"""repro — a reproduction of *Distributed Connectivity Decomposition*.

Censor-Hillel, Ghaffari, Kuhn (PODC 2014; arXiv:1311.5317).

The front door is the :mod:`repro.api` session layer:

>>> from repro.api import GraphSession
>>> session = GraphSession("harary:6,24")
>>> session.connectivity(seed=3).payload["lower_bound"]
>>> session.pack_cds(seed=3).payload["size"]
>>> session.broadcast(messages=24, seed=3).payload["rounds"]

One :class:`~repro.api.GraphSession` canonicalizes the graph once and
serves the whole pipeline; :class:`~repro.api.batch.JobSpec` plus
:func:`~repro.api.batch.run` fan job matrices across processes.
Underneath:

* :func:`repro.core.cds_packing.fractional_cds_packing` — fractional
  dominating tree packing of size ``Ω(k / log n)`` (Theorems 1.1/1.2).
* :func:`repro.core.spanning_packing.fractional_spanning_tree_packing` —
  fractional spanning tree packing of size ``⌈(λ−1)/2⌉(1−ε)``
  (Theorem 1.3).
* :mod:`repro.core.integral_packing` — integral (vertex-/edge-disjoint)
  variants.
* :mod:`repro.apps` — broadcast, gossip, and oblivious routing built on
  the packings (Corollaries 1.4–1.6, Appendix A).
* :mod:`repro.core.vertex_connectivity` — the ``O(log n)`` vertex
  connectivity approximation (Corollary 1.7).
* :mod:`repro.simulator` — the V-CONGEST / E-CONGEST round simulator the
  distributed algorithms run on.
* :mod:`repro.lowerbounds` — the Appendix G lower-bound construction and
  two-party simulation.

Every name is imported from the module that defines it; importing
:mod:`repro` loads nothing else.
"""

__version__ = "1.1.0"
