"""Synchronous message-passing simulator for V-CONGEST and E-CONGEST.

The paper's two models (Section 1.2):

* **V-CONGEST** — per round, each node sends *one* ``O(log n)``-bit message
  to *all* of its neighbors (local broadcast). Congestion lives on vertices.
* **E-CONGEST** (the classical CONGEST model) — per round, one
  ``O(log n)``-bit message may cross each direction of each edge
  (per-neighbor messages allowed). Congestion lives on edges.

:class:`~repro.simulator.runner.SyncRunner` executes
:class:`~repro.simulator.node.NodeProgram` instances in lock-step rounds,
*enforcing* the model constraints (raising
:class:`~repro.errors.ModelViolationError` on violations) and accounting
rounds, messages, and bits in
:class:`~repro.simulator.metrics.SimulationMetrics`.

Composite algorithms (BFS + convergecast, Borůvka MST, the CDS-packing
layers of Appendix B) chain multiple runs; metrics are additive via
:meth:`SimulationMetrics.merge`.
"""
