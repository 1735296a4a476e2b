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

from repro.simulator.message import Message, payload_bits
from repro.simulator.metrics import SimulationMetrics
from repro.simulator.network import Network
from repro.simulator.node import Context, NodeProgram
from repro.simulator.runner import (
    Model,
    SimulationResult,
    SyncRunner,
    simulate,
)
from repro.simulator.transport import (
    CliqueTransport,
    ECongestTransport,
    Transport,
    VCongestTransport,
    build_transport,
)
from repro.simulator.faults import FaultPlan, simulate_with_faults
from repro.simulator.scenario import (
    Scenario,
    ScenarioProgram,
    ScenarioRun,
    register_program,
    run_scenario,
)
from repro.simulator.tracing import RoundTrace, Tracer

__all__ = [
    "FaultPlan",
    "simulate_with_faults",
    "Tracer",
    "RoundTrace",
    "Message",
    "payload_bits",
    "SimulationMetrics",
    "Network",
    "Context",
    "NodeProgram",
    "Model",
    "SimulationResult",
    "SyncRunner",
    "simulate",
    "Transport",
    "VCongestTransport",
    "ECongestTransport",
    "CliqueTransport",
    "build_transport",
    "Scenario",
    "ScenarioProgram",
    "ScenarioRun",
    "register_program",
    "run_scenario",
]
