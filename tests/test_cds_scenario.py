"""The registered ``cds_packing`` scenario program: differential checks.

Satellite of the CDS kernel PR: the Appendix B distributed construction
is runnable through ``GraphSession.simulate`` (``repro simulate``) on
both the V-CONGEST and Congested-Clique transports. This suite pins:

* **transport differential** — same seed, same packing/outputs on both
  transports (decisions are graph-local by construction); the clique
  only inflates delivery accounting;
* **distributed vs centralized** — the scenario outputs agree with a
  direct :func:`distributed_cds_packing` run and every class they name
  passes the *centralized* networkx CDS oracle;
* **trace determinism** — two traced runs of the same seed produce the
  identical transcript, event for event.
"""

from __future__ import annotations

import pytest

from repro.api import GraphSession
from repro.core.cds_packing_distributed import distributed_cds_packing
from repro.errors import GraphValidationError
from repro.graphs.connectivity import is_connected_dominating_set
from repro.graphs.generators import harary_graph
from repro.simulator.faults import FaultPlan
from repro.simulator.network import Network
from repro.simulator.scenario import ScenarioRun, resolve_program
from repro.simulator.transport import Model
from repro.utils.rng import ensure_rng

GRAPH_SPEC = "harary:4,16"
SEED = 5


def _run(model=None, trace=False, seed=SEED, **plans) -> ScenarioRun:
    return GraphSession(GRAPH_SPEC).simulate(
        program="cds_packing", model=model, seed=seed, trace=trace, **plans
    ).raw


@pytest.fixture(scope="module")
def vcongest_run():
    return _run(trace=True)


@pytest.fixture(scope="module")
def clique_run():
    return _run(model=Model.CONGESTED_CLIQUE, trace=True)


class TestRegistration:
    def test_program_registered(self):
        program = resolve_program("cds_packing")
        assert program.driver is not None
        assert program.build is None
        assert program.model is Model.V_CONGEST

    def test_fault_plan_rejected(self):
        with pytest.raises(GraphValidationError):
            _run(fault_plan=FaultPlan(drop_probability=0.1))


class TestTransportDifferential:
    def test_same_packing_on_both_transports(self, vcongest_run, clique_run):
        """Graph-local decisions: the clique transport changes delivery
        fan-out, never the constructed packing."""
        assert vcongest_run.result.outputs == clique_run.result.outputs
        assert vcongest_run.rounds == clique_run.rounds

    def test_clique_inflates_delivery_accounting(
        self, vcongest_run, clique_run
    ):
        v = vcongest_run.result.metrics
        c = clique_run.result.metrics
        assert c.messages > v.messages  # broadcasts reach all n-1 nodes
        assert c.bits > v.bits

    def test_outputs_nonempty_class_memberships(self, vcongest_run):
        outputs = vcongest_run.result.outputs
        assert len(outputs) == 16
        named = set()
        for classes in outputs.values():
            assert classes == tuple(sorted(classes))
            named.update(classes)
        assert named, "no node reported membership in any valid class"


class TestAgainstCentralized:
    def test_scenario_matches_direct_driver_and_oracle(self):
        """Replaying the scenario's seed path through the core driver
        reproduces its outputs exactly, and the classes the nodes report
        are CDSs per the centralized oracle."""
        run = _run()
        graph = harary_graph(4, 16)
        rand = ensure_rng(SEED)
        network = Network(graph, rng=rand)
        k_guess = max(1, min(d for _, d in graph.degree()))
        dist = distributed_cds_packing(
            graph, k_guess, rng=rand, network=network
        )
        vg = dist.result.virtual_graph
        valid = set(dist.result.valid_classes)
        expected = {
            v: tuple(sorted(vg.real_classes[v] & valid))
            for v in network.nodes
        }
        assert run.result.outputs == expected
        assert run.result.metrics.rounds == dist.meta_rounds
        # Centralized verification of the distributed object: every valid
        # class projects onto a connected dominating set, and the packing
        # passes the full nx verify (domination, trees, vertex loads).
        for class_id in valid:
            members = vg.classes[class_id].active_reals
            assert is_connected_dominating_set(graph, members)
        dist.packing.verify()


class TestTraceDeterminism:
    def test_transcript_identical_across_runs(self, vcongest_run):
        again = _run(trace=True)
        assert vcongest_run.trace is not None
        assert vcongest_run.trace.events == again.trace.events

    def test_transcript_recorded_for_clique(self, clique_run):
        assert clique_run.trace is not None
        assert clique_run.trace.events
