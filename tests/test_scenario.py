"""Scenario layer: declarative runs, the program registry, resilience app."""

from __future__ import annotations

import networkx as nx
import pytest

from repro.apps.resilience import (
    cut_drop_schedule,
    flood_loss_sweep,
    flood_partition_test,
)
from repro.errors import GraphValidationError
from repro.graphs.generators import harary_graph
from repro.simulator.faults import FaultPlan
from repro.simulator.network import Network
from repro.simulator.runner import Model
from repro.simulator.scenario import (
    PROGRAM_REGISTRY,
    Scenario,
    ScenarioProgram,
    available_programs,
    register_program,
    resolve_program,
    run_scenario,
)


class TestRegistry:
    def test_stock_programs_present(self):
        names = {p.name for p in available_programs()}
        assert {
            "flood-min",
            "flood-max",
            "retransmit-flood",
            "bfs",
            "mis",
            "clique-min",
        } <= names

    def test_unknown_program_rejected(self):
        with pytest.raises(GraphValidationError):
            resolve_program("definitely-not-registered")

    def test_register_makes_program_runnable(self):
        from repro.simulator.algorithms.flooding import ExtremumFloodProgram

        program = ScenarioProgram(
            name="test-const-flood",
            description="flood of constant values (test only)",
            build=lambda net: (lambda v: ExtremumFloodProgram(7)),
        )
        register_program(program)
        try:
            run = Scenario(topology="harary:4,10", program="test-const-flood").run()
            assert all(
                run.result.output_of(v) == 7 for v in run.network.nodes
            )
        finally:
            del PROGRAM_REGISTRY["test-const-flood"]


class TestScenarioRun:
    def test_topology_spec_string(self):
        run = Scenario(topology="harary:4,12", program="flood-min", seed=3).run()
        assert run.network.n == 12
        true_min = min(run.network.node_id(v) for v in run.network.nodes)
        assert all(
            run.result.output_of(v) == true_min for v in run.network.nodes
        )

    def test_topology_graph_and_builder(self):
        graph = nx.cycle_graph(8)
        by_graph = Scenario(topology=graph, program="flood-min", seed=1).run()
        by_builder = Scenario(
            topology=lambda: nx.cycle_graph(8), program="flood-min", seed=1
        ).run()
        assert by_graph.result.outputs == by_builder.result.outputs

    def test_seed_reproducibility(self):
        runs = [
            Scenario(topology="regular:4,20,2", program="mis", seed=5).run()
            for _ in range(2)
        ]
        assert runs[0].result.outputs == runs[1].result.outputs
        assert runs[0].rounds == runs[1].rounds

    def test_trace_sink(self):
        run = Scenario(
            topology="harary:4,10", program="flood-min", seed=2, trace=True
        ).run()
        assert run.trace is not None
        assert {e.node for e in run.trace.events_in_round(0)} == set(
            run.network.nodes
        )

    def test_summary_fields(self):
        run = Scenario(topology="harary:4,10", program="flood-min", seed=2).run()
        summary = run.summary()
        assert summary["n"] == 10
        assert summary["rounds"] == run.rounds
        assert summary["rounds_per_sec"] > 0
        assert run.rounds_per_sec == pytest.approx(
            summary["rounds_per_sec"]
        )

    def test_model_override_and_clique(self):
        run = Scenario(
            topology="harary:4,12", program="clique-min", seed=4
        ).run()
        assert run.rounds == 1
        assert run.result.halted

    def test_engine_override_matches_default(self, round_loop):
        scenario = Scenario(
            topology="harary:4,12", program="flood-min", seed=9
        )
        indexed = scenario.run()
        with round_loop("reference"):
            reference = scenario.run()
        assert indexed.result.outputs == reference.result.outputs
        assert indexed.rounds == reference.rounds

    def test_fault_plan_rng_derived_from_seed(self):
        def run_once():
            return Scenario(
                topology="harary:4,14",
                program="retransmit-flood",
                seed=6,
                fault_plan=FaultPlan(drop_probability=0.4),
            ).run()

        first, second = run_once(), run_once()
        assert first.result.outputs == second.result.outputs
        assert first.result.metrics.messages == second.result.metrics.messages

    def test_with_overrides_sweep_helper(self):
        base = Scenario(topology="harary:4,10", program="flood-min", seed=1)
        bigger = base.with_overrides(topology="harary:4,20")
        assert bigger.seed == 1
        assert run_scenario(bigger).network.n == 20

    def test_bad_topology_rejected(self):
        with pytest.raises(GraphValidationError):
            Scenario(topology=123, program="flood-min").run()


class TestResilienceApp:
    def test_zero_loss_completes(self):
        graph = harary_graph(4, 12)
        (report,) = flood_loss_sweep(graph, [0.0], seed=3)
        assert report.completed
        assert report.coverage == 1.0

    def test_total_loss_fails(self):
        graph = harary_graph(4, 12)
        (report,) = flood_loss_sweep(graph, [1.0], seed=3)
        assert not report.completed
        # Nobody but the holder of the minimum can know it.
        assert report.coverage == pytest.approx(1 / 12)

    def test_sweep_is_monotone_in_reports(self):
        graph = harary_graph(4, 12)
        reports = flood_loss_sweep(graph, [0.0, 1.0], seed=3)
        assert reports[0].coverage >= reports[-1].coverage

    def test_cut_schedule_covers_both_directions(self):
        graph = nx.path_graph(6)
        schedule = cut_drop_schedule(graph, side={0, 1, 2}, rounds=[1, 2])
        assert schedule == {
            (2, 3): frozenset({1, 2}),
            (3, 2): frozenset({1, 2}),
        }

    def test_cut_schedule_rejects_unknown_nodes(self):
        with pytest.raises(GraphValidationError):
            cut_drop_schedule(nx.path_graph(4), side={99}, rounds=[1])

    def test_blockade_then_recovery(self):
        """A temporary cut blockade delays but cannot stop the flood."""
        graph = nx.path_graph(8)
        report = flood_partition_test(
            graph, side={0, 1, 2, 3}, blocked_rounds=range(1, 4), seed=2
        )
        assert report.completed  # horizon outlives the blockade

    def test_permanent_blockade_partitions_knowledge(self):
        graph = nx.path_graph(8)
        report = flood_partition_test(
            graph,
            side={0, 1, 2, 3},
            blocked_rounds=range(1, 200),
            horizon=30,
            seed=2,
        )
        assert not report.completed
        # Exactly one side of the cut learned the minimum.
        assert 0 < report.coverage < 1
        assert report.coverage in (pytest.approx(0.5), pytest.approx(4 / 8))

    def test_deterministic_without_seed_dependence(self):
        """Scheduled drops involve no randomness: two different seeds
        still lose exactly the same deliveries (coverage identical)."""
        graph = nx.path_graph(8)
        a = flood_partition_test(
            graph, side={0, 1, 2, 3}, blocked_rounds=range(1, 200),
            horizon=30, seed=2,
        )
        b = flood_partition_test(
            graph, side={0, 1, 2, 3}, blocked_rounds=range(1, 200),
            horizon=30, seed=77,
        )
        assert a.coverage == b.coverage
        assert a.rounds == b.rounds
