"""Tests for the round-trace recorder (repro.simulator.tracing)."""

from __future__ import annotations

import networkx as nx
import pytest

from repro.graphs.generators import harary_graph
from repro.simulator.algorithms.bfs import BfsProgram
from repro.simulator.algorithms.flooding import ExtremumFloodProgram
from repro.simulator.network import Network
from repro.simulator.runner import simulate
from repro.simulator.tracing import RoundTrace, TraceEvent, Tracer
from repro.simulator.transport import Model


def _traced_flood(graph, values, seed=1):
    network = Network(graph, rng=seed)
    tracer = Tracer()
    result = simulate(
        network,
        tracer.wrap(lambda v: ExtremumFloodProgram(values[v])),
        model=Model.V_CONGEST,
    )
    return tracer.trace, result


class TestTracer:
    def test_every_node_has_round_zero_event(self):
        graph = nx.path_graph(5)
        trace, _ = _traced_flood(graph, {v: v for v in graph.nodes()})
        round0 = trace.events_in_round(0)
        assert {e.node for e in round0} == set(graph.nodes())
        assert all(e.sent for e in round0)  # flood starts by broadcasting

    def test_transparent_to_the_protocol(self):
        graph = harary_graph(4, 12)
        values = {v: (v * 5) % 12 for v in graph.nodes()}
        network = Network(graph, rng=1)
        plain = simulate(
            network, lambda v: ExtremumFloodProgram(values[v])
        )
        tracer = Tracer()
        traced = simulate(
            network, tracer.wrap(lambda v: ExtremumFloodProgram(values[v]))
        )
        assert plain.outputs == traced.outputs
        assert plain.metrics.rounds == traced.metrics.rounds

    def test_bfs_wave_schedule(self):
        """The trace pins the *schedule*: a node at distance d first
        transmits in round d (its discovery round)."""
        graph = nx.path_graph(6)
        network = Network(graph, rng=1)
        tracer = Tracer()
        simulate(
            network,
            tracer.wrap(lambda v: BfsProgram(is_root=(v == 0))),
            model=Model.V_CONGEST,
        )
        # Root announces at round 0; node d first sends at round d.
        assert tracer.trace.first_send_round(0) == 0
        for node in range(1, 6):
            assert tracer.trace.first_send_round(node) == node

    def test_activity_profile_decays_for_flood(self):
        """Min-flood activity is front-loaded: the first round has full
        participation, later rounds only improvements."""
        graph = harary_graph(4, 16)
        trace, _ = _traced_flood(graph, {v: v for v in graph.nodes()})
        profile = trace.activity_profile()
        assert profile[0] == 16
        assert profile[max(profile)] <= profile[0]

    def test_render_caps_output(self):
        graph = nx.path_graph(4)
        trace, _ = _traced_flood(graph, {v: v for v in graph.nodes()})
        text = trace.render(limit=3)
        assert "more events" in text
        assert text.splitlines()[0].startswith("round")

    def test_long_payload_summaries_truncated(self):
        event = TraceEvent(
            round_no=1,
            node="v",
            sent=True,
            payload_summary="x" * 100,
            halted=False,
        )
        trace = RoundTrace(events=[event])
        assert "x" * 100 in trace.render()  # render itself doesn't cut

        from repro.simulator.tracing import _summarize

        assert len(_summarize("y" * 100)) <= 40

    def test_halt_round_recorded(self):
        """A program that halts at a known round shows up in the trace."""
        from repro.simulator.faults import RetransmittingFloodProgram

        graph = nx.path_graph(4)
        network = Network(graph, rng=1)
        tracer = Tracer()
        simulate(
            network,
            tracer.wrap(
                lambda v: RetransmittingFloodProgram(v, horizon=5)
            ),
        )
        for node in graph.nodes():
            assert tracer.trace.halt_round(node) == 5

    def test_silent_node_has_no_first_send(self):
        class Mute(ExtremumFloodProgram):
            def on_start(self, ctx):
                ctx.output = self._best
                return None

        graph = nx.path_graph(3)
        network = Network(graph, rng=1)
        tracer = Tracer()
        simulate(network, tracer.wrap(lambda v: Mute(0)))
        assert tracer.trace.first_send_round(1) is None

    def test_rounds_counts_max(self):
        graph = nx.path_graph(8)
        trace, result = _traced_flood(graph, {v: v for v in graph.nodes()})
        assert trace.rounds() >= 7  # information must cross the path
