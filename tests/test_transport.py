"""Transport layer: model semantics, budgets, and the congested clique."""

from __future__ import annotations

import networkx as nx
import pytest

from repro.errors import ModelViolationError
from repro.graphs.generators import harary_graph
from repro.simulator.algorithms.clique import (
    clique_degree_census,
    clique_exchange,
    clique_extremum,
)
from repro.simulator.algorithms.flooding import flood_extremum
from repro.simulator.network import Network
from repro.simulator.node import NodeProgram
from repro.simulator.runner import SyncRunner, simulate
from repro.simulator.transport import (
    CliqueTransport,
    ECongestTransport,
    Model,
    Transport,
    VCongestTransport,
    build_transport,
    default_message_budget,
)


class TestBuildTransport:
    def test_model_mapping(self):
        net = Network(nx.cycle_graph(6), rng=1)
        assert isinstance(
            build_transport(Model.V_CONGEST, net), VCongestTransport
        )
        assert isinstance(
            build_transport(Model.E_CONGEST, net), ECongestTransport
        )
        assert isinstance(
            build_transport(Model.CONGESTED_CLIQUE, net), CliqueTransport
        )

    def test_budget_defaults_to_log_n(self):
        net = Network(nx.cycle_graph(6), rng=1)
        transport = build_transport(Model.V_CONGEST, net)
        assert transport.bits_per_message == default_message_budget(6)

    def test_explicit_budget_respected(self):
        net = Network(nx.cycle_graph(6), rng=1)
        transport = build_transport(Model.E_CONGEST, net, bits_per_message=7)
        assert transport.bits_per_message == 7

    def test_runner_accepts_custom_transport(self):
        """The transport parameter is the plug point for new models."""

        class HalfDuplex(ECongestTransport):
            """Deliver only to higher-index neighbors."""

            name = "half-duplex"

            def _build_fanout(self, network):
                return [
                    tuple(r for r in row if r > i)
                    for i, row in enumerate(network.neighbor_index_table())
                ]

        net = Network(nx.path_graph(4), rng=1)
        runner = SyncRunner(net, transport=HalfDuplex(net))

        class Shout(NodeProgram):
            def on_start(self, ctx):
                return ctx.node_id

            def on_round(self, ctx, inbox):
                ctx.halt(sorted(m.payload for m in inbox.values()))
                return None

        result = runner.run(lambda v: Shout())
        # Node 0 has no lower-index neighbor speaking to it.
        assert result.output_of(0) == []
        assert result.output_of(1) == [net.node_id(0)]


class TestCliqueTransportSemantics:
    def test_fanout_is_everyone_else(self):
        net = Network(nx.path_graph(5), rng=1)
        transport = CliqueTransport(net)
        for i in range(5):
            assert transport.fanout(i) == tuple(
                j for j in range(5) if j != i
            )

    def test_broadcast_reaches_non_neighbors(self):
        # A path graph has diameter n-1 under CONGEST; the clique floods
        # the minimum in a single round.
        graph = nx.path_graph(9)
        net = Network(graph, rng=3)
        values = {v: v + 100 for v in graph.nodes()}
        values[8] = 1
        result = clique_extremum(net, values)
        assert result.halted
        assert result.metrics.rounds == 1
        assert all(result.output_of(v) == 1 for v in graph.nodes())
        # n(n-1) messages: everyone told everyone.
        assert result.metrics.messages == 9 * 8

    def test_congest_needs_diameter_rounds_for_same_task(self):
        graph = nx.path_graph(9)
        net = Network(graph, rng=3)
        values = {v: v + 100 for v in graph.nodes()}
        values[8] = 1
        congest = flood_extremum(net, values)
        assert congest.metrics.rounds >= 8  # the Θ(D) contrast

    def test_addressing_any_node_allowed(self):
        graph = nx.path_graph(6)
        net = Network(graph, rng=2)

        class SendToFar(NodeProgram):
            """Node 0 messages node 5 directly — a non-edge of the input."""

            def __init__(self, node):
                self._node = node

            def on_start(self, ctx):
                if self._node == 0:
                    return {5: ("hi",)}
                return None

            def on_round(self, ctx, inbox):
                ctx.halt(
                    {s: m.payload for s, m in inbox.items()} or None
                )
                return None

        result = simulate(
            net, lambda v: SendToFar(v), model=Model.CONGESTED_CLIQUE
        )
        assert result.output_of(5) == {0: ("hi",)}

    def test_self_addressing_rejected(self):
        net = Network(nx.path_graph(4), rng=2)

        class Narcissist(NodeProgram):
            def on_start(self, ctx):
                return {ctx.node: 1}

        with pytest.raises(ModelViolationError):
            simulate(net, lambda v: Narcissist(), model=Model.CONGESTED_CLIQUE)

    def test_unknown_receiver_rejected(self):
        net = Network(nx.path_graph(4), rng=2)

        class Wild(NodeProgram):
            def on_start(self, ctx):
                return {"nowhere": 1}

        with pytest.raises(ModelViolationError):
            simulate(net, lambda v: Wild(), model=Model.CONGESTED_CLIQUE)

    def test_budget_still_enforced(self):
        net = Network(nx.path_graph(4), rng=2)

        class Chatterbox(NodeProgram):
            def on_start(self, ctx):
                return tuple(range(10_000))

        with pytest.raises(ModelViolationError):
            simulate(net, lambda v: Chatterbox(), model=Model.CONGESTED_CLIQUE)


class TestCliquePrimitives:
    def test_exchange_learns_all_payloads(self):
        graph = harary_graph(4, 10)
        net = Network(graph, rng=5)
        payloads = {v: net.node_id(v) % 17 for v in graph.nodes()}
        heard, result = clique_exchange(net, payloads)
        assert result.metrics.rounds == 1
        for v in graph.nodes():
            assert set(heard[v]) == set(graph.nodes()) - {v}
            for u, payload in heard[v].items():
                assert payload == payloads[u]

    def test_degree_census(self):
        graph = nx.path_graph(7)
        net = Network(graph, rng=4)
        census, result = clique_degree_census(net)
        assert result.metrics.rounds == 1
        expected = {v: graph.degree(v) for v in graph.nodes()}
        for v in graph.nodes():
            assert census[v] == expected

    def test_silent_nodes_stay_silent(self):
        net = Network(nx.path_graph(5), rng=4)
        heard, _ = clique_exchange(net, {0: 42})
        assert heard[3] == {0: 42}
        assert heard[0] == {}


class TestVCongestUnchanged:
    """The existing model semantics survive the transport extraction."""

    def test_dict_still_rejected(self):
        net = Network(nx.cycle_graph(4), rng=1)

        class PerNeighbor(NodeProgram):
            def on_start(self, ctx):
                return {nb: 1 for nb in ctx.neighbors}

        with pytest.raises(ModelViolationError):
            simulate(net, lambda v: PerNeighbor(), model=Model.V_CONGEST)

    def test_non_neighbor_still_rejected_in_e_congest(self):
        net = Network(nx.cycle_graph(6), rng=1)

        class Wild(NodeProgram):
            def on_start(self, ctx):
                return {3: 1}  # node 3 is not a neighbor of node 0

        with pytest.raises(ModelViolationError):
            simulate(net, lambda v: Wild(), model=Model.E_CONGEST)
