"""Simulator core: messages, network, runner, model enforcement."""

import random

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs.generators import harary_graph

from repro.errors import (
    GraphValidationError,
    ModelViolationError,
    SimulationError,
)
from repro.simulator.message import Message, payload_bits
from repro.simulator.metrics import (
    AnalyticRoundCost,
    SimulationMetrics,
    _log_star,
)
from repro.simulator.network import Network
from repro.simulator.node import Context, NodeProgram
from repro.simulator.runner import Model, SyncRunner, default_message_budget, simulate
from repro.utils.rng import ensure_rng, fresh_seed


class TestPayloadBits:
    def test_small_int(self):
        assert payload_bits(0) == 1
        assert payload_bits(5) == 4

    def test_none_and_bool(self):
        assert payload_bits(None) == 1
        assert payload_bits(True) == 1

    def test_float(self):
        assert payload_bits(1.5) == 64

    def test_string(self):
        assert payload_bits("ab") == 18

    def test_tuple_sums(self):
        single = payload_bits(7)
        assert payload_bits((7, 7)) == 2 * (single + 2)

    def test_rejects_dict_payload(self):
        with pytest.raises(ModelViolationError):
            payload_bits({"a": 1})

    def test_message_build(self):
        msg = Message.build(0, (1, 2))
        assert msg.sender == 0
        assert msg.bits == payload_bits((1, 2))

    def test_message_equality_and_hash(self):
        a, b = Message.build(0, (1, 2)), Message.build(0, (1, 2))
        assert a == b
        assert hash(a) == hash(b)
        assert a != Message.build(1, (1, 2))
        assert len({a, b}) == 1  # usable in sets/dict keys


class TestNetwork:
    def test_ids_distinct(self):
        net = Network(nx.cycle_graph(10), rng=1)
        ids = [net.node_id(v) for v in net.nodes]
        assert len(set(ids)) == 10

    def test_neighbors_match_graph(self):
        g = nx.path_graph(5)
        net = Network(g, rng=1)
        assert set(net.neighbors(2)) == {1, 3}
        assert net.degree(0) == 1

    def test_rejects_disconnected(self):
        g = nx.Graph([(0, 1), (2, 3)])
        with pytest.raises(GraphValidationError):
            Network(g)

    def test_allows_disconnected_when_permitted(self):
        g = nx.Graph([(0, 1), (2, 3)])
        net = Network(g, require_connected=False)
        assert net.n == 4

    def test_diameter_cached(self):
        net = Network(nx.cycle_graph(8), rng=1)
        assert net.diameter() == 4

    def test_deterministic_ids_under_seed(self):
        g = nx.cycle_graph(6)
        n1, n2 = Network(g, rng=9), Network(g, rng=9)
        assert [n1.node_id(v) for v in n1.nodes] == [
            n2.node_id(v) for v in n2.nodes
        ]

    def test_index_view_round_trips(self):
        g = nx.path_graph(7)
        net = Network(g, rng=1)
        for v in net.nodes:
            assert net.node_at(net.index_of(v)) == v
        assert net.index_map == {v: i for i, v in enumerate(net.nodes)}

    def test_neighbor_indices_match_neighbor_labels(self):
        g = harary_graph(4, 12)
        net = Network(g, rng=2)
        for v in net.nodes:
            i = net.index_of(v)
            assert tuple(net.node_at(j) for j in net.neighbor_indices(i)) == (
                net.neighbors(v)
            )
        assert len(net.neighbor_index_table()) == net.n

    def test_node_by_id_inverts_node_id(self):
        net = Network(nx.cycle_graph(9), rng=3)
        for v in net.nodes:
            assert net.node_by_id(net.node_id(v)) == v

    def test_indexed_graph_exposed(self):
        net = Network(nx.cycle_graph(5), rng=1)
        assert net.indexed.n == 5
        assert net.indexed.m == net.m == 5

    def test_id_draw_attempt_budget_raises(self):
        """A degenerate RNG that always returns the same id must fail
        loudly instead of spinning forever."""

        class StuckRng(random.Random):
            def getrandbits(self, _bits):
                return 7

        with pytest.raises(SimulationError):
            Network(nx.path_graph(3), rng=StuckRng())


class _EchoOnce(NodeProgram):
    """Broadcasts its id once, halts after hearing anything."""

    def on_start(self, ctx):
        return ctx.node_id

    def on_round(self, ctx, inbox):
        ctx.halt(sorted(m.payload for m in inbox.values()))
        return None


class _PerNeighborSender(NodeProgram):
    def on_start(self, ctx):
        return {nb: ("x",) for nb in ctx.neighbors}

    def on_round(self, ctx, inbox):
        ctx.halt()
        return None


class _Chatterbox(NodeProgram):
    """Sends an oversized message."""

    def on_start(self, ctx):
        return tuple(range(10_000))


class _Forever(NodeProgram):
    def on_round(self, ctx, inbox):
        return 1

    def on_start(self, ctx):
        return 1


class TestRunner:
    def test_echo_outputs(self):
        net = Network(nx.cycle_graph(5), rng=2)
        result = simulate(net, lambda v: _EchoOnce())
        assert result.halted
        for v in net.nodes:
            expected = sorted(net.node_id(u) for u in net.neighbors(v))
            assert result.outputs[v] == expected

    def test_v_congest_rejects_per_neighbor(self):
        net = Network(nx.cycle_graph(4), rng=1)
        with pytest.raises(ModelViolationError):
            simulate(net, lambda v: _PerNeighborSender(), model=Model.V_CONGEST)

    def test_e_congest_allows_per_neighbor(self):
        net = Network(nx.cycle_graph(4), rng=1)
        result = simulate(net, lambda v: _PerNeighborSender(), model=Model.E_CONGEST)
        assert result.halted

    def test_message_size_enforced(self):
        net = Network(nx.cycle_graph(4), rng=1)
        with pytest.raises(ModelViolationError):
            simulate(net, lambda v: _Chatterbox())

    def test_max_rounds_raises(self):
        net = Network(nx.cycle_graph(4), rng=1)
        with pytest.raises(SimulationError):
            simulate(net, lambda v: _Forever(), max_rounds=10)

    def test_metrics_accumulate(self):
        net = Network(nx.cycle_graph(6), rng=3)
        result = simulate(net, lambda v: _EchoOnce())
        assert result.metrics.rounds >= 1
        assert result.metrics.messages == 12  # each node broadcasts once
        assert result.metrics.bits > 0

    def test_unseeded_run_draws_no_node_seeds(self, monkeypatch):
        """An unseeded inner run of a composite program (``rng=None``)
        leaves every Context to seed itself on first use; a seeded run
        still draws one seed per node from the run RNG."""
        from repro.simulator import runner
        from repro.simulator.algorithms.exchange import exchange_once

        draws = []

        def counting_fresh_seed(rng):
            draws.append(rng)
            return fresh_seed(rng)

        monkeypatch.setattr(runner, "fresh_seed", counting_fresh_seed)
        net = Network(harary_graph(6, 80), rng=1)
        exchange_once(net, {v: 1 for v in net.nodes})
        assert draws == []
        simulate(net, lambda v: _EchoOnce(), rng=5)
        assert len(draws) == 80

    def test_unseeded_runner_builds_its_rng_on_first_draw(self, monkeypatch):
        """An unseeded runner builds no OS-entropy run RNG until something
        draws from it — here a fault plan without its own seed."""
        from repro.simulator import runner
        from repro.simulator.algorithms.exchange import exchange_once
        from repro.simulator.faults import FaultPlan

        built = []

        def counting_ensure_rng(rng=None):
            built.append(rng)
            return ensure_rng(rng)

        monkeypatch.setattr(runner, "ensure_rng", counting_ensure_rng)
        net = Network(harary_graph(6, 80), rng=1)
        exchange_once(net, {v: 1 for v in net.nodes})
        assert built == []
        SyncRunner(net, fault_plan=FaultPlan(drop_probability=0.1))
        assert built == [None]

    def test_addressing_non_neighbor_rejected(self):
        class Bad(NodeProgram):
            def on_start(self, ctx):
                return {"nonexistent": 1}

        net = Network(nx.cycle_graph(4), rng=1)
        with pytest.raises(ModelViolationError):
            simulate(net, lambda v: Bad(), model=Model.E_CONGEST)


class TestMetrics:
    def test_merge_adds(self):
        a = SimulationMetrics()
        a.record_round(5, 100, 20)
        b = SimulationMetrics()
        b.record_round(3, 50, 30)
        a.merge(b)
        assert a.rounds == 2
        assert a.messages == 8
        assert a.bits == 150
        assert a.max_message_bits == 30

    def test_phase_attribution(self):
        m = SimulationMetrics()
        m.record_phase("x", 5)
        m.record_phase("x", 3)
        assert m.phase_rounds["x"] == 8

    def test_meta_rounds(self):
        m = SimulationMetrics()
        for _ in range(16):
            m.record_round(0, 0, 0)
        assert m.meta_rounds(256) == 2  # 16 rounds / log2(256)

    def test_log_star(self):
        assert _log_star(2) >= 1
        assert _log_star(65536) <= 6

    def test_analytic_costs_positive(self):
        assert AnalyticRoundCost.kutten_peleg_mst(100, 5).rounds > 5
        assert AnalyticRoundCost.thurimella_components(100, 5, 3).rounds == 3
        assert AnalyticRoundCost.ghaffari_kuhn_mincut(100, 5).rounds > 0

    def test_budget_scales_with_log_n(self):
        assert default_message_budget(2**20) > default_message_budget(4)


@settings(max_examples=30, deadline=None)
@given(
    st.one_of(
        st.integers(-(2**40), 2**40),
        st.booleans(),
        st.none(),
        st.text(max_size=8),
        st.tuples(st.integers(0, 255), st.integers(0, 255)),
    )
)
def test_payload_bits_positive_property(payload):
    assert payload_bits(payload) >= 1
