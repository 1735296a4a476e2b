"""Failure-injection tests: crash-stop and message loss in the simulator."""

from __future__ import annotations

import networkx as nx
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import GraphValidationError
from repro.graphs.generators import harary_graph
from repro.simulator.adversary import AdversaryPlan
from repro.simulator.algorithms.flooding import flood_extremum
from repro.simulator.faults import FaultPlan, RetransmittingFloodProgram
from repro.simulator.network import Network
from repro.simulator.node import NodeProgram
from repro.simulator.runner import SyncRunner, simulate
from repro.simulator.transport import (
    CliqueTransport,
    Model,
    VCongestTransport,
)


class _ShiftTransport(VCongestTransport):
    """A broadcast reaches only the node ``shift`` places ahead."""

    def __init__(self, network, shift):
        self.shift = shift
        super().__init__(network)

    def _build_fanout(self, network):
        return [((i + self.shift) % network.n,) for i in range(network.n)]


class _HearOnce(NodeProgram):
    """Broadcasts its own label, then halts holding what it heard."""

    def __init__(self, node):
        self._node = node

    def on_start(self, ctx):
        return self._node

    def on_round(self, ctx, inbox):
        ctx.halt(output=sorted(m.payload for m in inbox.values()))
        return None


class TestFaultPlan:
    def test_defaults_are_benign(self):
        plan = FaultPlan()
        assert not plan.is_crashed("v", 10)
        assert not any(
            plan.drops("u", "v", round_no) for round_no in range(1, 20)
        )

    def test_crash_schedule(self):
        plan = FaultPlan(crash_rounds={"v": 3})
        assert not plan.is_crashed("v", 2)
        assert plan.is_crashed("v", 3)
        assert plan.is_crashed("v", 99)
        assert not plan.is_crashed("u", 99)

    def test_rejects_bad_probability(self):
        with pytest.raises(GraphValidationError):
            FaultPlan(drop_probability=1.5)

    def test_rejects_negative_crash_round(self):
        with pytest.raises(GraphValidationError):
            FaultPlan(crash_rounds={"v": -1})

    def test_drop_decisions_reproducible(self):
        first = FaultPlan(drop_probability=0.5, rng=7)
        second = FaultPlan(drop_probability=0.5, rng=7)
        queries = [("u", "v", r) for r in range(1, 26)] + [
            ("v", "u", r) for r in range(1, 26)
        ]
        assert [first.drops(*q) for q in queries] == [
            second.drops(*q) for q in queries
        ]

    def test_certain_drop(self):
        plan = FaultPlan(drop_probability=1.0, rng=0)
        assert all(plan.drops("u", "v", r) for r in range(1, 11))

    def test_drop_schedule_normalized_and_validated(self):
        plan = FaultPlan(drop_schedule={("a", "b"): [1, 2, 2]})
        assert plan.drop_schedule[("a", "b")] == frozenset({1, 2})
        with pytest.raises(GraphValidationError):
            FaultPlan(drop_schedule={("a", "b"): [-1]})
        with pytest.raises(GraphValidationError):
            FaultPlan(drop_schedule={("a",): [1]})

    def test_drops_honors_schedule_without_rng(self):
        plan = FaultPlan(drop_schedule={("u", "v"): {3}}, rng=0)
        assert plan.drops("u", "v", 3)
        assert not plan.drops("u", "v", 2)
        assert not plan.drops("v", "u", 3)  # directed

    def test_scheduled_drops_do_not_consume_randomness(self):
        """Scheduled hits are decided before the i.i.d. coin, so adding a
        schedule does not shift the random drop stream."""
        with_schedule = FaultPlan(
            drop_probability=0.5, drop_schedule={("u", "v"): {1}}, rng=7
        )
        without = FaultPlan(drop_probability=0.5, rng=7)
        # First decision hits the schedule (no draw)…
        assert with_schedule.drops("u", "v", 1)
        # …so the following random decisions line up with a fresh plan.
        a = [with_schedule.drops("x", "y", r) for r in range(30)]
        b = [without.drops("x", "y", r) for r in range(30)]
        assert a == b

    def test_reseed_rebinds_decisions(self):
        plan = FaultPlan(drop_probability=0.5, rng=1)
        first = [plan.drops("u", "v", r) for r in range(1, 21)]
        plan.reseed(1)
        assert [plan.drops("u", "v", r) for r in range(1, 21)] == first
        plan.reseed(2)
        assert [plan.drops("u", "v", r) for r in range(1, 21)] != first

    def test_plan_naming_unknown_nodes_rejected(self):
        """A crash/drop entry for a node outside the network would be a
        silent no-op; the runner rejects it loudly instead."""
        network = Network(nx.path_graph(4), rng=1)
        with pytest.raises(GraphValidationError):
            SyncRunner(
                network,
                fault_plan=FaultPlan(crash_rounds={99: 1}),
            ).run(
                lambda v: RetransmittingFloodProgram(v, horizon=4),
            )
        with pytest.raises(GraphValidationError):
            SyncRunner(
                network,
                fault_plan=FaultPlan(drop_schedule={(0, 77): {1}}),
            ).run(
                lambda v: RetransmittingFloodProgram(v, horizon=4),
            )

    def test_bare_runner_rejects_non_edge_schedule(self):
        """Off the clique a scheduled non-edge never carries traffic, so
        the 'faulty' run would silently be fault-free."""
        network = Network(nx.path_graph(4), rng=1)
        plan = FaultPlan(drop_schedule={(0, 3): {1}})
        with pytest.raises(GraphValidationError, match="non-edges"):
            SyncRunner(network, fault_plan=plan)

    def test_non_edge_schedule_binds_on_the_clique(self):
        """The congested clique links every ordered pair."""
        network = Network(nx.path_graph(4), rng=1)
        plan = FaultPlan(drop_schedule={(0, 3): {1}})
        assert plan.bind(network, CliqueTransport(network)) is plan
        runner = SyncRunner(
            network, model=Model.CONGESTED_CLIQUE, fault_plan=plan
        )
        assert runner.fault_plan is plan

    def test_plans_bind_to_a_custom_transports_links(self):
        """A plan is checked against the links the runner's transport
        delivers along, not against the input graph's edges."""
        network = Network(nx.cycle_graph(8), rng=1)
        a, b, c = network.nodes[0], network.nodes[1], network.nodes[2]

        def run(plan):
            return SyncRunner(
                network,
                transport=_ShiftTransport(network, 2),
                fault_plan=plan,
                rng=2,
            ).run(_HearOnce)

        # (a, c) is no graph edge but the only link into c: dropping it
        # in round 1 leaves c with an empty inbox.
        assert run(FaultPlan()).outputs[c] == [a]
        assert run(FaultPlan(drop_schedule={(a, c): {1}})).outputs[c] == []
        # (a, b) is a graph edge the shift never delivers along.
        with pytest.raises(GraphValidationError, match="non-edges"):
            run(FaultPlan(drop_schedule={(a, b): {1}}))
        with pytest.raises(GraphValidationError, match="non-edges"):
            AdversaryPlan(corruption_probability=1.0, targets={(a, b)}).bind(
                network, _ShiftTransport(network, 2)
            )
        # A budgeted adversary's slot universe is the shift's links.
        plan = AdversaryPlan(corruption_probability=0.5, budget=3, rng=1)
        plan.bind(network, _ShiftTransport(network, 2))
        assert plan._universe == [
            (network.nodes[i], network.nodes[(i + 2) % 8]) for i in range(8)
        ]

    def test_reference_engine_rejects_drop_schedule(self, round_loop):
        """The legacy loop cannot honor per-edge schedules; it must fail
        loudly rather than simulate a fault-free run."""
        from repro.errors import SimulationError

        network = Network(nx.path_graph(4), rng=1)
        with round_loop("reference"):
            with pytest.raises(SimulationError):
                SyncRunner(
                    network,
                    fault_plan=FaultPlan(drop_schedule={(0, 1): {1}}),
                ).run(
                    lambda v: RetransmittingFloodProgram(v, horizon=4),
                )


class TestDropOrderIndependence:
    """Random drops are a pure function of (seed, directed edge, round):
    the decision for one delivery cannot depend on which — or how many —
    other deliveries were decided before it. This is the contract that
    makes fault sweeps reproducible across loops, whatever order each
    one evaluates deliveries in."""

    EDGES = [("a", "b"), ("b", "a"), ("c", "d"), (0, 1), (1, 0), (2, 7)]

    def test_decisions_independent_of_query_order(self):
        forward = FaultPlan(drop_probability=0.5, rng=7)
        backward = FaultPlan(drop_probability=0.5, rng=7)
        queries = [(e, r) for e in self.EDGES for r in range(1, 21)]
        want = {
            (e, r): forward.drops(e[0], e[1], r) for e, r in queries
        }
        for e, r in reversed(queries):
            assert backward.drops(e[0], e[1], r) == want[(e, r)]

    def test_decisions_repeatable_and_stateless(self):
        plan = FaultPlan(drop_probability=0.5, rng=3)
        first = plan.drops("u", "v", 5)
        # Interleave unrelated queries; the original answer must hold.
        for r in range(40):
            plan.drops("x", "y", r)
        assert plan.drops("u", "v", 5) == first

    def test_distinct_edges_and_rounds_get_distinct_coins(self):
        plan = FaultPlan(drop_probability=0.5, rng=11)
        per_edge = [
            [plan.drops(u, v, r) for r in range(1, 65)]
            for u, v in self.EDGES
        ]
        # With 64 fair coins per edge, two identical columns would mean
        # the per-edge streams collapsed onto one another.
        assert len({tuple(row) for row in per_edge}) == len(self.EDGES)
        assert any(any(row) for row in per_edge)
        assert any(not all(row) for row in per_edge)

    def test_drop_rate_tracks_probability(self):
        plan = FaultPlan(drop_probability=0.25, rng=13)
        decisions = [
            plan.drops(u, v, r)
            for u in range(20)
            for v in range(20)
            if u != v
            for r in range(1, 6)
        ]
        rate = sum(decisions) / len(decisions)
        assert 0.2 < rate < 0.3

    def test_explicit_int_seed_is_stable_across_plan_objects(self):
        a = FaultPlan(drop_probability=0.5, rng=42)
        b = FaultPlan(drop_probability=0.5, rng=42)
        for u, v in self.EDGES:
            for r in range(1, 20):
                assert a.drops(u, v, r) == b.drops(u, v, r)

    def test_engines_agree_under_iid_loss(self, round_loop):
        """The end-to-end payoff: the same seeded faulty run is
        bit-identical whether the round loop (under its default rule or
        with the column step forced) or the reference loop iterates the
        deliveries."""
        graph = harary_graph(4, 12)

        def run():
            network = Network(graph, rng=2)
            return SyncRunner(
                network,
                rng=5,
                fault_plan=FaultPlan(drop_probability=0.4, rng=9),
            ).run(
                lambda v: RetransmittingFloodProgram(
                    network.node_id(v), horizon=16
                ),
            )

        outcomes = {}
        for loop in ("reference", "default", "column"):
            with round_loop(loop):
                outcomes[loop] = run()
        for loop in ("default", "column"):
            assert outcomes[loop].outputs == outcomes["reference"].outputs
            assert (
                outcomes[loop].metrics.messages
                == outcomes["reference"].metrics.messages
            )


class TestDropPurityProperties:
    """Hypothesis pins the purity contract over arbitrary edge/round
    universes: a drop decision is a function of (seed, directed edge,
    round) alone — query order, interleaving, and plan object identity
    are invisible to it — the contract every loop's delivery order
    leans on."""

    edges = st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=30),
            st.integers(min_value=0, max_value=30),
        ).filter(lambda e: e[0] != e[1]),
        min_size=1,
        max_size=12,
        unique=True,
    )

    @settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        edges=edges,
        seed=st.integers(min_value=0, max_value=2**32),
        order=st.randoms(use_true_random=False),
    )
    def test_drops_invariant_under_delivery_order(self, edges, seed, order):
        baseline = FaultPlan(drop_probability=0.5, rng=seed)
        probe = FaultPlan(drop_probability=0.5, rng=seed)
        queries = [(e, r) for e in edges for r in range(1, 9)]
        want = {
            (e, r): baseline.drops(e[0], e[1], r) for e, r in queries
        }
        order.shuffle(queries)
        for e, r in queries:
            assert probe.drops(e[0], e[1], r) == want[(e, r)]

    @settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(min_value=0, max_value=2**32))
    def test_reseed_same_int_restores_decisions(self, seed):
        plan = FaultPlan(drop_probability=0.5, rng=seed)
        queries = [("u", "v", r) for r in range(1, 17)] + [
            ("v", "w", r) for r in range(1, 17)
        ]
        first = [plan.drops(*q) for q in queries]
        plan.reseed(seed)
        assert [plan.drops(*q) for q in queries] == first

    @settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        seed=st.integers(min_value=0, max_value=2**32),
        round_no=st.integers(min_value=0, max_value=10_000),
    )
    def test_fresh_plan_objects_agree(self, seed, round_no):
        a = FaultPlan(drop_probability=0.5, rng=seed)
        b = FaultPlan(drop_probability=0.5, rng=seed)
        assert a.drops("x", "y", round_no) == b.drops("x", "y", round_no)


class TestEdgePrefixCacheBound:
    def test_edge_prefix_cache_stays_bounded(self):
        """The per-edge digest-prefix cache holds plain bytes (never
        hashlib objects) and is cleared wholesale at its bound, so a
        sweep over an unbounded edge universe cannot grow the plan."""
        from repro.simulator import faults as faults_mod

        plan = FaultPlan(drop_probability=0.5, rng=1)
        old = faults_mod._EDGE_PREFIX_CACHE_MAX
        faults_mod._EDGE_PREFIX_CACHE_MAX = 64
        try:
            for u in range(40):
                for v in range(5):
                    plan.drops(u, ("sink", v), 1)
            assert len(plan._edge_prefixes) <= 64
            assert all(
                isinstance(prefix, bytes)
                for prefix in plan._edge_prefixes.values()
            )
        finally:
            faults_mod._EDGE_PREFIX_CACHE_MAX = old
        # Decisions are unchanged by cache eviction.
        fresh = FaultPlan(drop_probability=0.5, rng=1)
        assert plan.drops(3, ("sink", 2), 1) == fresh.drops(
            3, ("sink", 2), 1
        )


class TestCrashInjection:
    def test_crashed_node_goes_silent(self):
        """Crash the minimum-value node of a path before its first
        transmission: its value must never spread."""
        graph = nx.path_graph(6)
        network = Network(graph, rng=1)
        values = {v: 100 + v for v in graph.nodes()}
        values[0] = 1  # the global minimum, held by the node we kill
        plan = FaultPlan(crash_rounds={0: 1})
        result = SyncRunner(network, fault_plan=plan).run(
            lambda v: RetransmittingFloodProgram(values[v], horizon=15),
        )
        assert result.output_of(5) == 101  # min among survivors
        assert result.output_of(1) == 101

    def test_crash_mid_protocol_partitions_knowledge(self):
        """Killing the middle of a path at round 2 lets the minimum cross
        only partway."""
        graph = nx.path_graph(7)
        network = Network(graph, rng=1)
        values = {v: 50 + v for v in graph.nodes()}
        values[0] = 1
        plan = FaultPlan(crash_rounds={3: 2})
        result = SyncRunner(network, fault_plan=plan).run(
            lambda v: RetransmittingFloodProgram(values[v], horizon=20),
        )
        # Node 2 heard the minimum before the crash barrier formed…
        assert result.output_of(2) == 1
        # …but node 6 can never hear it (node 3 died holding it); the
        # best value past the barrier is node 3's own 53, which escaped
        # to node 4 in round 1 before the round-2 crash.
        assert result.output_of(6) == 53

    def test_crash_at_round_zero_suppresses_start_traffic(self):
        graph = nx.path_graph(3)
        network = Network(graph, rng=1)
        plan = FaultPlan(crash_rounds={1: 0})
        result = SyncRunner(network, fault_plan=plan).run(
            lambda v: RetransmittingFloodProgram(v, horizon=8),
        )
        # Node 1's value (the middle node) never reaches the ends; each
        # endpoint only ever sees its own value.
        assert result.output_of(0) == 0
        assert result.output_of(2) == 2

    def test_live_nodes_still_halt(self):
        graph = nx.cycle_graph(8)
        network = Network(graph, rng=1)
        plan = FaultPlan(crash_rounds={0: 1, 1: 1})
        result = SyncRunner(network, fault_plan=plan).run(
            lambda v: RetransmittingFloodProgram(v, horizon=10),
        )
        assert result.halted


class TestDropInjection:
    def test_quiescence_flood_can_stall_under_loss(self):
        """The non-retransmitting flood drops its one chance to forward —
        downstream nodes keep their stale value (the failure mode the
        retransmitting variant exists to fix)."""
        graph = nx.path_graph(8)
        network = Network(graph, rng=1)
        values = {v: 100 + v for v in graph.nodes()}
        values[0] = 1
        plan = FaultPlan(drop_probability=1.0, rng=3)
        from repro.simulator.algorithms.flooding import ExtremumFloodProgram

        result = SyncRunner(network, fault_plan=plan).run(
            lambda v: ExtremumFloodProgram(values[v]),
        )
        assert result.output_of(7) == 107  # never learned the minimum

    def test_retransmission_defeats_heavy_loss(self):
        """50% i.i.d. loss with a generous horizon still floods a Harary
        graph completely."""
        graph = harary_graph(4, 16)
        network = Network(graph, rng=1)
        values = {v: v for v in graph.nodes()}
        plan = FaultPlan(drop_probability=0.5, rng=5)
        result = SyncRunner(network, fault_plan=plan).run(
            lambda v: RetransmittingFloodProgram(values[v], horizon=60),
        )
        for v in graph.nodes():
            assert result.output_of(v) == 0

    def test_plan_rng_derived_from_run_seed(self):
        """A plan without its own rng is seeded from the simulate seed:
        one seed reproduces the whole faulty run, end to end."""
        graph = harary_graph(4, 14)

        def run():
            network = Network(graph, rng=1)
            return SyncRunner(
                network,
                rng=21,
                fault_plan=FaultPlan(drop_probability=0.5),
            ).run(
                lambda v: RetransmittingFloodProgram(v, horizon=10),
            )

        first, second = run(), run()
        assert first.outputs == second.outputs
        assert first.metrics.messages == second.metrics.messages
        assert first.metrics.bits == second.metrics.bits

    def test_scheduled_edge_drop_blocks_exact_delivery(self):
        """Drop node 0's round-1 transmission to node 1 only: the minimum
        still arrives, exactly one round late."""
        graph = nx.path_graph(5)
        network = Network(graph, rng=1)
        values = {v: 10 + v for v in graph.nodes()}
        values[0] = 1
        blocked = SyncRunner(
            network,
            fault_plan=FaultPlan(drop_schedule={(0, 1): {1}}),
        ).run(
            lambda v: RetransmittingFloodProgram(values[v], horizon=12),
        )
        clear = SyncRunner(network, fault_plan=FaultPlan()).run(
            lambda v: RetransmittingFloodProgram(values[v], horizon=12),
        )
        assert blocked.output_of(4) == 1  # retransmission repaired it
        assert clear.output_of(4) == 1
        # One fewer delivered message in the blocked run.
        assert blocked.metrics.messages == clear.metrics.messages - 1

    def test_zero_probability_matches_reliable_run(self):
        graph = harary_graph(4, 12)
        network = Network(graph, rng=1)
        values = {v: v for v in graph.nodes()}
        faulty = SyncRunner(
            network,
            fault_plan=FaultPlan(drop_probability=0.0, rng=9),
        ).run(
            lambda v: RetransmittingFloodProgram(values[v], horizon=12),
        )
        reliable = flood_extremum(network, values)
        for v in graph.nodes():
            assert faulty.output_of(v) == reliable.output_of(v)


class TestRetransmittingProgram:
    def test_rejects_bad_horizon(self):
        with pytest.raises(GraphValidationError):
            RetransmittingFloodProgram(1, horizon=0)

    def test_reliable_flood_matches_plain_flood(self):
        graph = nx.cycle_graph(9)
        network = Network(graph, rng=2)
        values = {v: (v * 7) % 9 for v in graph.nodes()}
        result = simulate(
            network,
            lambda v: RetransmittingFloodProgram(values[v], horizon=12),
            model=Model.V_CONGEST,
        )
        assert all(result.output_of(v) == 0 for v in graph.nodes())

    def test_maximize_mode(self):
        graph = nx.path_graph(5)
        network = Network(graph, rng=2)
        result = simulate(
            network,
            lambda v: RetransmittingFloodProgram(
                v, horizon=10, minimize=False
            ),
        )
        assert all(result.output_of(v) == 4 for v in graph.nodes())
