"""Adversarial-channel tests: AdversaryPlan semantics, budget slots,
corruption purity (hypothesis), loop equivalence, and coded defenses."""

from __future__ import annotations

import random

import networkx as nx
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import GraphSession
from repro.apps.coded import (
    ChecksummedFloodProgram,
    TokenGossipProgram,
    VotedFloodProgram,
    token_checksum,
)
from repro.apps.resilience import (
    flood_corruption_sweep,
    gossip_corruption_sweep,
)
from repro.errors import GraphValidationError, SimulationError
from repro.graphs.generators import harary_graph
from repro.simulator.adversary import (
    CORRUPTION_KINDS,
    AdversaryPlan,
    _flip_int,
    _flip_payload,
    _forged_int,
)
from repro.simulator.faults import FaultPlan, RetransmittingFloodProgram
from repro.simulator.message import Message, payload_bits
from repro.simulator.network import Network
from repro.simulator.runner import SyncRunner
from repro.simulator.transport import CliqueTransport, Model



def _msg(payload, sender="s"):
    return Message(sender, payload, payload_bits(payload))


class TestPlanValidation:
    def test_defaults_are_benign(self):
        plan = AdversaryPlan()
        assert not any(
            plan.corrupts("u", "v", r) for r in range(1, 30)
        )
        message = _msg(17)
        assert plan.apply("u", "v", 1, message) is message

    def test_rejects_bad_probability(self):
        with pytest.raises(GraphValidationError):
            AdversaryPlan(corruption_probability=1.5)
        with pytest.raises(GraphValidationError):
            AdversaryPlan(corruption_probability=-0.1)

    def test_rejects_unknown_or_empty_kinds(self):
        with pytest.raises(GraphValidationError):
            AdversaryPlan(kinds=())
        with pytest.raises(GraphValidationError):
            AdversaryPlan(kinds=("flip", "teleport"))

    def test_rejects_negative_budgets(self):
        with pytest.raises(GraphValidationError):
            AdversaryPlan(budget=-1)
        with pytest.raises(GraphValidationError):
            AdversaryPlan(round_budget=-2)

    def test_rejects_malformed_targets(self):
        with pytest.raises(GraphValidationError):
            AdversaryPlan(targets={("a", "b", "c")})

    def test_rejects_bool_rng(self):
        with pytest.raises(GraphValidationError):
            AdversaryPlan(corruption_probability=0.5, rng=True)

    def test_targets_normalized_to_pairs(self):
        plan = AdversaryPlan(
            corruption_probability=1.0, targets=[("a", "b"), ("b", "a")]
        )
        assert plan.targets == frozenset({("a", "b"), ("b", "a")})

    def test_bind_rejects_unknown_target_nodes(self):
        network = Network(nx.path_graph(4), rng=1)
        plan = AdversaryPlan(
            corruption_probability=1.0, targets={(0, 99)}
        )
        with pytest.raises(GraphValidationError):
            plan.bind(network)

    def test_bind_rejects_non_edge_targets(self):
        network = Network(nx.path_graph(4), rng=1)
        plan = AdversaryPlan(
            corruption_probability=1.0, targets={(0, 3)}
        )
        with pytest.raises(GraphValidationError):
            plan.bind(network)
        # Under the complete (clique) universe the same pair is fine.
        plan.bind(network, CliqueTransport(network))

    def test_budgeted_plan_requires_bind(self):
        plan = AdversaryPlan(corruption_probability=1.0, budget=3, rng=0)
        with pytest.raises(SimulationError):
            plan.corrupts("u", "v", 1)

    def test_describe_is_json_clean(self):
        import json

        plan = AdversaryPlan(
            corruption_probability=0.25,
            kinds=("flip", "replay"),
            targets={(0, 1)},
            budget=9,
            round_budget=2,
            rng=13,
        )
        blob = plan.describe()
        assert json.loads(json.dumps(blob)) == blob
        assert blob["seed"] == 13
        assert blob["targets"] == [[0, 1]]


class TestCorruptionDecisions:
    """corrupts()/kind_of()/apply() are pure functions of (seed, directed
    edge, round) — the contract every loop relies on."""

    EDGES = [("a", "b"), ("b", "a"), ("c", "d"), (0, 1), (1, 0), (2, 7)]

    def test_decisions_independent_of_query_order(self):
        forward = AdversaryPlan(corruption_probability=0.5, rng=7)
        backward = AdversaryPlan(corruption_probability=0.5, rng=7)
        queries = [(e, r) for e in self.EDGES for r in range(1, 21)]
        want = {
            (e, r): forward.corrupts(e[0], e[1], r) for e, r in queries
        }
        for e, r in reversed(queries):
            assert backward.corrupts(e[0], e[1], r) == want[(e, r)]

    def test_directedness(self):
        plan = AdversaryPlan(corruption_probability=0.5, rng=11)
        decisions_uv = [plan.corrupts("u", "v", r) for r in range(1, 65)]
        decisions_vu = [plan.corrupts("v", "u", r) for r in range(1, 65)]
        assert decisions_uv != decisions_vu

    def test_corruption_rate_tracks_probability(self):
        plan = AdversaryPlan(corruption_probability=0.25, rng=13)
        decisions = [
            plan.corrupts(u, v, r)
            for u in range(20)
            for v in range(20)
            if u != v
            for r in range(1, 6)
        ]
        rate = sum(decisions) / len(decisions)
        assert 0.2 < rate < 0.3

    def test_kind_drawn_from_declared_kinds_only(self):
        plan = AdversaryPlan(
            corruption_probability=1.0, kinds=("forge", "flip"), rng=5
        )
        kinds = {
            plan.kind_of(u, v, r)
            for u, v in self.EDGES
            for r in range(1, 20)
        }
        assert kinds <= {"forge", "flip"}
        assert len(kinds) == 2  # both kinds actually occur

    def test_reseed_rebinds_decisions(self):
        plan = AdversaryPlan(corruption_probability=0.5, rng=1)
        first = [plan.corrupts("u", "v", r) for r in range(1, 21)]
        plan.reseed(1)
        assert [plan.corrupts("u", "v", r) for r in range(1, 21)] == first
        plan.reseed(2)
        assert [plan.corrupts("u", "v", r) for r in range(1, 21)] != first

    def test_targets_confine_corruption(self):
        plan = AdversaryPlan(
            corruption_probability=1.0, targets={("a", "b")}, rng=3
        )
        assert all(plan.corrupts("a", "b", r) for r in range(1, 10))
        assert not any(plan.corrupts("b", "a", r) for r in range(1, 10))
        assert not any(plan.corrupts("c", "d", r) for r in range(1, 10))


class TestBudgets:
    def _bound_plan(self, **kwargs):
        network = Network(harary_graph(4, 10), rng=1)
        plan = AdversaryPlan(**kwargs)
        plan.bind(network)
        return plan, network

    def _directed_edges(self, network):
        return [
            (u, v) for u in network.nodes for v in network.neighbors(u)
        ]

    def test_round_budget_caps_each_round(self):
        plan, network = self._bound_plan(
            corruption_probability=0.9, round_budget=2, rng=7
        )
        edges = self._directed_edges(network)
        for r in range(1, 15):
            corrupted = [e for e in edges if plan.corrupts(*e, r)]
            assert len(corrupted) <= 2

    def test_global_budget_caps_cumulative_spend(self):
        plan, network = self._bound_plan(
            corruption_probability=0.9, budget=5, rng=7
        )
        edges = self._directed_edges(network)
        total = sum(
            plan.corrupts(*e, r) for r in range(1, 30) for e in edges
        )
        assert total == 5  # p=0.9 on 40 directed edges: budget exhausts

    def test_budget_zero_means_no_corruption(self):
        plan, network = self._bound_plan(
            corruption_probability=1.0, budget=0, rng=7
        )
        edges = self._directed_edges(network)
        assert not any(
            plan.corrupts(*e, r) for r in range(1, 10) for e in edges
        )

    def test_budgeted_slots_are_a_subset_of_unbudgeted(self):
        """Budgets only ever remove corrupted slots, never add or move
        them: a budgeted plan's corruptions are a subset of the same
        seed's unbudgeted corruptions."""
        network = Network(harary_graph(4, 10), rng=1)
        free = AdversaryPlan(corruption_probability=0.4, rng=9)
        capped = AdversaryPlan(
            corruption_probability=0.4, round_budget=3, budget=11, rng=9
        )
        capped.bind(network)
        edges = self._directed_edges(network)
        for r in range(1, 12):
            for e in edges:
                if capped.corrupts(*e, r):
                    assert free.corrupts(*e, r)

    def test_out_of_order_round_queries_agree_with_in_order(self):
        """Slot commitment is sequential internally, but queries may
        arrive round-out-of-order; answers must match an in-order
        evaluation."""
        network = Network(harary_graph(4, 10), rng=1)
        in_order = AdversaryPlan(
            corruption_probability=0.6, budget=9, rng=4
        ).bind(network)
        shuffled = AdversaryPlan(
            corruption_probability=0.6, budget=9, rng=4
        ).bind(network)
        edges = self._directed_edges(network)
        queries = [(e, r) for r in range(1, 10) for e in edges]
        want = {(e, r): in_order.corrupts(*e, r) for e, r in queries}
        mixed = list(queries)
        random.Random(0).shuffle(mixed)
        for e, r in mixed:
            assert shuffled.corrupts(*e, r) == want[(e, r)]


class TestCorruptionTransforms:
    def test_flip_int_stays_in_honest_width(self):
        for value in (1, 5, 255, -17, 1000, -1, 63, -64):
            width = payload_bits(value)
            for material in range(1, 200):
                flipped = _flip_int(value, material)
                assert flipped != value
                assert payload_bits(flipped) <= width

    def test_flip_of_zero_is_the_documented_exception(self):
        """Zero's 1-bit budget admits no other int; it corrupts to -1."""
        assert all(
            _flip_int(0, material) == -1 for material in range(1, 50)
        )

    def test_flip_can_go_negative(self):
        """The poisoned-minimum attack: some mask flips the sign bit of a
        non-negative value."""
        assert any(
            _flip_int(12, material) < 0 for material in range(1, 64)
        )

    def test_forged_int_never_zero(self):
        assert all(
            _forged_int(material) != 0 for material in range(0, 200_000, 977)
        )

    def test_flip_payload_bool_and_tuple(self):
        assert _flip_payload(True, 3) is False
        corrupted = _flip_payload((4, "x", 9), 5)
        assert isinstance(corrupted, tuple)
        assert corrupted != (4, "x", 9)
        assert corrupted[1] == "x"  # only one int element flipped
        changed = sum(
            a != b for a, b in zip(corrupted, (4, "x", 9))
        )
        assert changed == 1

    def test_flip_payload_without_ints_forges(self):
        assert isinstance(_flip_payload("hello", 9), int)

    def test_apply_forge_uses_declared_payload(self):
        plan = AdversaryPlan(
            corruption_probability=1.0,
            kinds=("forge",),
            forge_payload=-999,
            rng=2,
        )
        out = plan.apply("u", "v", 1, _msg(42))
        assert out.payload == -999
        assert out.bits == payload_bits(-999)
        assert out.sender == "s"  # sender identity is not forged

    def test_apply_replay_delivers_stale_payload(self):
        plan = AdversaryPlan(
            corruption_probability=1.0, kinds=("replay",), rng=0
        )
        first = plan.apply("u", "v", 1, _msg(10))
        # Round 1 has no history: replay falls back to a flip.
        assert first.payload != 10
        second = plan.apply("u", "v", 2, _msg(20))
        assert second.payload == 10  # the round-1 honest payload
        third = plan.apply("u", "v", 3, _msg(30))
        assert third.payload == 20

    def test_replay_history_is_per_directed_edge(self):
        plan = AdversaryPlan(
            corruption_probability=1.0, kinds=("replay",), rng=0
        )
        plan.apply("u", "v", 1, _msg(10))
        out = plan.apply("v", "u", 2, _msg(20))
        assert out.payload != 10  # the reverse edge has its own history

    def test_begin_run_clears_replay_history(self):
        plan = AdversaryPlan(
            corruption_probability=1.0, kinds=("replay",), rng=0
        )
        plan.apply("u", "v", 1, _msg(10))
        plan.begin_run()
        out = plan.apply("u", "v", 2, _msg(20))
        assert out.payload != 10  # history gone: falls back to flip

    def test_uncorrupted_delivery_passes_through_unchanged(self):
        plan = AdversaryPlan(corruption_probability=0.0, rng=1)
        message = _msg((3, 4))
        assert plan.apply("u", "v", 5, message) is message


class TestCorruptionPurityProperties:
    """Hypothesis pins the purity contract over arbitrary edge/round
    universes: decisions never depend on query order, plan object
    identity, or anything but the bound seed."""

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
    def test_decisions_invariant_under_delivery_order(
        self, edges, seed, order
    ):
        baseline = AdversaryPlan(corruption_probability=0.5, rng=seed)
        probe = AdversaryPlan(corruption_probability=0.5, rng=seed)
        queries = [(e, r) for e in edges for r in range(1, 9)]
        want = {
            (e, r): (
                baseline.corrupts(e[0], e[1], r),
                baseline.kind_of(e[0], e[1], r),
            )
            for e, r in queries
        }
        order.shuffle(queries)
        for e, r in queries:
            got = (
                probe.corrupts(e[0], e[1], r),
                probe.kind_of(e[0], e[1], r),
            )
            assert got == want[(e, r)]

    @settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        seed=st.integers(min_value=0, max_value=2**32),
        kinds=st.sets(
            st.sampled_from(CORRUPTION_KINDS), min_size=1
        ),
    )
    def test_reseed_same_int_restores_decisions(self, seed, kinds):
        plan = AdversaryPlan(
            corruption_probability=0.5, kinds=tuple(sorted(kinds)), rng=seed
        )
        queries = [("u", "v", r) for r in range(1, 17)] + [
            ("v", "w", r) for r in range(1, 17)
        ]
        first = [
            (plan.corrupts(*q), plan.kind_of(*q)) for q in queries
        ]
        plan.reseed(seed)
        assert [
            (plan.corrupts(*q), plan.kind_of(*q)) for q in queries
        ] == first

    @settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        seed=st.integers(min_value=0, max_value=2**32),
        payload=st.one_of(
            # Zero is excluded: its 1-bit budget admits no other int
            # (the documented exception to the width guarantee).
            st.integers(min_value=-(2**20), max_value=2**20).filter(
                lambda v: v != 0
            ),
            st.booleans(),
            st.tuples(
                st.integers(min_value=1, max_value=2**16),
                st.integers(min_value=1, max_value=2**16),
            ),
        ),
    )
    def test_flip_corruption_changes_payload_within_budget(
        self, seed, payload
    ):
        plan = AdversaryPlan(
            corruption_probability=1.0, kinds=("flip",), rng=seed
        )
        honest = _msg(payload)
        out = plan.apply("u", "v", 1, honest)
        assert out.payload != payload
        assert out.bits <= honest.bits


class TestPrefixCacheBound:
    def test_edge_prefix_cache_stays_bounded(self):
        # The bound is the shared coin's (EdgeCoins, in faults).
        from repro.simulator import faults as faults_mod

        plan = AdversaryPlan(corruption_probability=0.5, rng=1)
        cap = faults_mod._EDGE_PREFIX_CACHE_MAX
        old = faults_mod._EDGE_PREFIX_CACHE_MAX
        faults_mod._EDGE_PREFIX_CACHE_MAX = 64
        try:
            # The module constant is read at call time, so shrinking it
            # makes the overflow cheap to exercise.
            for u in range(40):
                for v in range(5):
                    plan.corrupts(u, ("sink", v), 1)
            assert len(plan._edge_prefixes) <= 64
        finally:
            faults_mod._EDGE_PREFIX_CACHE_MAX = old
        assert cap == old
        # Decisions are unchanged by cache eviction.
        fresh = AdversaryPlan(corruption_probability=0.5, rng=1)
        assert plan.corrupts(3, ("sink", 2), 1) == fresh.corrupts(
            3, ("sink", 2), 1
        )


class TestEngineEquivalence:
    """The same seeded hostile run is bit-identical on the reference
    loop, under the default rule, and with the column step forced (the
    ``round_loop`` fixture of ``conftest.py``)."""

    def _run(self, round_loop, loop, kinds, budget=None):
        network = Network(harary_graph(4, 12), rng=2)
        plan = AdversaryPlan(
            corruption_probability=0.3,
            kinds=kinds,
            budget=budget,
            rng=17,
        )
        runner = SyncRunner(
            network,
            model=Model.V_CONGEST,
            rng=5,
            adversary_plan=plan,
        )
        with round_loop(loop):
            result = runner.run(
                lambda v: RetransmittingFloodProgram(
                    network.node_id(v), horizon=16
                ),
                max_rounds=64,
            )
        return (
            {repr(k): v for k, v in result.outputs.items()},
            result.halted,
            result.metrics.messages,
            result.metrics.bits,
        )

    @pytest.mark.parametrize(
        "kinds", [("flip",), ("flip", "forge", "replay")]
    )
    def test_indexed_matches_reference(self, round_loop, kinds):
        assert self._run(round_loop, "default", kinds) == self._run(
            round_loop, "reference", kinds
        )

    @pytest.mark.parametrize(
        "kinds", [("flip",), ("flip", "forge", "replay")]
    )
    def test_vectorized_matches_indexed(self, round_loop, kinds):
        assert self._run(round_loop, "default", kinds) == self._run(
            round_loop, "column", kinds
        )

    def test_budgeted_plan_agrees_across_engines(self, round_loop):
        want = self._run(round_loop, "reference", ("flip",), budget=7)
        assert self._run(round_loop, "default", ("flip",), budget=7) == want
        assert self._run(round_loop, "column", ("flip",), budget=7) == want

    def test_corruption_actually_changes_the_run(self, round_loop):
        corrupted = self._run(round_loop, "default", ("flip",))
        network = Network(harary_graph(4, 12), rng=2)
        clean = SyncRunner(network, model=Model.V_CONGEST, rng=5).run(
            lambda v: RetransmittingFloodProgram(
                network.node_id(v), horizon=16
            ),
            max_rounds=64,
        )
        assert corrupted[0] != {
            repr(k): v for k, v in clean.outputs.items()
        }

    def test_metrics_charge_honest_bits(self):
        """The adversary tampers after the sender paid: a corrupted run
        transmits exactly the bits of the same run without corruption
        applied (flood state divergence aside, round 1 is identical)."""
        network = Network(nx.path_graph(3), rng=1)
        plan = AdversaryPlan(
            corruption_probability=1.0, kinds=("flip",), rng=4
        )
        corrupted = SyncRunner(network, adversary_plan=plan).run(
            lambda v: RetransmittingFloodProgram(
                network.node_id(v), horizon=1
            ),
            max_rounds=8,
        )
        clean = SyncRunner(network, model=Model.V_CONGEST, rng=1).run(
            lambda v: RetransmittingFloodProgram(
                network.node_id(v), horizon=1
            ),
            max_rounds=8,
        )
        assert corrupted.metrics.bits == clean.metrics.bits
        assert corrupted.metrics.messages == clean.metrics.messages

    def test_fault_and_adversary_compose(self):
        """Drops are decided first; the adversary only sees survivors —
        and one run seed reproduces the whole hostile execution."""
        network = Network(harary_graph(4, 10), rng=3)

        def run():
            return SyncRunner(
                network,
                rng=8,
                fault_plan=FaultPlan(drop_probability=0.2),
                adversary_plan=AdversaryPlan(corruption_probability=0.2),
            ).run(
                lambda v: RetransmittingFloodProgram(
                    network.node_id(v), horizon=20
                ),
                max_rounds=64,
            )

        first, second = run(), run()
        assert first.outputs == second.outputs
        assert first.metrics.bits == second.metrics.bits


class TestCodedDefenses:
    def _flood(self, factory, rate, seed=0, n=16, kinds=("flip",)):
        graph = harary_graph(4, n)
        network = Network(graph, rng=seed)
        plan = AdversaryPlan(corruption_probability=rate, kinds=kinds)
        runner = SyncRunner(network, rng=seed, adversary_plan=plan)
        return network, runner.run(factory(network), max_rounds=256)

    def test_uncoded_flood_poisoned_by_flips(self):
        network, result = self._flood(
            lambda net: lambda v: RetransmittingFloodProgram(
                net.node_id(v), horizon=24
            ),
            rate=0.05,
        )
        true_min = min(network.node_id(v) for v in network.nodes)
        wrong = [
            v
            for v in network.nodes
            if result.output_of(v) < true_min
        ]
        assert wrong  # below-minimum outputs: direct poisoning evidence

    def test_checksummed_flood_survives_flips(self):
        network, result = self._flood(
            lambda net: lambda v: ChecksummedFloodProgram(
                net.node_id(v), horizon=40
            ),
            rate=0.05,
        )
        true_min = min(network.node_id(v) for v in network.nodes)
        assert all(
            result.output_of(v) == true_min for v in network.nodes
        )

    def test_voted_flood_survives_flips(self):
        network, result = self._flood(
            lambda net: lambda v: VotedFloodProgram(
                net.node_id(v), horizon=40, votes=2
            ),
            rate=0.05,
        )
        true_min = min(network.node_id(v) for v in network.nodes)
        assert all(
            result.output_of(v) == true_min for v in network.nodes
        )

    def test_coded_floods_match_uncoded_on_clean_channels(self):
        for factory in (
            lambda net: lambda v: ChecksummedFloodProgram(
                net.node_id(v), horizon=24
            ),
            lambda net: lambda v: VotedFloodProgram(
                net.node_id(v), horizon=24, votes=2
            ),
        ):
            network, result = self._flood(factory, rate=0.0)
            true_min = min(network.node_id(v) for v in network.nodes)
            assert all(
                result.output_of(v) == true_min
                for v in network.nodes
            )

    def test_checksum_is_deterministic_and_sized(self):
        assert token_checksum(42) == token_checksum(42)
        assert token_checksum(42) != token_checksum(43)
        assert 0 <= token_checksum(42, bits=8) < 256
        with pytest.raises(GraphValidationError):
            token_checksum(1, bits=0)

    def test_gossip_checksum_survives_corruption(self):
        graph = harary_graph(4, 8)
        network = Network(graph, rng=1)
        n = network.n
        diameter = 3  # >= actual diameter of harary(4,8)
        plan = AdversaryPlan(corruption_probability=0.03)
        result = SyncRunner(network, rng=2, adversary_plan=plan).run(
            lambda v: TokenGossipProgram(
                origin=network.node_id(v),
                value=network.node_id(v),
                horizon=n * (diameter + 1) + 4,
                variant="checksum",
            ),
            max_rounds=n * (diameter + 1) + 8,
        )
        # The program reports committed (origin, value) pairs in its
        # canonical repr order.
        want = tuple(
            sorted(
                (
                    (network.node_id(v), network.node_id(v))
                    for v in network.nodes
                ),
                key=repr,
            )
        )
        assert all(
            result.output_of(v) == want for v in network.nodes
        )

    @pytest.mark.parametrize("variant", TokenGossipProgram.VARIANTS)
    def test_gossip_rotation_and_output_follow_repr_order(self, variant):
        """Origins 9 and 10 sort one way by value and the other by
        repr; the emit rotation and the committed output follow repr."""
        from repro.simulator.node import Context

        program = TokenGossipProgram(
            origin=9, value=90, horizon=8, variant=variant, votes=1
        )
        ctx = Context(node=0, node_id=9, neighbors=(1,), n=2)
        assert program.on_start(ctx)[:2] == (9, 90)
        token = (10, 100)
        payload = (
            token + (token_checksum(token),)
            if variant == "checksum"
            else token
        )
        emitted = []
        for round_no in (1, 2, 3):
            ctx.round = round_no
            inbox = {1: _msg(payload, sender=1)} if round_no == 1 else {}
            emitted.append(program.on_round(ctx, inbox)[0])
        # Round r emits origins[r % 2] of sorted([9, 10], key=repr).
        assert sorted([9, 10], key=repr) == [10, 9]
        assert emitted == [9, 10, 9]
        assert ctx.output == tuple(
            sorted([(9, 90), (10, 100)], key=repr)
        ) == ((10, 100), (9, 90))


class TestCorruptionSweeps:
    def test_flood_sweep_separates_coded_from_uncoded(self):
        graph = harary_graph(4, 12)
        reports = flood_corruption_sweep(graph, [0.0, 0.05], seed=3)
        by_key = {
            (r.variant, r.corruption_rate): r for r in reports
        }
        assert by_key[("uncoded", 0.0)].coverage == 1.0
        assert by_key[("uncoded", 0.05)].wrong_rate > 0.0
        for variant in ("checksum", "vote"):
            assert by_key[(variant, 0.05)].coverage == 1.0
            assert by_key[(variant, 0.05)].wrong_rate == 0.0

    def test_gossip_sweep_reports_are_complete(self):
        graph = harary_graph(4, 8)
        reports = gossip_corruption_sweep(
            graph, [0.0], variants=("plain", "checksum"), seed=1
        )
        assert {r.variant for r in reports} == {"plain", "checksum"}
        for r in reports:
            assert r.coverage == 1.0
            assert r.wrong_rate == 0.0

    def test_sweep_rejects_bad_rate(self):
        with pytest.raises(GraphValidationError):
            flood_corruption_sweep(harary_graph(4, 8), [0.5, 1.5])

    def test_sweep_rejects_unknown_variant(self):
        with pytest.raises(GraphValidationError):
            flood_corruption_sweep(
                harary_graph(4, 8), [0.0], variants=("uncoded", "magic")
            )


class TestScheduleEdgeValidation:
    def test_schedule_on_non_edge_rejected(self):
        network = Network(nx.path_graph(4), rng=1)
        plan = FaultPlan(drop_schedule={(0, 3): {1}})
        with pytest.raises(GraphValidationError) as excinfo:
            plan.bind(network)
        assert "non-edges" in str(excinfo.value)

    def test_schedule_on_unknown_node_rejected(self):
        network = Network(nx.path_graph(4), rng=1)
        with pytest.raises(GraphValidationError):
            FaultPlan(drop_schedule={(0, 99): {1}}).bind(network)

    def test_valid_schedule_passes_through(self):
        network = Network(nx.path_graph(4), rng=1)
        schedule = {(0, 1): frozenset({1}), (2, 1): frozenset({3})}
        plan = FaultPlan(drop_schedule=schedule)
        assert plan.bind(network) is plan
        assert plan.drop_schedule == schedule

    def test_empty_cut_schedule_rejected(self):
        from repro.apps.resilience import cut_drop_schedule

        graph = nx.path_graph(4)
        with pytest.raises(GraphValidationError):
            cut_drop_schedule(graph, side=[], rounds=[1])


class TestScenarioIntegration:
    def test_scenario_threads_adversary_plan(self):
        session = GraphSession("harary:4,12")
        clean = session.simulate(program="retransmit-flood", seed=3).raw
        hostile = session.simulate(
            program="retransmit-flood",
            seed=3,
            adversary_plan=AdversaryPlan(corruption_probability=0.2),
        ).raw
        assert clean.result.outputs != hostile.result.outputs

    def test_scenario_adversary_run_reproducible(self):
        def run():
            return GraphSession("harary:4,12").simulate(
                program="flood-vote",
                seed=5,
                adversary_plan=AdversaryPlan(corruption_probability=0.1),
            ).raw

        first, second = run(), run()
        assert first.result.outputs == second.result.outputs
        assert (
            first.result.metrics.bits == second.result.metrics.bits
        )

    def test_driver_scenarios_reject_external_adversary(self):
        with pytest.raises(GraphValidationError):
            GraphSession("harary:4,12").simulate(
                program="resilience-sweep",
                seed=1,
                adversary_plan=AdversaryPlan(corruption_probability=0.1),
            )

    def test_resilience_sweep_driver_outputs(self):
        run = GraphSession("harary:4,12").simulate(
            program="resilience-sweep", seed=3
        ).raw
        outputs = run.result.outputs
        assert any(key.startswith("uncoded@") for key in outputs)
        poisoned = outputs["uncoded@p=0.05"]
        assert poisoned["wrong_rate"] > 0.0
        for variant in ("checksum", "vote"):
            clean = outputs[f"{variant}@p=0.05"]
            assert clean["coverage"] == 1.0
            assert clean["wrong_rate"] == 0.0
