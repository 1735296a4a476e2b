"""Loop equivalence: both delivery planes against the reference loop.

The round loop (``runner.py``) must be *bit-identical* to the preserved
pre-engine loop (``runner_reference.py``) under a fixed seed: same
:class:`SimulationResult` outputs, same metrics, and — where the
schedule matters — the same :class:`Tracer` transcript, event for event.
This suite runs every algorithm in ``repro/simulator/algorithms`` (and
the fault machinery, whose drop derivation is part of the contract) on
the reference loop and on the round loop twice: under its default rule
and with the column step forced on every round it can take (the
``round_loop`` fixture of ``conftest.py``), and diffs the results.

The **differential matrix** at the bottom extends the same discipline
to every registered scenario program × every applicable transport,
pinned seeds, byte-identical traces — clean, faulted, corrupted, and
addressed runs alike. In its test names ``indexed`` is the default
rule and ``vectorized`` the forced column step.
"""

from __future__ import annotations

import networkx as nx
import pytest

from repro.core.spanning_packing import MwuParameters
from repro.graphs.generators import harary_graph, random_regular_connected
from repro.graphs.sampling import karger_edge_partition
from repro.simulator.algorithms.bfs import build_bfs_tree
from repro.simulator.algorithms.boruvka import distributed_mst
from repro.simulator.algorithms.convergecast import converge_sum
from repro.simulator.algorithms.exchange import exchange_once
from repro.simulator.algorithms.flooding import (
    ExtremumFloodProgram,
    elect_leader,
    flood_extremum,
)
from repro.simulator.algorithms.luby_mis import LubyMisProgram, luby_mis
from repro.simulator.algorithms.multikey_flood import multikey_flood
from repro.simulator.algorithms.pipelined_upcast import pipelined_upcast
from repro.simulator.algorithms.preprocessing import network_preprocessing
from repro.simulator.algorithms.shared_mst import simultaneous_msts
from repro.simulator.algorithms.subgraph_flood import (
    identify_components,
    subgraph_extremum,
)
from repro.simulator.faults import FaultPlan, RetransmittingFloodProgram
from repro.simulator.network import Network
from repro.simulator.runner import SimulationResult, SyncRunner, simulate
from repro.simulator.tracing import Tracer
from repro.simulator.transport import Model
from repro.utils.rng import ensure_rng

#: The round loop's two ways to run, each held against the reference.
PLANES = ("default", "column")


def _network(graph=None, seed=1) -> Network:
    if graph is None:
        graph = harary_graph(4, 14)
    return Network(graph, rng=seed)


def _assert_same_result(a: SimulationResult, b: SimulationResult) -> None:
    assert a.outputs == b.outputs
    assert list(a.outputs) == list(b.outputs)  # same node order too
    assert a.halted == b.halted
    _assert_same_metrics(a.metrics, b.metrics)


def _assert_same_metrics(a, b) -> None:
    assert a.rounds == b.rounds
    assert a.messages == b.messages
    assert a.bits == b.bits
    assert a.max_message_bits == b.max_message_bits
    assert a.phase_rounds == b.phase_rounds


def _against_reference(round_loop, run):
    """Run ``run()`` on the reference loop and on each plane; yield
    ``(plane's value, reference value)`` pairs."""
    with round_loop("reference"):
        expected = run()
    for plane in PLANES:
        with round_loop(plane):
            yield run(), expected


class TestEngineRegistry:
    def test_reference_rejects_clique(self, round_loop):
        from repro.errors import SimulationError

        net = _network()
        with round_loop("reference"), pytest.raises(SimulationError):
            simulate(
                net,
                lambda v: ExtremumFloodProgram(0),
                model=Model.CONGESTED_CLIQUE,
            )


class TestPrimitiveEquivalence:
    """Direct simulate() calls: result + full Tracer transcript."""

    def _traced(self, network, factory_of, model, rng_seed=7):
        tracer = Tracer()
        result = simulate(
            network,
            tracer.wrap(factory_of(network)),
            model=model,
            rng=rng_seed,
        )
        return result, tracer.trace

    def _check(self, round_loop, graph, factory_of, model=Model.V_CONGEST):
        network = _network(graph)
        for (res_a, trace_a), (res_b, trace_b) in _against_reference(
            round_loop, lambda: self._traced(network, factory_of, model)
        ):
            _assert_same_result(res_a, res_b)
            assert trace_a.events == trace_b.events

    def test_extremum_flood(self, round_loop):
        self._check(
            round_loop,
            harary_graph(4, 16),
            lambda net: (
                lambda v: ExtremumFloodProgram((net.node_id(v) * 7) % 31)
            ),
        )

    def test_extremum_flood_on_a_thousand_nodes(self, round_loop):
        """One flood the size of the simulator's sparse scale rows."""
        network = _network(random_regular_connected(8, 1000, rng=1), seed=3)

        def run():
            return simulate(
                network,
                lambda v: ExtremumFloodProgram(network.node_id(v)),
                rng=3,
            )

        for a, b in _against_reference(round_loop, run):
            _assert_same_result(a, b)

    def test_bfs_wave(self, round_loop):
        from repro.simulator.algorithms.bfs import BfsProgram

        graph = nx.path_graph(9)
        self._check(
            round_loop,
            graph,
            lambda net: (lambda v: BfsProgram(is_root=(v == 0))),
        )

    def test_luby_mis_uses_identical_context_rngs(self, round_loop):
        # Luby draws from ctx.rng every phase: equality pins the per-node
        # fresh_seed order of both engines.
        self._check(
            round_loop,
            harary_graph(4, 18),
            lambda net: (lambda v: LubyMisProgram()),
        )

    def test_retransmitting_flood(self, round_loop):
        self._check(
            round_loop,
            nx.cycle_graph(11),
            lambda net: (
                lambda v: RetransmittingFloodProgram(net.node_id(v), horizon=9)
            ),
        )

    def test_e_congest_per_neighbor_traffic(self, round_loop):
        class SendRight:
            """Address one specific neighbor (E-CONGEST dict traffic)."""

            def __init__(self, node):
                self._node = node

            def on_start(self, ctx):
                right = (self._node + 1) % ctx.n
                return {right: ("tok", self._node)} if right in ctx.neighbors else None

            def on_round(self, ctx, inbox):
                ctx.halt(sorted(m.payload for m in inbox.values()))
                return None

        from repro.simulator.node import NodeProgram

        class Prog(SendRight, NodeProgram):
            pass

        self._check(
            round_loop,
            nx.cycle_graph(10),
            lambda net: (lambda v: Prog(v)),
            model=Model.E_CONGEST,
        )


class TestFaultEquivalence:
    """Fault filtering consumes the plan RNG in the same order."""

    def test_iid_drops_identical(self, round_loop):
        graph = harary_graph(4, 16)

        def run():
            network = _network(graph, seed=2)
            plan = FaultPlan(drop_probability=0.3, rng=11)
            return SyncRunner(network, rng=5, fault_plan=plan).run(
                lambda v: RetransmittingFloodProgram(
                    network.node_id(v), horizon=20
                ),
            )

        for a, b in _against_reference(round_loop, run):
            _assert_same_result(a, b)

    def test_crashes_identical(self, round_loop):
        graph = nx.path_graph(8)

        def run():
            network = _network(graph, seed=2)
            plan = FaultPlan(crash_rounds={3: 2, 6: 4}, rng=1)
            return SyncRunner(network, rng=5, fault_plan=plan).run(
                lambda v: RetransmittingFloodProgram(v, horizon=14),
            )

        for a, b in _against_reference(round_loop, run):
            _assert_same_result(a, b)


class TestCompositeEquivalence:
    """Composite algorithms (many chained simulations) end to end."""

    def test_flood_extremum_and_leader(self, round_loop):
        graph = harary_graph(4, 15)

        def run():
            network = _network(graph)
            values = {v: (network.node_id(v) * 3) % 50 for v in network.nodes}
            flood = flood_extremum(network, values)
            leader, election = elect_leader(network)
            return flood, leader, election

        for (flood_a, leader_a, el_a), (flood_b, leader_b, el_b) in (
            _against_reference(round_loop, run)
        ):
            _assert_same_result(flood_a, flood_b)
            assert leader_a == leader_b
            _assert_same_result(el_a, el_b)

    def test_subgraph_flood_and_components(self, round_loop):
        graph = harary_graph(4, 16)

        def run():
            network = _network(graph)
            members = network.nodes[:12]
            adjacency = {
                v: {
                    u
                    for u in network.neighbors(v)
                    if u in members and (network.node_id(u) + network.node_id(v)) % 3
                }
                for v in network.nodes
            }
            values = {v: network.node_id(v) for v in network.nodes}
            flood = subgraph_extremum(network, members, adjacency, values)
            components, ident = identify_components(network, members, adjacency)
            return flood, components, ident

        for a, b in _against_reference(round_loop, run):
            _assert_same_result(a[0], b[0])
            assert a[1] == b[1]
            _assert_same_result(a[2], b[2])

    def test_exchange_and_convergecast(self, round_loop):
        graph = harary_graph(4, 12)

        def run():
            network = _network(graph)
            heard, res = exchange_once(
                network, {v: network.node_id(v) % 9 for v in network.nodes}
            )
            tree, bfs_res = build_bfs_tree(
                network, min(network.nodes, key=network.node_id)
            )
            total, sum_res = converge_sum(
                network, tree, {v: 1 for v in network.nodes}
            )
            return heard, res, tree, bfs_res, total, sum_res

        for a, b in _against_reference(round_loop, run):
            assert a[0] == b[0]
            _assert_same_result(a[1], b[1])
            assert a[2] == b[2]
            _assert_same_result(a[3], b[3])
            assert a[4] == b[4] == 12
            _assert_same_result(a[5], b[5])

    def test_multikey_flood(self, round_loop):
        graph = harary_graph(4, 12)

        def run():
            network = _network(graph)
            values = {
                v: {0: network.node_id(v), 1: -network.node_id(v)}
                for v in network.nodes
            }
            allowed = {
                v: {0: set(network.neighbors(v)), 1: set(network.neighbors(v))}
                for v in network.nodes
            }
            return multikey_flood(
                network, values, allowed, minimize=True, keys_bound=2
            )

        for a, b in _against_reference(round_loop, run):
            _assert_same_result(a, b)

    def test_pipelined_upcast(self, round_loop):
        graph = harary_graph(4, 14)

        def run():
            network = _network(graph)
            items = {
                v: [(i % 3, network.node_id(v) % 100 + i) for i in range(2)]
                for v in network.nodes
            }
            return pipelined_upcast(network, items)

        for a, b in _against_reference(round_loop, run):
            assert a.collected == b.collected
            assert a.rounds == b.rounds
            assert a.root == b.root

    def test_distributed_mst(self, round_loop):
        graph = harary_graph(4, 14)

        def run():
            network = _network(graph)
            mst = distributed_mst(
                network,
                lambda u, v: ((u * 13 + v * 7) % 19) + 1.0,
                model=Model.E_CONGEST,
            )
            return mst

        for a, b in _against_reference(round_loop, run):
            assert a.edges == b.edges
            _assert_same_metrics(a.metrics, b.metrics)

    def test_simultaneous_msts(self, round_loop):
        graph = harary_graph(6, 15)

        def run():
            rand = ensure_rng(4)
            parts = karger_edge_partition(graph, 2, rand)
            network = _network(graph, seed=3)
            return simultaneous_msts(network, parts)

        for a, b in _against_reference(round_loop, run):
            assert a.forests == b.forests
            assert a.fragment_rounds == b.fragment_rounds
            assert a.completion_rounds == b.completion_rounds
            assert a.upcast_items == b.upcast_items

    def test_network_preprocessing(self, round_loop):
        graph = harary_graph(4, 13)

        def run():
            network = _network(graph)
            return network_preprocessing(network)

        for a, b in _against_reference(round_loop, run):
            assert a.leader == b.leader
            assert a.n == b.n == 13
            assert a.diameter_lower == b.diameter_lower
            _assert_same_metrics(a.metrics, b.metrics)

    def test_luby_mis_composite(self, round_loop):
        graph = harary_graph(4, 17)

        def run():
            network = _network(graph, seed=6)
            return luby_mis(network, rng=9)

        for a, b in _against_reference(round_loop, run):
            assert a[0] == b[0]
            _assert_same_result(a[1], b[1])


class TestDriverEquivalence:
    """The core distributed drivers, end to end on every loop."""

    def test_distributed_spanning_packing(self, round_loop):
        from repro.core.spanning_packing_distributed import (
            distributed_spanning_packing,
        )

        graph = harary_graph(4, 12)

        def run():
            return distributed_spanning_packing(
                graph, params=MwuParameters(max_iterations=4), rng=8
            )

        for a, b in _against_reference(round_loop, run):
            assert a.iterations_per_part == b.iterations_per_part
            assert a.packing.size == b.packing.size
            assert len(a.packing.trees) == len(b.packing.trees)
            _assert_same_metrics(a.report.measured, b.report.measured)

    def test_distributed_integral_packing(self, round_loop):
        from repro.core.integral_packing_distributed import (
            distributed_integral_spanning_packing,
        )

        graph = harary_graph(6, 14)

        def run():
            return distributed_integral_spanning_packing(
                graph, parts_factor=1.0, rng=5
            )

        for a, b in _against_reference(round_loop, run):
            assert a.size == b.size
            assert a.total_rounds == b.total_rounds
            assert [sorted(map(sorted, f)) for f in a.mst_rounds.forests] == [
                sorted(map(sorted, f)) for f in b.mst_rounds.forests
            ]


# ----------------------------------------------------------------------
# The differential matrix: every registered scenario × transport × loop
# ----------------------------------------------------------------------

MATRIX_GRAPH = "harary:4,12"
MATRIX_SEED = 3

# (program, model) pairs the registry itself rules out: the CDS-packing
# driver validates its model and accepts V-CONGEST / clique only.
_MATRIX_EXCLUDED = {
    ("cds_packing", Model.E_CONGEST),
}


def _matrix_cases():
    from repro.simulator.scenario import PROGRAM_REGISTRY

    cases = []
    for name in sorted(PROGRAM_REGISTRY):
        for model in (
            Model.V_CONGEST, Model.E_CONGEST, Model.CONGESTED_CLIQUE
        ):
            if (name, model) not in _MATRIX_EXCLUDED:
                cases.append((name, model))
    return cases


def _run_matrix_case(
    round_loop, program: str, model: Model, loop: str, **plans
):
    """One pinned-seed run through ``GraphSession.simulate``, the front
    door every surface shares, reduced to comparable bytes."""
    from repro.api import GraphSession

    with round_loop(loop):
        run = GraphSession(MATRIX_GRAPH).simulate(
            program=program,
            model=model,
            seed=MATRIX_SEED,
            trace=True,
            max_rounds=2000,
            **plans,
        ).raw
    return _comparable(run)


def _comparable(run):
    """A traced scenario run reduced to comparable bytes."""
    metrics = run.result.metrics
    return {
        "outputs": list(run.result.outputs.items()),  # value AND order
        "halted": run.result.halted,
        "metrics": (
            metrics.rounds,
            metrics.messages,
            metrics.bits,
            metrics.max_message_bits,
            sorted(metrics.phase_rounds.items()),
        ),
        # repr per event == the rendered bytes of the transcript.
        "trace": [repr(event) for event in run.trace.events],
    }


class TestDifferentialMatrix:
    """Every registered scenario program, under every transport it can
    run on, must behave *byte-identically* on every loop. The default
    rule is the baseline; the reference loop covers the paper's two
    models (it predates the clique transport); the forced column step
    covers everything (the clique and addressed rounds leave it for the
    dict plane)."""

    @pytest.mark.parametrize(
        "program,model",
        _matrix_cases(),
        ids=lambda value: getattr(value, "value", value),
    )
    def test_reference_matches_indexed(self, round_loop, program, model):
        if model is Model.CONGESTED_CLIQUE:
            pytest.skip("the reference loop predates the clique transport")
        baseline = _run_matrix_case(round_loop, program, model, "default")
        other = _run_matrix_case(round_loop, program, model, "reference")
        assert other == baseline

    @pytest.mark.parametrize(
        "program,model",
        _matrix_cases(),
        ids=lambda value: getattr(value, "value", value),
    )
    def test_vectorized_matches_indexed(self, round_loop, program, model):
        baseline = _run_matrix_case(round_loop, program, model, "default")
        other = _run_matrix_case(round_loop, program, model, "column")
        assert other == baseline


class TestVectorizedFaultEquivalence:
    """Faulted runs never take the column step, forced or not — drop
    decisions stay pure functions of (seed, edge, round), so the bytes
    must match the default rule exactly."""

    def _both(self, round_loop, plan_of, rng=5, horizon=18):
        graph = harary_graph(4, 14)
        results = {}
        for loop in ("default", "column"):
            network = _network(graph, seed=2)
            runner = SyncRunner(network, rng=rng, fault_plan=plan_of(network))
            with round_loop(loop):
                results[loop] = runner.run(
                    lambda v: RetransmittingFloodProgram(
                        network.node_id(v), horizon=horizon
                    )
                )
        return results

    def test_iid_drops(self, round_loop):
        runs = self._both(
            round_loop, lambda net: FaultPlan(drop_probability=0.35, rng=11)
        )
        _assert_same_result(runs["default"], runs["column"])

    def test_drop_schedule(self, round_loop):
        def plan(net):
            a, b, c = net.nodes[0], net.nodes[1], net.nodes[2]
            return FaultPlan(
                drop_schedule={(a, b): {1, 2, 3}, (c, a): {2}}
            )

        runs = self._both(round_loop, plan)
        _assert_same_result(runs["default"], runs["column"])

    def test_crashes_with_drops(self, round_loop):
        def plan(net):
            return FaultPlan(
                drop_probability=0.2,
                crash_rounds={net.nodes[3]: 2, net.nodes[7]: 0},
                rng=4,
            )

        runs = self._both(round_loop, plan)
        _assert_same_result(runs["default"], runs["column"])

    def test_unseeded_plan_derives_from_run_seed(self, round_loop):
        runs = self._both(
            round_loop, lambda net: FaultPlan(drop_probability=0.4)
        )
        _assert_same_result(runs["default"], runs["column"])


class TestVectorizedCompositeEquivalence:
    """Composites chain many runs over one network, so with the column
    step forced they reuse the network's cached in-CSR across runs and
    pin the per-node RNG draw order end to end."""

    def _on_planes(self, round_loop, run):
        results = {}
        for loop in ("default", "column"):
            with round_loop(loop):
                results[loop] = run()
        return results

    def test_flood_extremum_and_leader(self, round_loop):
        graph = harary_graph(4, 15)

        def run():
            network = _network(graph)
            values = {v: (network.node_id(v) * 3) % 50 for v in network.nodes}
            flood = flood_extremum(network, values)
            leader, election = elect_leader(network)
            return flood, leader, election

        runs = self._on_planes(round_loop, run)
        flood_a, leader_a, el_a = runs["default"]
        flood_b, leader_b, el_b = runs["column"]
        _assert_same_result(flood_a, flood_b)
        assert leader_a == leader_b
        _assert_same_result(el_a, el_b)

    def test_luby_mis_uses_identical_context_rngs(self, round_loop):
        graph = harary_graph(4, 17)

        def run():
            network = _network(graph, seed=6)
            return luby_mis(network, rng=9)

        runs = self._on_planes(round_loop, run)
        assert runs["default"][0] == runs["column"][0]
        _assert_same_result(runs["default"][1], runs["column"][1])

    def test_distributed_spanning_packing(self, round_loop):
        from repro.core.spanning_packing_distributed import (
            distributed_spanning_packing,
        )

        graph = harary_graph(4, 12)

        def run():
            return distributed_spanning_packing(
                graph, params=MwuParameters(max_iterations=4), rng=8
            )

        runs = self._on_planes(round_loop, run)
        a, b = runs["default"], runs["column"]
        assert a.iterations_per_part == b.iterations_per_part
        assert a.packing.size == b.packing.size
        assert len(a.packing.trees) == len(b.packing.trees)
        _assert_same_metrics(a.report.measured, b.report.measured)


# ----------------------------------------------------------------------
# The corrupted matrix: adversarial scenarios across every loop
# ----------------------------------------------------------------------

# Each row: (id, program, model, AdversaryPlan kwargs). Plans are built
# fresh per run (replay history is per-execution state); seeds derive
# from the scenario seed, so every loop binds the same plan seed.
_CORRUPTED_CASES = [
    (
        "flip-flood-vcongest",
        "retransmit-flood",
        Model.V_CONGEST,
        {"corruption_probability": 0.25, "kinds": ("flip",)},
    ),
    (
        "flip-flood-clique",
        "retransmit-flood",
        Model.CONGESTED_CLIQUE,
        {"corruption_probability": 0.25, "kinds": ("flip",)},
    ),
    (
        "allkinds-flood",
        "retransmit-flood",
        Model.V_CONGEST,
        {
            "corruption_probability": 0.3,
            "kinds": ("flip", "forge", "replay"),
        },
    ),
    (
        "budgeted-coded-flood",
        "flood-vote",
        Model.V_CONGEST,
        {
            "corruption_probability": 0.5,
            "kinds": ("flip",),
            "budget": 9,
            "round_budget": 3,
        },
    ),
    (
        "targeted-gossip",
        "gossip-checksum",
        Model.V_CONGEST,
        {
            "corruption_probability": 1.0,
            "kinds": ("flip", "forge"),
            # Circulant edges of harary:4,12 — real links of the graph.
            "targets": frozenset({(0, 1), (1, 0), (0, 2)}),
        },
    ),
    # Forged payloads that are not the tuples the program sends: the
    # program must skip them, not crash.
    (
        "forge-bfs",
        "bfs",
        Model.V_CONGEST,
        {"corruption_probability": 0.3, "kinds": ("forge",)},
    ),
    # A flip of ("mis",) has no int to flip and forges an int instead.
    (
        "flip-mis",
        "mis",
        Model.V_CONGEST,
        {"corruption_probability": 0.3, "kinds": ("flip",)},
    ),
]


def _run_corrupted_case(
    round_loop, program: str, model: Model, loop: str, plan_kwargs
):
    from repro.simulator.adversary import AdversaryPlan

    return _run_matrix_case(
        round_loop, program, model, loop,
        adversary_plan=AdversaryPlan(**plan_kwargs),
    )


class TestCorruptedDifferentialMatrix:
    """The oracle discipline extended to hostile channels: every
    corrupted scenario must behave byte-identically on every loop —
    the corruption decisions, budget slots, and replay histories are
    part of the determinism contract, not an excuse to diverge."""

    @pytest.mark.parametrize(
        "program,model,plan_kwargs",
        [(p, m, k) for _, p, m, k in _CORRUPTED_CASES],
        ids=[case_id for case_id, _, _, _ in _CORRUPTED_CASES],
    )
    def test_reference_matches_indexed(
        self, round_loop, program, model, plan_kwargs
    ):
        if model is Model.CONGESTED_CLIQUE:
            pytest.skip("the reference loop predates the clique transport")
        baseline = _run_corrupted_case(
            round_loop, program, model, "default", plan_kwargs
        )
        other = _run_corrupted_case(
            round_loop, program, model, "reference", plan_kwargs
        )
        assert other == baseline

    @pytest.mark.parametrize(
        "program,model,plan_kwargs",
        [(p, m, k) for _, p, m, k in _CORRUPTED_CASES],
        ids=[case_id for case_id, _, _, _ in _CORRUPTED_CASES],
    )
    def test_vectorized_matches_indexed(
        self, round_loop, program, model, plan_kwargs
    ):
        baseline = _run_corrupted_case(
            round_loop, program, model, "default", plan_kwargs
        )
        other = _run_corrupted_case(
            round_loop, program, model, "column", plan_kwargs
        )
        assert other == baseline

    def test_corruption_changes_the_clean_run(self, round_loop):
        """The matrix rows are not vacuous: the hostile run differs from
        the clean run of the same seed."""
        clean = _run_matrix_case(
            round_loop, "retransmit-flood", Model.V_CONGEST, "default"
        )
        hostile = _run_corrupted_case(
            round_loop,
            "retransmit-flood",
            Model.V_CONGEST,
            "default",
            {"corruption_probability": 0.25, "kinds": ("flip",)},
        )
        assert hostile["outputs"] != clean["outputs"]


# ----------------------------------------------------------------------
# The hostile matrix: faulted runs on the shared general delivery path
# ----------------------------------------------------------------------

# Each row: (id, FaultPlan kwargs, corrupted). Corrupted-only and
# addressed runs are rows of the matrices above (flip-flood-vcongest,
# bfs); these add drops and crashes, alone and under corruption.
_HOSTILE_CASES = [
    ("faulted", {"drop_probability": 0.3, "rng": 11}, False),
    (
        "crashed",
        {"drop_probability": 0.3, "crash_rounds": {3: 2, 7: 0}, "rng": 11},
        False,
    ),
    ("faulted-corrupted", {"drop_probability": 0.3, "rng": 11}, True),
]


def _run_hostile_case(round_loop, loop: str, fault_kwargs, corrupted: bool):
    """One pinned-seed retransmit-flood run with hostile machinery.

    Plans are built fresh per run: drop decisions and replay histories
    are per-execution state, and both derive their RNG streams from the
    scenario seed, so every loop binds identical randomness.
    """
    from repro.simulator.adversary import AdversaryPlan

    return _run_matrix_case(
        round_loop, "retransmit-flood", Model.V_CONGEST, loop,
        fault_plan=FaultPlan(**fault_kwargs),
        adversary_plan=(
            AdversaryPlan(corruption_probability=0.25, kinds=("flip",))
            if corrupted
            else None
        ),
    )


class TestHostileMatrix:
    """Every round of a faulted run goes through the general delivery
    path, :func:`repro.simulator.runner.deliver`, even with the column
    step forced — so the independent reference loop and the forced run
    must both reproduce the default transcript byte for byte."""

    @pytest.mark.parametrize(
        "fault_kwargs,corrupted",
        [(k, c) for _, k, c in _HOSTILE_CASES],
        ids=[case_id for case_id, _, _ in _HOSTILE_CASES],
    )
    def test_reference_matches_indexed(
        self, round_loop, fault_kwargs, corrupted
    ):
        baseline = _run_hostile_case(
            round_loop, "default", fault_kwargs, corrupted
        )
        other = _run_hostile_case(
            round_loop, "reference", fault_kwargs, corrupted
        )
        assert other == baseline

    @pytest.mark.parametrize(
        "fault_kwargs,corrupted",
        [(k, c) for _, k, c in _HOSTILE_CASES],
        ids=[case_id for case_id, _, _ in _HOSTILE_CASES],
    )
    def test_vectorized_matches_indexed(
        self, round_loop, fault_kwargs, corrupted
    ):
        baseline = _run_hostile_case(
            round_loop, "default", fault_kwargs, corrupted
        )
        other = _run_hostile_case(
            round_loop, "column", fault_kwargs, corrupted
        )
        assert other == baseline

    def test_faults_change_the_clean_run(self, round_loop):
        """The rows are not vacuous: drops alter the clean transcript."""
        clean = _run_matrix_case(
            round_loop, "retransmit-flood", Model.V_CONGEST, "default"
        )
        faulted = _run_hostile_case(
            round_loop, "default", _HOSTILE_CASES[0][1], False
        )
        assert faulted["trace"] != clean["trace"]
