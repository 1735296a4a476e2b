"""The column step of the round loop, unit by unit.

The differential matrix in ``test_engine_equivalence.py`` proves
byte-identity on the registered scenarios; this suite attacks the column
step directly — a hypothesis property that random traffic
(unicast/broadcast mixes, duplicate sends, empty rounds, mutable
payloads) delivers in the reference loop's exact order and contents with
the step forced on every round it can take, the in-CSR and its cache on
the network, the inbox view's Mapping surface, the rule that picks the
step per round, and numpy staying unloaded by runs that never take it.
"""

from __future__ import annotations

import os
import subprocess
import sys

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro.graphs.generators import harary_graph, random_regular_connected
from repro.simulator import column_step, runner
from repro.simulator.adversary import AdversaryPlan
from repro.simulator.column_step import ColumnStep, _ArrayInbox
from repro.simulator.faults import FaultPlan
from repro.simulator.message import Message
from repro.simulator.network import Network
from repro.simulator.node import NodeProgram
from repro.simulator.runner import SyncRunner, simulate
from repro.simulator.tracing import Tracer
from repro.simulator.transport import Model, VCongestTransport


# ----------------------------------------------------------------------
# Random traffic: the forced column step == the reference loop, bytewise
# ----------------------------------------------------------------------


class ScheduledTrafficProgram(NodeProgram):
    """Replays a pre-drawn per-round action list and logs every inbox.

    Actions: ``None`` (idle round), ``("b", payload)`` broadcast, or
    ``("u", {neighbor_pos: payload})`` addressed sends. The log captures
    the inbox in *insertion order* — the strongest observable claim
    about delivery the engine contract makes.
    """

    def __init__(self, vid, schedule, log, unicast_ok=True):
        self._vid = vid
        self._schedule = schedule
        self._log = log
        self._unicast_ok = unicast_ok

    def _action(self, ctx, index):
        if index >= len(self._schedule):
            return None
        action = self._schedule[index]
        if action is None:
            return None
        kind, value = action
        if kind == "b":
            return value
        if not self._unicast_ok:  # V-CONGEST: degrade to a broadcast
            for payload in value.values():
                return payload
            return None
        sends = {
            ctx.neighbors[pos % len(ctx.neighbors)]: payload
            for pos, payload in value.items()
        }
        return sends or None

    def on_start(self, ctx):
        return self._action(ctx, 0)

    def on_round(self, ctx, inbox):
        self._log.append(
            (
                ctx.round,
                self._vid,
                [
                    (label, message.sender, message.payload, message.bits)
                    for label, message in inbox.items()
                ],
            )
        )
        if ctx.round > len(self._schedule):
            ctx.halt(output=("done", self._vid))
            return None
        return self._action(ctx, ctx.round)


_payloads = st.one_of(
    st.integers(min_value=-40, max_value=40),
    st.booleans(),
    st.text(max_size=3),
    st.tuples(st.integers(min_value=0, max_value=9), st.booleans()),
    # Mutable payloads exercise the uninterned path.
    st.lists(st.integers(min_value=0, max_value=5), max_size=2),
)

_actions = st.one_of(
    st.none(),
    st.tuples(st.just("b"), _payloads),
    st.tuples(
        st.just("u"),
        st.dictionaries(
            st.integers(min_value=0, max_value=5), _payloads, max_size=3
        ),
    ),
)

_schedules = st.lists(
    st.lists(_actions, min_size=1, max_size=4), min_size=4, max_size=9
)


def _run_traffic(round_loop, loop, graph, schedules, model):
    network = Network(graph, rng=7)
    log = []
    with round_loop(loop):
        result = simulate(
            network,
            lambda v: ScheduledTrafficProgram(
                v,
                schedules[v % len(schedules)],
                log,
                unicast_ok=model is not Model.V_CONGEST,
            ),
            model=model,
            rng=5,
            max_rounds=50,
        )
    metrics = result.metrics
    return {
        "outputs": list(result.outputs.items()),
        "halted": result.halted,
        "log": log,
        "metrics": (
            metrics.rounds,
            metrics.messages,
            metrics.bits,
            metrics.max_message_bits,
        ),
    }


class TestRandomTrafficProperty:
    @settings(max_examples=40, deadline=None)
    @given(schedules=_schedules, data=st.data())
    def test_delivery_order_and_contents_match_indexed(
        self, round_loop, schedules, data
    ):
        n = len(schedules)
        graph = nx.cycle_graph(n)
        # A few chords make fan-outs uneven without disconnecting.
        for hop in (2, 3):
            if n > 2 * hop:
                graph.add_edge(0, hop)
        model = data.draw(
            st.sampled_from([Model.V_CONGEST, Model.E_CONGEST])
        )
        baseline = _run_traffic(round_loop, "reference", graph, schedules, model)
        other = _run_traffic(round_loop, "column", graph, schedules, model)
        assert other == baseline

    def test_duplicate_and_empty_rounds(self, round_loop):
        # Same payload re-broadcast, idle gaps, and a payload shared by
        # many senders — deterministic anchor case.
        schedules = [
            [("b", 7), None, ("b", 7), ("b", 7)],
            [None, ("b", 7), None, ("b", (1, True))],
            [("b", "x"), ("b", "x"), ("u", {0: 7}), None],
            [None, None, None, None],
        ]
        graph = nx.cycle_graph(8)
        baseline = _run_traffic(
            round_loop, "reference", graph, schedules, Model.E_CONGEST
        )
        other = _run_traffic(
            round_loop, "column", graph, schedules, Model.E_CONGEST
        )
        assert other == baseline


class TestMutablePayloadSemantics:
    def test_mutated_list_payload_stays_live_shared(self, round_loop):
        """Every receiver gets the *same live object* a sender broadcast
        — a source that mutates its list before the receiver's
        ``on_round`` fires is observed mutated (nodes execute in index
        order). The column step must not copy its way out of that
        aliasing: it gathers the sender's own Message."""

        class Mutator(NodeProgram):
            def __init__(self, is_source, seen):
                self._is_source = is_source
                self._payload = [0]
                self._seen = seen

            def on_start(self, ctx):
                return self._payload if self._is_source else None

            def on_round(self, ctx, inbox):
                for message in inbox.values():
                    self._seen.append((ctx.round, tuple(message.payload)))
                if ctx.round >= 3:
                    ctx.halt()
                    return None
                if self._is_source:
                    self._payload[0] += 10  # mutate the already-sent list
                    return self._payload
                return None

        def run(loop):
            network = Network(nx.path_graph(3), rng=2)
            seen = []
            with round_loop(loop):
                simulate(
                    network,
                    lambda v: Mutator(v == 0, seen),
                    rng=4,
                    max_rounds=20,
                )
            return seen

        reference = run("reference")
        column = run("column")
        assert column == reference
        # Node 0 runs first each round, so by the time node 1 reads its
        # inbox the list already says 10 (then 20): live aliasing, kept.
        assert (1, (10,)) in column
        assert (2, (20,)) in column


# ----------------------------------------------------------------------
# The in-CSR and the inbox view
# ----------------------------------------------------------------------


class TestBuildInCsr:
    """``build_in_csr`` lists, for each receiver ``r``, exactly the
    senders whose broadcast reaches it, in ascending sender order — the
    dict plane's inbox insertion order."""

    def test_rows_transpose_the_fanout(self):
        network = Network(harary_graph(4, 13), rng=1)
        fanout = SyncRunner(network, model=Model.V_CONGEST).transport._fanout
        n = network.n
        src, dst = column_step.build_in_csr(fanout, n)
        assert list(dst) == sorted(dst)
        for r in range(n):
            assert list(src[dst == r]) == [
                s for s in range(n) if r in fanout[s]
            ]


class TestInboxViews:
    def test_array_inbox_matches_column_semantics(self):
        from collections.abc import Mapping

        labels_np = np.empty(4, dtype=object)
        labels = ["a", "b", "c", "d"]
        for j, label in enumerate(labels):
            labels_np[j] = label
        msgs = [Message(label, ord(label), 8) for label in labels]
        arr = np.empty(3, dtype=object)
        for j, m in enumerate(msgs[1:4]):
            arr[j] = m
        state = [arr, np.asarray([1, 2, 3])]
        box = _ArrayInbox(state, labels_np)
        box._lo, box._hi = 0, 3
        assert isinstance(box, Mapping)
        assert len(box) == 3 and box
        assert list(box) == box.keys() == ["b", "c", "d"]
        assert box.values() == msgs[1:4]
        assert box.items() == list(zip(labels[1:], msgs[1:]))
        assert box["d"] == msgs[3]
        assert box.get("zz", 0) == 0 and "zz" not in box
        assert "b" in box
        assert box == dict(zip(labels[1:], msgs[1:]))
        with pytest.raises(KeyError):
            box["zz"]
        box._lo = box._hi = 2
        assert not box and len(box) == 0 and box == {}


# ----------------------------------------------------------------------
# The cached plane and the transports the step never serves
# ----------------------------------------------------------------------


def _flood_factory(network):
    from repro.simulator.algorithms.flooding import ExtremumFloodProgram

    return lambda v: ExtremumFloodProgram(network.node_id(v))


class TestPlaneAndEngineEdges:
    def test_plane_cached_across_runs(self, round_loop):
        network = Network(harary_graph(4, 12), rng=3)
        factory = _flood_factory(network)
        assert network._column_plane is None
        with round_loop("column"):
            first = SyncRunner(network, rng=5).run(factory)
            plane = network._column_plane
            assert plane is not None
            second = SyncRunner(network, rng=5).run(factory)
        assert network._column_plane is plane  # reused, not rebuilt
        assert first.outputs == second.outputs

    def test_clique_transport_matches_indexed(self, round_loop):
        network = Network(harary_graph(4, 10), rng=3)
        factory = _flood_factory(network)
        results = {}
        traces = {}
        for loop in ("dict", "column"):
            tracer = Tracer()
            with round_loop(loop):
                results[loop] = simulate(
                    network,
                    tracer.wrap(factory),
                    model=Model.CONGESTED_CLIQUE,
                    rng=5,
                )
            traces[loop] = [repr(e) for e in tracer.trace.events]
        assert results["column"].outputs == results["dict"].outputs
        assert traces["column"] == traces["dict"]
        a, b = results["column"].metrics, results["dict"].metrics
        assert (a.rounds, a.messages, a.bits) == (b.rounds, b.messages, b.bits)
        # The clique's fan-out is not the adjacency: no plane was built.
        assert network._column_plane is None


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


class TestCustomTransport:
    def test_same_class_transports_keep_their_own_fanout(self, round_loop):
        """Two transports of one class with equal degrees but different
        receivers, run in turn on one network: each run delivers along
        its own fan-out, never along an edge plane cached for the other.
        """
        network = Network(nx.cycle_graph(8), rng=1)
        runs = {}
        for loop in ("dict", "column"):
            for shift in (1, 2):
                with round_loop(loop):
                    runs[loop, shift] = simulate(
                        network,
                        _HearOnce,
                        transport=_ShiftTransport(network, shift),
                        rng=2,
                    ).outputs
        assert runs["column", 1][0] == [7]
        assert runs["column", 2][0] == [6]
        for shift in (1, 2):
            assert runs["column", shift] == runs["dict", shift]


# ----------------------------------------------------------------------
# The rule: which rounds take the column step
# ----------------------------------------------------------------------


class _AddressAll(NodeProgram):
    """E-CONGEST: sends its id to every neighbor by name for two rounds."""

    def on_start(self, ctx):
        return {u: ctx.node_id for u in ctx.neighbors}

    def on_round(self, ctx, inbox):
        if ctx.round >= 2:
            ctx.halt(output=len(inbox))
            return None
        return {u: ctx.node_id for u in ctx.neighbors}


@pytest.fixture
def planes(monkeypatch):
    """Record, per round, which plane delivered it and the share of the
    network's directed edges its broadcasts covered."""
    log = []
    column_deliver = ColumnStep.deliver
    dict_deliver = runner.deliver

    def share(senders, fanout_table):
        edges = sum(map(len, fanout_table))
        return sum(len(fanout_table[s]) for s in senders) / edges

    def spy_column(self, senders, outbound, inboxes):
        delivered = column_deliver(self, senders, outbound, inboxes)
        if delivered is not None:
            log.append(("column", len(senders)))
        return delivered

    def spy_dict(senders, outbound, round_no, nodes, fanout_table, *rest):
        log.append(("dict", share(senders, fanout_table)))
        return dict_deliver(
            senders, outbound, round_no, nodes, fanout_table, *rest
        )

    monkeypatch.setattr(ColumnStep, "deliver", spy_column)
    monkeypatch.setattr(runner, "deliver", spy_dict)
    return log


class TestColumnRule:
    """The step pays for every edge of the network, so the rule gives it
    only rounds whose broadcasts cover most of the edge set, on graphs
    dense enough on average."""

    GRAPH = random_regular_connected(64, 300, rng=1)

    def _run(self, factory_of, **kwargs):
        network = Network(self.GRAPH, rng=1)
        return simulate(network, factory_of(network), rng=2, **kwargs)

    def test_flood_takes_the_step_on_saturated_rounds(self, planes):
        self._run(_flood_factory)
        assert planes[0] == ("column", 300)  # every node broadcasts
        assert planes[1][0] == "column"
        # Every round left to the dict plane covered too few edges.
        assert all(
            share < runner.COLUMN_MIN_EDGE_SHARE
            for plane, share in planes
            if plane == "dict"
        )

    def test_bfs_wave_keeps_its_sparse_rounds_on_the_dict_plane(
        self, planes
    ):
        from repro.simulator.algorithms.bfs import BfsProgram

        self._run(
            lambda net: (lambda v: BfsProgram(is_root=v == net.nodes[0]))
        )
        # The root alone, then its 64 neighbors: a fifth of the edges.
        assert [plane for plane, _ in planes[:2]] == ["dict", "dict"]

    def test_sparse_graphs_never_take_it(self, planes):
        network = Network(random_regular_connected(8, 300, rng=1), rng=1)
        simulate(network, _flood_factory(network), rng=2)
        assert planes and all(plane == "dict" for plane, _ in planes)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"fault_plan": FaultPlan(drop_probability=0.1)},
            {"adversary_plan": AdversaryPlan(corruption_probability=0.1)},
        ],
        ids=["faulted", "corrupted"],
    )
    def test_hostile_rounds_never_take_it(
        self, planes, round_loop, kwargs
    ):
        network = Network(self.GRAPH, rng=1)
        with round_loop("column"):
            SyncRunner(network, rng=2, **kwargs).run(_flood_factory(network))
        assert planes and all(plane == "dict" for plane, _ in planes)

    def test_addressed_rounds_never_take_it(self, planes, round_loop):
        with round_loop("column"):
            self._run(lambda net: (lambda v: _AddressAll()),
                      model=Model.E_CONGEST)
        assert planes and all(plane == "dict" for plane, _ in planes)

    def test_clique_and_custom_transports_never_take_it(
        self, planes, round_loop
    ):
        network = Network(self.GRAPH, rng=1)
        with round_loop("column"):
            simulate(
                network, _flood_factory(network),
                model=Model.CONGESTED_CLIQUE, rng=2,
            )
            simulate(
                network, _HearOnce,
                transport=_ShiftTransport(network, 1), rng=2,
            )
        assert planes and all(plane == "dict" for plane, _ in planes)
        assert network._column_plane is None


class TestDictSubclassDispatch:
    def test_dict_subclass_routes_as_addressed_traffic(self, round_loop):
        """``Transport.validate`` dispatches addressed traffic with
        ``isinstance``, so an OrderedDict return must be addressed
        traffic with the column step forced too."""
        from collections import OrderedDict

        def run(loop):
            network = Network(nx.cycle_graph(5), rng=3)
            log = []

            class Addressor(NodeProgram):
                def __init__(self, vid):
                    self._vid = vid

                def on_start(self, ctx):
                    return None

                def on_round(self, ctx, inbox):
                    log.append(
                        (
                            ctx.round,
                            self._vid,
                            [(k, m.payload) for k, m in inbox.items()],
                        )
                    )
                    if ctx.round == 1:
                        return OrderedDict(
                            (nbr, (self._vid, pos))
                            for pos, nbr in enumerate(ctx.neighbors)
                        )
                    ctx.halt(output=self._vid)
                    return None

            with round_loop(loop):
                result = simulate(
                    network,
                    lambda v: Addressor(v),
                    model=Model.E_CONGEST,
                    rng=4,
                    max_rounds=10,
                )
            return log, list(result.outputs.items()), result.halted

        assert run("column") == run("reference")


class TestNumpyStaysUnloaded:
    def test_sparse_session_simulate_leaves_numpy_unloaded(self):
        """The daemon and the batch workers rely on sparse runs never
        loading numpy (its import costs tens of milliseconds and about
        12 MiB): only the column step imports it."""
        src = os.path.dirname(os.path.dirname(repro.__file__))
        code = (
            "import sys\n"
            "from repro.api import GraphSession\n"
            "GraphSession('harary:8,256').simulate(program='flood-min')\n"
            "print('numpy' in sys.modules)\n"
        )
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run(
            [sys.executable, "-c", code],
            env=env, capture_output=True, text=True, check=True,
        )
        assert out.stdout.strip() == "False"
