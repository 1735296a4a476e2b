"""The columnar plane of the ``"vectorized"`` engine, unit by unit.

The differential matrix in ``test_engine_equivalence.py`` proves
byte-identity on the registered scenarios; this suite attacks the
columnar machinery directly — a hypothesis property that random traffic
(unicast/broadcast mixes, duplicate sends, empty rounds, mutable
payloads) delivers in the indexed loop's exact order and contents, the
payload-interning table's round-trip and type-awareness, the inbox
views' Mapping surface, plane caching across runs, the clique shape,
and the numpy-absent error path.
"""

from __future__ import annotations

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ModelViolationError, SimulationError
from repro.graphs.generators import harary_graph
from repro.simulator.message import Message, payload_bits
from repro.simulator.network import Network
from repro.simulator.node import NodeProgram
from repro.simulator.runner import Model, SyncRunner, simulate
from repro.simulator.tracing import Tracer
from vectorized_support import VECTORIZED_SKIP_REASON, VECTORIZED_TESTS_OK

pytestmark = pytest.mark.skipif(
    not VECTORIZED_TESTS_OK, reason=VECTORIZED_SKIP_REASON
)

np = pytest.importorskip("numpy")

from repro.simulator import runner_vectorized as rv  # noqa: E402
from repro.simulator.runner_vectorized import (  # noqa: E402
    PayloadInterner,
    _ArrayInbox,
    _ColumnInbox,
)


# ----------------------------------------------------------------------
# Random traffic: vectorized delivery == indexed delivery, bytewise
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


def _run_traffic(engine, graph, schedules, model):
    network = Network(graph, rng=7)
    log = []
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
        engine=engine,
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
        self, schedules, data
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
        baseline = _run_traffic("indexed", graph, schedules, model)
        other = _run_traffic("vectorized", graph, schedules, model)
        assert other == baseline

    def test_duplicate_and_empty_rounds(self):
        # Same payload re-broadcast (warm send cache), idle gaps, and a
        # payload shared by many senders — deterministic anchor case.
        schedules = [
            [("b", 7), None, ("b", 7), ("b", 7)],
            [None, ("b", 7), None, ("b", (1, True))],
            [("b", "x"), ("b", "x"), ("u", {0: 7}), None],
            [None, None, None, None],
        ]
        graph = nx.cycle_graph(8)
        baseline = _run_traffic("indexed", graph, schedules, Model.E_CONGEST)
        other = _run_traffic("vectorized", graph, schedules, Model.E_CONGEST)
        assert other == baseline


class TestMutablePayloadSemantics:
    def test_mutated_list_payload_stays_live_shared(self):
        """The indexed loop hands every receiver the *same live object*
        a sender broadcast — a source that mutates its list before the
        receiver's ``on_round`` fires is observed mutated (nodes execute
        in index order). The columnar engine must not copy or intern its
        way out of that aliasing: the uninterned path forwards the
        object itself."""

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

        def run(engine):
            network = Network(nx.path_graph(3), rng=2)
            seen = []
            simulate(
                network,
                lambda v: Mutator(v == 0, seen),
                rng=4,
                engine=engine,
                max_rounds=20,
            )
            return seen

        indexed = run("indexed")
        vectorized = run("vectorized")
        assert vectorized == indexed
        # Node 0 runs first each round, so by the time node 1 reads its
        # inbox the list already says 10 (then 20): live aliasing, kept.
        assert (1, (10,)) in vectorized
        assert (2, (20,)) in vectorized


# ----------------------------------------------------------------------
# The interning table
# ----------------------------------------------------------------------


class TestPayloadInterner:
    def test_round_trip_and_stable_ids(self):
        interner = PayloadInterner()
        payloads = [0, 1, -3, "x", (1, 2), frozenset({3}), None, True, 1.5]
        ids = {}
        for payload in payloads:
            pid, bits = interner.intern(payload)
            assert bits == payload_bits(payload)
            assert interner.payload_of(pid) == payload
            ids[pid] = payload
        assert len(ids) == len(payloads)  # all distinct
        for payload in payloads:  # re-interning is stable
            pid, _ = interner.intern(payload)
            assert interner.payload_of(pid) == payload
        assert len(interner) == len(payloads)

    def test_type_aware_keys(self):
        """``1 == True == 1.0`` in Python, but their encodings differ —
        the table must keep them (and nested variants) apart."""
        interner = PayloadInterner()
        distinct = [1, True, 1.0, (1,), (True,), ((1,),), ((True,),),
                    frozenset({1}), frozenset({True})]
        pids = [interner.intern(payload)[0] for payload in distinct]
        assert len(set(pids)) == len(distinct)
        for payload, pid in zip(distinct, pids):
            canonical = interner.payload_of(pid)
            assert canonical == payload
            assert type(canonical) is type(payload)

    def test_unhashable_payloads_raise_typeerror(self):
        interner = PayloadInterner()
        for payload in ([1, 2], ([1],), (1, [2]), ((1, [2]),)):
            with pytest.raises(TypeError):
                interner.intern(payload)
        assert len(interner) == 0  # nothing half-registered

    def test_cap_clears_wholesale(self, monkeypatch):
        monkeypatch.setattr(rv, "MAX_INTERNED_PAYLOADS", 4)
        interner = PayloadInterner()
        for i in range(4):
            interner.intern(i)
        assert len(interner) == 4
        pid, _ = interner.intern(99)  # crosses the cap: table restarts
        assert pid == 0
        assert len(interner) == 1
        assert interner.payload_of(0) == 99


class TestBuildInCsr:
    """``build_in_csr`` transposes the fan-out: receiver ``r``'s slice
    lists exactly the senders whose broadcast reaches it, in ascending
    sender order — the indexed loop's inbox insertion order."""

    def test_rows_transpose_the_fanout(self):
        network = Network(harary_graph(4, 13), rng=1)
        fanout = SyncRunner(network, model=Model.V_CONGEST).transport._fanout
        n = network.n
        ptr, src, dst = rv.build_in_csr(fanout, n)
        assert len(ptr) == n + 1
        for r in range(n):
            window = slice(ptr[r], ptr[r + 1])
            assert list(src[window]) == [
                s for s in range(n) if r in fanout[s]
            ]
            assert all(d == r for d in dst[window])


class TestInboxViews:
    def _column(self):
        labels = ["a", "b", "c", "d"]
        msgs = [Message(label, ord(label), 8) for label in labels]
        box = _ColumnInbox(labels, msgs)
        box._lo, box._hi = 1, 4
        return box, labels, msgs

    def test_column_inbox_is_a_mapping(self):
        from collections.abc import Mapping

        box, labels, msgs = self._column()
        assert isinstance(box, Mapping)
        assert len(box) == 3 and box
        assert list(box) == box.keys() == ["b", "c", "d"]
        assert box.values() == msgs[1:4]
        assert box.items() == list(zip(labels[1:], msgs[1:]))
        assert box["c"] == msgs[2]
        assert box.get("a") is None and "a" not in box
        assert "b" in box
        assert box == dict(zip(labels[1:], msgs[1:]))
        with pytest.raises(KeyError):
            box["zz"]

    def test_column_inbox_self_skip(self):
        box, labels, msgs = self._column()
        box._lo, box._hi, box._skip = 0, 4, 2  # clique view of node "c"
        assert len(box) == 3
        assert box.keys() == ["a", "b", "d"]
        assert box.values() == [msgs[0], msgs[1], msgs[3]]
        assert "c" not in box

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
        assert box.keys() == ["b", "c", "d"]
        assert box.values() == msgs[1:4]
        assert box["d"] == msgs[3]
        assert box.get("zz", 0) == 0 and "zz" not in box
        assert box == dict(zip(labels[1:], msgs[1:]))
        column = _ColumnInbox(labels, msgs)
        column._lo, column._hi = 1, 4
        assert box == column and column == box


# ----------------------------------------------------------------------
# Plane caching, the clique shape, and the numpy-absent error
# ----------------------------------------------------------------------


class TestPlaneAndEngineEdges:
    def _flood_factory(self, network):
        from repro.simulator.algorithms.flooding import ExtremumFloodProgram

        return lambda v: ExtremumFloodProgram(network.node_id(v))

    def test_plane_cached_across_runs(self):
        network = Network(harary_graph(4, 12), rng=3)
        factory = self._flood_factory(network)
        first = SyncRunner(network, rng=5, engine="vectorized").run(factory)
        planes = network._repro_vector_planes
        assert len(planes) == 1
        plane = next(iter(planes.values()))
        interned_after_first = len(plane.interner)
        assert interned_after_first > 0
        second = SyncRunner(network, rng=5, engine="vectorized").run(factory)
        assert network._repro_vector_planes is planes
        assert next(iter(planes.values())) is plane  # reused, not rebuilt
        # Warm run re-interns nothing new — same payload population.
        assert len(plane.interner) == interned_after_first
        assert first.outputs == second.outputs

    def test_clique_transport_matches_indexed(self):
        network = Network(harary_graph(4, 10), rng=3)
        factory = self._flood_factory(network)
        results = {}
        traces = {}
        for engine in ("indexed", "vectorized"):
            tracer = Tracer()
            results[engine] = simulate(
                network,
                tracer.wrap(factory),
                model=Model.CONGESTED_CLIQUE,
                rng=5,
                engine=engine,
            )
            traces[engine] = [repr(e) for e in tracer.trace.events]
        assert results["vectorized"].outputs == results["indexed"].outputs
        assert traces["vectorized"] == traces["indexed"]
        a, b = results["vectorized"].metrics, results["indexed"].metrics
        assert (a.rounds, a.messages, a.bits) == (b.rounds, b.messages, b.bits)

    def test_missing_numpy_raises_clean_error(self, monkeypatch):
        monkeypatch.setattr(rv, "np", None)
        assert not rv.numpy_available()
        network = Network(nx.path_graph(4), rng=1)
        with pytest.raises(SimulationError, match="requires numpy"):
            simulate(
                network,
                self._flood_factory(network),
                rng=2,
                engine="vectorized",
            )


class TestWarmSendCacheBudget:
    """The warm-send cache must never outlive the budget it validated
    against: runs over the same Network with a different
    ``bits_per_message`` re-validate every send, exactly like the
    indexed loop."""

    class _OneShotBroadcast(NodeProgram):
        def __init__(self, payload):
            self._payload = payload

        def on_start(self, ctx):
            # Send from on_round only, so the payload travels through
            # the warm-send cache path (on_start validates directly).
            return None

        def on_round(self, ctx, inbox):
            if ctx.round == 1:
                return self._payload
            ctx.halt(output=len(inbox))
            return None

    def test_budget_change_revalidates_cached_sends(self):
        network = Network(nx.cycle_graph(6), rng=1)
        payload = (900, 901)  # well under 1000 bits, well over 8
        factory = lambda v: self._OneShotBroadcast(payload)  # noqa: E731
        generous = simulate(
            network, factory, rng=2, engine="vectorized",
            bits_per_message=1000,
        )
        assert generous.halted
        plane = next(iter(network._repro_vector_planes.values()))
        assert plane.send_cache  # the generous run primed the cache
        with pytest.raises(ModelViolationError) as vec_err:
            simulate(
                network, factory, rng=2, engine="vectorized",
                bits_per_message=8,
            )
        with pytest.raises(ModelViolationError) as idx_err:
            simulate(
                network, factory, rng=2, engine="indexed",
                bits_per_message=8,
            )
        assert str(vec_err.value) == str(idx_err.value)
        assert plane.cache_budget == 8

    def test_same_budget_reuses_cache(self):
        network = Network(nx.cycle_graph(6), rng=1)
        factory = lambda v: self._OneShotBroadcast((3, 4))  # noqa: E731
        simulate(network, factory, rng=2, engine="vectorized")
        plane = next(iter(network._repro_vector_planes.values()))
        cached = dict(plane.send_cache)
        assert cached
        simulate(network, factory, rng=2, engine="vectorized")
        assert plane.send_cache == cached  # warm run, nothing re-keyed


class TestDictSubclassDispatch:
    def test_dict_subclass_routes_as_addressed_traffic(self):
        """``Transport.validate`` dispatches addressed traffic with
        ``isinstance``, so an OrderedDict return must be addressed
        traffic on every engine — not an interning-path error."""
        from collections import OrderedDict

        def run(engine):
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

            result = simulate(
                network,
                lambda v: Addressor(v),
                model=Model.E_CONGEST,
                rng=4,
                engine=engine,
                max_rounds=10,
            )
            return log, list(result.outputs.items()), result.halted

        assert run("vectorized") == run("indexed")
