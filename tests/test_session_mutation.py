"""An edited session == a fresh session on the final graph, bit for bit.

:meth:`GraphSession.add_edge` / :meth:`GraphSession.remove_edge` edit the
graph and drop everything derived from it (index, ``CdsIndex``,
fingerprint, result cache); the next read re-canonicalizes. The
contract: after *any* edit schedule the session is byte-identical
(fingerprints, payload JSON, simulation traces) to a fresh session
built from the final graph.
"""

from __future__ import annotations

import random

import networkx as nx
import pytest

from repro.api import GraphSession
from repro.errors import GraphValidationError
from repro.graphs.generators import harary_graph


def random_schedule(graph: nx.Graph, rng: random.Random, steps: int):
    """Yield (op, a, b) edits keeping the graph connected and loop-free."""
    for _ in range(steps):
        if rng.random() < 0.55 or graph.number_of_edges() <= graph.number_of_nodes():
            # add a random non-edge (occasionally to a brand-new node)
            nodes = list(graph.nodes())
            if rng.random() < 0.1:
                a = rng.choice(nodes)
                b = max(
                    (n for n in nodes if isinstance(n, int)), default=0
                ) + 1 + rng.randrange(3)
                if graph.has_edge(a, b) or a == b:
                    continue
            else:
                a, b = rng.sample(nodes, 2)
                if graph.has_edge(a, b):
                    continue
            yield ("add", a, b)
        else:
            # remove a random edge whose removal keeps the graph
            # connected — probing on a *copy*: remove+re-add on the
            # shared graph would move the probed edge to the end of
            # nx's adjacency insertion order and scramble the very
            # canonical order the differential pins.
            edges = list(graph.edges())
            rng.shuffle(edges)
            for a, b in edges:
                probe = graph.copy()
                probe.remove_edge(a, b)
                if nx.is_connected(probe):
                    yield ("remove", a, b)
                    break


def edit_session_and_graph(session, graph, rng, steps=10):
    """Apply one connectivity-preserving schedule to both; returns the
    number of edits actually applied (the schedule may skip steps)."""
    applied = 0
    for op, a, b in random_schedule(graph, rng, steps):
        if op == "add":
            session.add_edge(a, b)
            graph.add_edge(a, b)
        else:
            session.remove_edge(a, b)
            graph.remove_edge(a, b)
        applied += 1
    return applied


@pytest.mark.parametrize("schedule_seed", range(3))
def test_session_differential_byte_identity(schedule_seed):
    """A mutated session == a fresh session from the final graph.

    Fingerprint, connectivity/packing payload JSON, and simulation
    traces must agree byte for byte.
    """
    rng = random.Random(42 + schedule_seed)
    graph = harary_graph(4, 12)
    session = GraphSession(graph, label="edited")
    session.connectivity(seed=1)  # warm the index + caches pre-edit
    shadow = graph.copy()
    applied = edit_session_and_graph(session, shadow, rng, steps=12)
    assert applied >= 6  # the schedule really exercised the edit path

    fresh = GraphSession(shadow.copy(), label="edited")
    assert session.fingerprint == fresh.fingerprint
    assert (
        session.connectivity(seed=1).canonical_json()
        == fresh.connectivity(seed=1).canonical_json()
    )
    assert (
        session.pack_cds(seed=2).canonical_json()
        == fresh.pack_cds(seed=2).canonical_json()
    )
    assert (
        session.simulate(program="flood-min", seed=3).canonical_json()
        == fresh.simulate(program="flood-min", seed=3).canonical_json()
    )
    assert session.stats["mutations"] == applied
    # Edits cost nothing until a read; the reads after the whole
    # schedule share one re-canonicalization.
    assert session.stats["canonicalizations"] == 2


def test_session_mutation_invalidates_dependent_layers():
    session = GraphSession("harary:4,12")
    before = session.connectivity(seed=0)
    fp_before = session.fingerprint
    cds_before = session.cds_index
    builds = session.stats["canonicalizations"]
    session.add_edge(0, 6)
    assert session.generation == 1
    assert session.fingerprint != fp_before
    assert session.stats["canonicalizations"] == builds + 1
    assert session.cds_index is not cds_before
    after = session.connectivity(seed=0)
    assert after.payload != before.payload or after.fingerprint != before.fingerprint
    assert session.stats["invalidations"] >= 1
    # an edit followed by reads costs exactly one more canonicalization
    assert session.stats["canonicalizations"] == builds + 1
    # undo: everything converges back to the original fingerprint
    session.remove_edge(0, 6)
    assert session.fingerprint == fp_before
    assert session.stats["canonicalizations"] == builds + 2


def test_session_mutation_validation_errors():
    session = GraphSession("harary:4,12")
    with pytest.raises(GraphValidationError):
        session.add_edge(3, 3)
    with pytest.raises(GraphValidationError):
        session.add_edge(0, 1)
    with pytest.raises(GraphValidationError):
        session.remove_edge(0, 5)
    assert session.stats["mutations"] == 0


def test_session_result_cache_lru_bound(monkeypatch):
    """The per-session result cache is bounded and counts evictions."""
    monkeypatch.setattr("repro.api.session.RESULT_CACHE_LIMIT", 3)
    session = GraphSession("harary:4,12")
    for seed in range(6):
        session.connectivity(seed=seed)
    assert len(session._results) <= 3
    assert session.stats["evictions"] > 0
    # most-recent seeds are still warm
    hits_before = session.stats["cache_hits"]
    session.connectivity(seed=5)
    assert session.stats["cache_hits"] == hits_before + 1
