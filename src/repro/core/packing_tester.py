"""Testing a CDS partition (Appendix E / Lemma E.1).

Given a partition of the vertices into classes ``V_1 … V_t`` (in the
paper, of the *virtual* graph's vertices; the protocol is identical on any
graph), test w.h.p. whether every class is a CDS:

* **Domination test** — one round of class-number exchange; a node not
  dominated by some class floods ``domination-failure`` for Θ(D) rounds.
* **Connectivity test** — identify each class's components (Theorem B.2
  subroutine); one round of (class, component-id) exchange; then Θ(log n)
  rounds in which every node broadcasts the component id it knows for a
  *random* class. A node that ever hears two different component ids for
  the same class has detected a disconnection (the "detector paths" of
  the proof guarantee detection w.h.p.); failures flood for Θ(D) rounds.

One-sided error: if every class is a CDS the test always passes; if some
class is not, the test fails w.h.p. (benchmark E11 measures the detection
probability under injected faults). All nodes end with a consistent
verdict.

The centralized twin is deterministic and exact (O(m·t) worst case),
matching the paper's ``O(m')``-steps domination test plus disjoint-set
connectivity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional, Set, Tuple

import networkx as nx

from repro.errors import GraphValidationError
from repro.fastgraph.indexed import IndexedGraph
from repro.fastgraph.union_find import IntUnionFind
from repro.simulator.algorithms.exchange import exchange_once
from repro.simulator.algorithms.subgraph_flood import identify_components
from repro.simulator.metrics import SimulationMetrics
from repro.simulator.network import Network
from repro.simulator.transport import Model
from repro.utils.mathutil import whp_repeats
from repro.utils.rng import RngLike, ensure_rng


@dataclass
class CdsTestReport:
    """Verdict of a CDS-partition test."""

    passed: bool
    domination_ok: bool
    connectivity_ok: bool
    failing_classes: List[int]
    rounds: int = 0

    def __bool__(self) -> bool:
        return self.passed


def cds_partition_test_centralized(
    graph: nx.Graph, class_of: Dict[Hashable, int], n_classes: int
) -> CdsTestReport:
    """Deterministic exact test: is every class a CDS? (centralized twin).

    Runs on the :mod:`repro.fastgraph` kernel — node classes in a flat
    list, domination as set algebra over int adjacency, connectivity as
    one :class:`IntUnionFind` sweep over the edge array. O(m + n·t)
    with array constants, matching the paper's ``O(m')`` steps.
    """
    if set(class_of) != set(graph.nodes()):
        raise GraphValidationError("class_of must cover exactly the graph nodes")
    indexed = IndexedGraph.from_networkx(graph)
    cls = [class_of[node] for node in indexed.nodes]
    failing: Set[int] = set()
    all_classes = frozenset(range(n_classes))
    failing.update(all_classes.difference(cls))

    # Domination: every node must see every class in its closed neighborhood.
    domination_ok = True
    adjacency = indexed.neighbors()
    for x in range(indexed.n):
        seen = {cls[x]}
        seen.update(cls[y] for y in adjacency[x])
        missing = all_classes - seen
        if missing:
            failing |= missing
            domination_ok = False

    # Connectivity: one union-find sweep over same-class edges.
    uf = IntUnionFind(indexed.n)
    for a, b in zip(indexed.u, indexed.v):
        if cls[a] == cls[b]:
            uf.union(a, b)
    roots: Dict[int, int] = {}
    connectivity_ok = True
    for x in range(indexed.n):
        class_id = cls[x]
        root = uf.find(x)
        if class_id in roots and roots[class_id] != root:
            failing.add(class_id)
            connectivity_ok = False
        roots.setdefault(class_id, root)

    return CdsTestReport(
        passed=not failing,
        domination_ok=domination_ok,
        connectivity_ok=connectivity_ok,
        failing_classes=sorted(failing),
    )


def distributed_cds_partition_test(
    network: Network,
    class_of: Dict[Hashable, int],
    n_classes: int,
    rng: RngLike = None,
    detection_rounds: Optional[int] = None,
) -> CdsTestReport:
    """The randomized distributed test of Appendix E on the simulator.

    Chains the protocol's phases as simulator runs (round counts add up in
    the returned report): class exchange → domination check → component
    identification → component-id exchange → Θ(log n) random-class
    detection rounds. Failure flooding is accounted as one extra
    D-round phase when a failure exists (every node must learn it).
    """
    rand = ensure_rng(rng)
    graph = network.graph
    nodes = network.nodes
    metrics = SimulationMetrics()

    # Phase 1: everyone announces its class; check domination locally.
    heard, res = exchange_once(network, dict(class_of), model=Model.V_CONGEST)
    metrics.merge(res.metrics)
    domination_ok = True
    failing: Set[int] = set()
    for v in nodes:
        seen = {class_of[v]}
        seen.update(heard[v].values())
        for class_id in range(n_classes):
            if class_id not in seen:
                domination_ok = False
                failing.add(class_id)

    # Phase 2: component identification within each class (same-class
    # edges only — every node is in exactly one class, so one flood run
    # covers all classes simultaneously).
    adjacency = {
        v: {u for u in graph.neighbors(v) if class_of[u] == class_of[v]}
        for v in nodes
    }
    comp_of, res = identify_components(network, nodes, adjacency)
    metrics.merge(res.metrics)

    # Phase 3: one round of (class, component-id); then Θ(log n) random
    # detection rounds. known[v][i] is the component id v heard for class i.
    known: Dict[Hashable, Dict[int, int]] = {
        v: {class_of[v]: comp_of[v]} for v in nodes
    }
    connectivity_ok = True

    def _absorb(v: Hashable, class_id: int, comp_id: int) -> bool:
        """Record a heard component id; returns True iff conflict detected."""
        prev = known[v].get(class_id)
        if prev is None:
            known[v][class_id] = comp_id
            return False
        return prev != comp_id

    payloads = {v: (class_of[v], comp_of[v]) for v in nodes}
    heard, res = exchange_once(network, payloads, model=Model.V_CONGEST)
    metrics.merge(res.metrics)
    for v in nodes:
        for class_id, comp_id in heard[v].values():
            if _absorb(v, class_id, comp_id):
                connectivity_ok = False
                failing.add(class_id)

    repeats = (
        detection_rounds
        if detection_rounds is not None
        else 4 * whp_repeats(network.n)
    )
    for _ in range(repeats):
        payloads = {}
        for v in nodes:
            choices = list(known[v])
            class_id = choices[rand.randrange(len(choices))]
            payloads[v] = (class_id, known[v][class_id])
        heard, res = exchange_once(network, payloads, model=Model.V_CONGEST)
        metrics.merge(res.metrics)
        for v in nodes:
            for class_id, comp_id in heard[v].values():
                if _absorb(v, class_id, comp_id):
                    connectivity_ok = False
                    failing.add(class_id)

    rounds = metrics.rounds
    if failing:
        # Failure flooding: Θ(D) extra rounds so all verdicts agree.
        rounds += network.diameter()
    return CdsTestReport(
        passed=not failing,
        domination_ok=domination_ok,
        connectivity_ok=connectivity_ok,
        failing_classes=sorted(failing),
        rounds=rounds,
    )
