"""Distributed fractional CDS packing (Appendix B, Theorem B.1).

The same recursion as :mod:`repro.core.cds_packing`, executed as a
protocol on the round simulator. Per layer:

1. **Component identification** (B.1) — parallel per-class min-id floods
   (the Theorem B.2 subroutine; one multi-key flood run covers all
   classes a node is active in).
2. **Bridging graph creation** (B.2) — type-1/3 new nodes pick random
   classes locally; an exchange round spreads (class, component-id)
   pairs; type-1 bridges deactivate their adjacent components, the
   deactivation bit is flooded inside components; type-3 nodes send their
   ``m_w`` messages (class + component id or the ``connector`` symbol);
   type-2 nodes assemble their neighbor lists ``List_v``.
3. **Maximal matching** (B.3) — O(log n) stages of Luby-style proposals:
   each unmatched type-2 node draws a random value per listed component,
   proposes to the best; components flood their maximum received proposal
   and broadcast the winner; accepted proposers join the component's
   class; losers prune their lists. Leftovers join random classes.

**Meta-round accounting.** Every real node simulates ``3L`` virtual
nodes; one simulated round here carries each node's vector of per-class
entries — i.e. one *meta-round* = ``3L`` real V-CONGEST rounds (Section
3.1). The result reports measured meta-rounds and the derived real-round
estimate, plus the analytic Theorem B.2 bounds for the substituted
component-identification subroutine (DESIGN.md Section 2/5).

**One construction.** The jump-start, the halving of ``t`` on
failure, the class test, the packing assembly and Remark 3.1's guess
loop are :mod:`repro.core.cds_packing`'s; this module supplies only the
per-layer step, :func:`_distributed_layer` bound to its network,
metrics, model and tracer. So both drivers draw alike: one root per
construction, and the jump-start's layers and each layer's step on
their own children of it. The step assigns all three virtual node types
on every node, so integral parameters (one virtual node per real node)
are refused.

**Transports.** The protocol runs under ``Model.V_CONGEST`` (the paper's
model) or ``Model.CONGESTED_CLIQUE`` (every broadcast reaches all n−1
nodes). Protocol *decisions* consume only traffic from graph neighbors —
every heard map is filtered through :func:`_from_neighbors`, in
deterministic ``graph.neighbors()`` order — so under a fixed seed both
transports produce the **same packing**; only the message/bit accounting
differs. The program registry exposes this as the ``cds_packing``
program (``repro simulate … program=cds_packing``), backed by
:func:`run_cds_packing_scenario`.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Any, Dict, Hashable, List, Optional, Set, Tuple

import networkx as nx

from repro.core import cds_packing
from repro.core.bridging import LayerStats
from repro.core.cds_packing import CdsPackingResult, PackingParameters
from repro.core.virtual_graph import CdsIndex, VirtualGraph
from repro.errors import GraphValidationError
from repro.simulator.algorithms.exchange import exchange_once
from repro.simulator.algorithms.multikey_flood import multikey_flood
from repro.simulator.metrics import (
    AnalyticRoundCost,
    RoundReport,
    SimulationMetrics,
)
from repro.simulator.network import Network
from repro.simulator.runner import SimulationResult
from repro.simulator.transport import Model
from repro.utils.mathutil import whp_repeats
from repro.utils.rng import RngLike, ensure_rng

_CONNECTOR = -1  # the special "connector" symbol of Appendix B.2

# Communication models the Appendix B protocol is defined for.
_SUPPORTED_MODELS = (Model.V_CONGEST, Model.CONGESTED_CLIQUE)


@dataclass
class DistributedCdsResult:
    """Result of the distributed construction, with round accounting."""

    result: CdsPackingResult
    report: RoundReport
    meta_rounds: int
    real_round_estimate: int

    @property
    def packing(self):
        return self.result.packing


def _from_neighbors(
    network: Network, heard: Dict[Hashable, Dict[Hashable, Any]]
) -> Dict[Hashable, Dict[Hashable, Any]]:
    """Restrict heard maps to graph neighbors, in adjacency order.

    Under ``CONGESTED_CLIQUE`` a broadcast reaches every node; the
    protocol's decisions must stay graph-local, so each node discards
    non-neighbor traffic. The fixed iteration order also makes every
    downstream set-insertion sequence transport-independent, which is
    what pins the same-seed same-packing guarantee across transports.
    """
    graph = network.graph
    return {
        v: {
            u: heard_v[u]
            for u in graph.neighbors(v)
            if u in heard_v
        }
        for v, heard_v in ((v, heard[v]) for v in network.nodes)
    }


#: Per node, each class it is active in → the graph neighbours active in
#: that class (the edges a per-class flood may use).
ClassLinks = Dict[Hashable, Dict[int, Set[Hashable]]]


def _class_links(network: Network, vg: VirtualGraph) -> ClassLinks:
    """The layer's :data:`ClassLinks`. Classes change only when a layer
    is applied, so every flood of one layer shares this map."""
    graph = network.graph
    real_classes = vg.real_classes
    return {
        v: {
            c: {u for u in graph.neighbors(v) if c in real_classes[u]}
            for c in real_classes[v]
        }
        for v in network.nodes
    }


def _keys_bound(allowed: ClassLinks) -> int:
    """The most classes any node is active in (the flood's key bound)."""
    return max((len(links) for links in allowed.values()), default=1)


def _identify_class_components(
    network: Network,
    allowed: ClassLinks,
    metrics: SimulationMetrics,
    model: Model,
    tracer=None,
    max_rounds: int = 100000,
) -> Dict[Hashable, Dict[int, int]]:
    """Per-class component ids for every active (node, class) pair.

    Component id = smallest node id in the component (Appendix B.1).
    """
    values = {
        v: {c: network.node_id(v) for c in allowed[v]} for v in network.nodes
    }
    keys_bound = _keys_bound(allowed)
    result = multikey_flood(
        network, values, allowed, minimize=True, keys_bound=keys_bound,
        model=model, tracer=tracer, max_rounds=max_rounds,
    )
    metrics.merge(result.metrics)
    metrics.record_phase("component-identification", result.metrics.rounds)
    return {v: (result.outputs[v] or {}) for v in network.nodes}


def _flood_deactivation(
    network: Network,
    allowed: ClassLinks,
    deactivated_seed: Dict[Hashable, Set[int]],
    metrics: SimulationMetrics,
    model: Model,
    tracer=None,
    max_rounds: int = 100000,
) -> Dict[Hashable, Set[int]]:
    """Spread per-class deactivation bits inside components (max-flood)."""
    values = {
        v: {
            c: (1 if c in deactivated_seed.get(v, ()) else 0)
            for c in allowed[v]
        }
        for v in network.nodes
    }
    keys_bound = _keys_bound(allowed)
    result = multikey_flood(
        network, values, allowed, minimize=False, keys_bound=keys_bound,
        model=model, tracer=tracer, max_rounds=max_rounds,
    )
    metrics.merge(result.metrics)
    metrics.record_phase("deactivation-flood", result.metrics.rounds)
    out: Dict[Hashable, Set[int]] = {}
    for v in network.nodes:
        final = result.outputs[v] or {}
        out[v] = {c for c, bit in final.items() if bit}
    return out


def _matching_stages(
    network: Network,
    allowed: ClassLinks,
    comp_of: Dict[Hashable, Dict[int, int]],
    lists: Dict[Hashable, List[Tuple[int, int]]],
    metrics: SimulationMetrics,
    rand,
    model: Model,
    tracer=None,
    max_rounds: int = 100000,
) -> Dict[Hashable, Optional[int]]:
    """Appendix B.3: staged proposal matching; returns type-2 class choices
    (None where the node stayed unmatched)."""
    n = network.n
    keys_bound = _keys_bound(allowed)
    stages = 2 * whp_repeats(n)
    value_bits = 4 * max(8, n.bit_length())
    assigned: Dict[Hashable, Optional[int]] = {v: None for v in network.nodes}
    matched_components: Set[Tuple[int, int]] = set()

    for _ in range(stages):
        # Unmatched type-2 nodes propose to their best-valued listed component.
        proposals: Dict[Hashable, Optional[Tuple[int, int, int, int]]] = {}
        for v in network.nodes:
            if assigned[v] is not None or not lists[v]:
                proposals[v] = None
                continue
            best = None
            for class_id, comp_id in lists[v]:
                draw = rand.getrandbits(value_bits)
                if best is None or draw > best[0]:
                    best = (draw, class_id, comp_id)
            draw, class_id, comp_id = best
            proposals[v] = (class_id, comp_id, draw, network.node_id(v))
        heard, res = exchange_once(network, proposals, model=model, tracer=tracer)
        heard = _from_neighbors(network, heard)
        metrics.merge(res.metrics)

        # Component members absorb the best proposal addressed to them.
        seed: Dict[Hashable, Dict[int, Tuple[int, int]]] = {}
        for v in network.nodes:
            mine: Dict[int, Tuple[int, int]] = {}
            for payload in heard[v].values():
                if payload is None:
                    continue
                class_id, comp_id, draw, proposer = payload
                if comp_of[v].get(class_id) != comp_id:
                    continue
                if (class_id, comp_id) in matched_components:
                    continue
                cand = (draw, proposer)
                if class_id not in mine or cand > mine[class_id]:
                    mine[class_id] = cand
            seed[v] = mine

        # Flood the maximum proposal inside each component.
        values = {
            v: {c: seed[v].get(c) for c in allowed[v]} for v in network.nodes
        }
        flood = multikey_flood(
            network, values, allowed, minimize=False, keys_bound=keys_bound,
            model=model, tracer=tracer, max_rounds=max_rounds,
        )
        metrics.merge(flood.metrics)
        metrics.record_phase("matching-flood", flood.metrics.rounds)

        # Members announce acceptances; proposers learn outcomes.
        accept_payloads: Dict[Hashable, Optional[tuple]] = {}
        for v in network.nodes:
            final = flood.outputs[v] or {}
            items = tuple(
                (c, comp_of[v][c], best[0], best[1])
                for c, best in final.items()
                if best is not None and c in comp_of[v]
            )
            accept_payloads[v] = items if items else None
        heard, res = exchange_once(
            network, accept_payloads, model=model, tracer=tracer
        )
        heard = _from_neighbors(network, heard)
        metrics.merge(res.metrics)

        for v in network.nodes:
            accepted_here: Set[Tuple[int, int]] = set()
            won: Optional[int] = None
            my_id = network.node_id(v)
            for payload in heard[v].values():
                if payload is None:
                    continue
                for class_id, comp_id, draw, proposer in payload:
                    accepted_here.add((class_id, comp_id))
                    if proposer == my_id and assigned[v] is None:
                        won = class_id
            # Own acceptance state counts too (v may be a member itself).
            own = accept_payloads[v] or ()
            for class_id, comp_id, draw, proposer in own:
                accepted_here.add((class_id, comp_id))
                if proposer == my_id and assigned[v] is None:
                    won = class_id
            if won is not None:
                assigned[v] = won
            if accepted_here:
                matched_components.update(accepted_here)
                lists[v] = [
                    pair for pair in lists[v] if pair not in accepted_here
                ]
    return assigned


def _distributed_layer(
    vg: VirtualGraph,
    new_layer: int,
    rand,
    network: Network,
    metrics: SimulationMetrics,
    model: Model,
    tracer=None,
    max_rounds: int = 100000,
) -> LayerStats:
    """One full layer of the Appendix B protocol (a
    :data:`~repro.core.bridging.LayerStep` once the network, metrics,
    model and tracer are bound)."""
    graph = network.graph
    t = vg.n_classes
    excess_before = vg.excess_components()

    # B.1: identify components of old nodes.
    allowed = _class_links(network, vg)
    comp_of = _identify_class_components(
        network, allowed, metrics, model, tracer, max_rounds
    )

    # Local random choices for type-1 / type-3 new nodes.
    type1_class = {v: rand.randrange(t) for v in network.nodes}
    type3_class = {v: rand.randrange(t) for v in network.nodes}

    # Everyone announces (class, component-id) pairs: one meta-round.
    comp_payloads = {
        v: tuple(sorted(comp_of[v].items())) or None for v in network.nodes
    }
    heard_comps, res = exchange_once(
        network, comp_payloads, model=model, tracer=tracer
    )
    heard_comps = _from_neighbors(network, heard_comps)
    metrics.merge(res.metrics)

    def classes_seen(v: Hashable) -> Dict[int, Set[int]]:
        """class -> set of component ids visible from v's closed nbhd."""
        seen: Dict[int, Set[int]] = {}
        for class_id, comp_id in comp_of[v].items():
            seen.setdefault(class_id, set()).add(comp_id)
        for payload in heard_comps[v].values():
            if payload is None:
                continue
            for class_id, comp_id in payload:
                seen.setdefault(class_id, set()).add(comp_id)
        return seen

    # B.2 deactivation: type-1 bridges mark all their class components.
    deact_seed: Dict[Hashable, Set[int]] = {v: set() for v in network.nodes}
    deactivated_pairs: Set[Tuple[int, int]] = set()
    for u in network.nodes:
        class_id = type1_class[u]
        comps = classes_seen(u).get(class_id, set())
        if len(comps) >= 2:
            # In the protocol u broadcasts (i, "connector"); adjacent
            # members of class i seed the deactivation flood.
            deactivated_pairs.update((class_id, c) for c in comps)
            for w in [u, *graph.neighbors(u)]:
                if comp_of[w].get(class_id) in comps:
                    deact_seed[w].add(class_id)
    # One meta-round for the (i, connector) broadcasts themselves.
    connector_payloads = {
        v: ((type1_class[v], _CONNECTOR),)
        if len(classes_seen(v).get(type1_class[v], ())) >= 2
        else None
        for v in network.nodes
    }
    _, res = exchange_once(network, connector_payloads, model=model, tracer=tracer)
    metrics.merge(res.metrics)
    deactivated_at = _flood_deactivation(
        network, allowed, deact_seed, metrics, model, tracer, max_rounds
    )

    # Activity + component announcement (members tell neighbors whether
    # their component is still active): one meta-round.
    activity_payloads = {}
    for v in network.nodes:
        items = tuple(
            (c, comp_id, 0 if c in deactivated_at[v] else 1)
            for c, comp_id in comp_of[v].items()
        )
        activity_payloads[v] = items if items else None
    heard_activity, res = exchange_once(
        network, activity_payloads, model=model, tracer=tracer
    )
    heard_activity = _from_neighbors(network, heard_activity)
    metrics.merge(res.metrics)

    # B.2 type-3 messages m_w: (class, comp-id | connector).
    type3_payloads: Dict[Hashable, Optional[tuple]] = {}
    suitable3: Dict[Hashable, Set[int]] = {}
    for w in network.nodes:
        class_id = type3_class[w]
        comps = classes_seen(w).get(class_id, set())
        suitable3[w] = comps
        if not comps:
            type3_payloads[w] = None
        elif len(comps) == 1:
            type3_payloads[w] = (class_id, next(iter(comps)))
        else:
            type3_payloads[w] = (class_id, _CONNECTOR)
    heard_type3, res = exchange_once(
        network, type3_payloads, model=model, tracer=tracer
    )
    heard_type3 = _from_neighbors(network, heard_type3)
    metrics.merge(res.metrics)

    # Assemble List_v for every type-2 new node (conditions (a)-(c)).
    lists: Dict[Hashable, List[Tuple[int, int]]] = {}
    for v in network.nodes:
        candidates: List[Tuple[int, int]] = []
        active_pairs: Set[Tuple[int, int]] = set()
        for c, comp_id in comp_of[v].items():
            if c not in deactivated_at[v]:
                active_pairs.add((c, comp_id))
        for payload in heard_activity[v].values():
            if payload is None:
                continue
            for c, comp_id, active in payload:
                if active:
                    active_pairs.add((c, comp_id))
        # Type-3 evidence: class -> set of (comp-id | connector) heard.
        evidence: Dict[int, Set[int]] = {}
        own3 = type3_payloads[v]
        if own3 is not None:
            evidence.setdefault(own3[0], set()).add(own3[1])
        for payload in heard_type3[v].values():
            if payload is None:
                continue
            class_id, token = payload
            evidence.setdefault(class_id, set()).add(token)
        for class_id, comp_id in active_pairs:
            tokens = evidence.get(class_id, set())
            if any(tok == _CONNECTOR or tok != comp_id for tok in tokens):
                candidates.append((class_id, comp_id))
        rand.shuffle(candidates)
        lists[v] = candidates

    bridging_candidates = sum(len(lst) for lst in lists.values())

    # B.3: staged maximal matching.
    type2_assigned = _matching_stages(
        network, allowed, comp_of, lists, metrics, rand, model, tracer,
        max_rounds,
    )
    matched = sum(1 for c in type2_assigned.values() if c is not None)
    random_type2 = 0
    type2_class: Dict[Hashable, int] = {}
    for v in network.nodes:
        if type2_assigned[v] is not None:
            type2_class[v] = type2_assigned[v]
        else:
            type2_class[v] = rand.randrange(t)
            random_type2 += 1

    by_type = (None, type1_class, type2_class, type3_class)
    nodes = vg.index.nodes
    hosts = vg.hosts[new_layer]
    vg.assign_many(
        new_layer, hosts, [by_type[vtype][nodes[i]] for i, vtype in hosts]
    )

    return LayerStats(
        layer=new_layer,
        excess_before=excess_before,
        excess_after=vg.excess_components(),
        deactivated_components=len(deactivated_pairs),
        bridging_candidates=bridging_candidates,
        matched=matched,
        random_type2=random_type2,
    )


def distributed_cds_packing(
    graph: nx.Graph,
    k_guess: Optional[int],
    params: Optional[PackingParameters] = None,
    rng: RngLike = None,
    model: Model = Model.V_CONGEST,
    network: Optional[Network] = None,
    tracer=None,
    max_rounds: int = 100000,
) -> DistributedCdsResult:
    """Theorem B.1: the fractional CDS packing as a simulator protocol.

    Returns the packing plus a :class:`RoundReport` with measured
    meta-rounds, the derived real-round estimate (×3L multiplexing), and
    the analytic Theorem B.2 costs of the substituted subroutine.

    ``k_guess=None`` runs Remark 3.1's guess loop
    (:func:`~repro.core.cds_packing.fractional_cds_packing`) over the
    protocol; the round report then covers every guess and attempt.

    ``model`` selects the transport (``V_CONGEST`` or
    ``CONGESTED_CLIQUE``; decisions are graph-local either way, so the
    packing is seed-identical across the two). ``network`` reuses an
    existing :class:`Network` (``GraphSession.simulate`` passes its own;
    it must wrap the same graph object when both are given); ``tracer``
    records every subroutine's round schedule into one transcript;
    ``max_rounds`` caps each inner flood subroutine (a runaway flood
    raises :class:`~repro.errors.SimulationError` instead of spinning).
    """
    if model not in _SUPPORTED_MODELS:
        raise GraphValidationError(
            f"distributed CDS packing runs on {[m.value for m in _SUPPORTED_MODELS]}; "
            f"got {model.value!r}"
        )
    if params is not None and params.integral:
        raise GraphValidationError(
            "the Appendix B protocol assigns all three virtual node types "
            "on every node; the integral packing is centralized only"
        )
    if network is not None:
        if graph is not None and graph is not network.graph:
            raise GraphValidationError(
                "graph and network.graph disagree; pass one or the other "
                "(or the same graph object)"
            )
        graph = network.graph
    rand = ensure_rng(rng)
    if network is None:
        network = Network(graph, rng=rand)
    metrics = SimulationMetrics()
    step = functools.partial(
        _distributed_layer, network=network, metrics=metrics, model=model,
        tracer=tracer, max_rounds=max_rounds,
    )
    result = cds_packing.fractional_cds_packing(
        graph, k_guess, params, rand,
        index=CdsIndex(graph, indexed=network.indexed), step=step,
    )
    n = network.n
    analytic = [
        AnalyticRoundCost.thurimella_components(
            n, network.diameter(), d_prime=n
        )
    ]
    return DistributedCdsResult(
        result=result,
        report=RoundReport(measured=metrics, analytic=analytic),
        meta_rounds=metrics.rounds,
        real_round_estimate=metrics.rounds * 3 * result.virtual_graph.layers,
    )


def run_cds_packing_scenario(
    network: Network,
    model: Model = Model.V_CONGEST,
    rng: RngLike = None,
    tracer=None,
    k_guess: Optional[int] = None,
    params: Optional[PackingParameters] = None,
    max_rounds: int = 100000,
) -> SimulationResult:
    """The driver of the registered ``cds_packing`` program.

    Runs :func:`distributed_cds_packing` on an existing network and
    shapes the outcome as a :class:`SimulationResult`: each node's output
    is the sorted tuple of *valid* class ids it belongs to — Section 2's
    distributed output requirement (every node knows which dominating
    trees contain it) — and the metrics are the accumulated meta-round
    accounting. ``k_guess`` defaults to the minimum degree (a cheap local
    upper bound on ``k``; the Remark 3.1 retry loop corrects
    overestimates by halving the class count).
    """
    graph = network.graph
    if k_guess is None:
        k_guess = max(1, min(d for _, d in graph.degree()))
    dist = distributed_cds_packing(
        graph,
        k_guess,
        params,
        rng,
        model=model,
        network=network,
        tracer=tracer,
        max_rounds=max_rounds,
    )
    valid = set(dist.result.valid_classes)
    vg = dist.result.virtual_graph
    outputs = {
        v: tuple(sorted(vg.real_classes[v] & valid)) for v in network.nodes
    }
    return SimulationResult(
        outputs=outputs, metrics=dist.report.measured, halted=True
    )
