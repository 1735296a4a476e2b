"""Fractional spanning tree packing (Section 5, Theorem 1.3).

Two layers:

* :func:`mwu_spanning_packing` — the Lagrangian-relaxation / MWU core for
  ``λ = O(log n)`` (Section 5.1): maintain a weighted tree collection of
  total weight 1; per iteration, exponentially penalize loaded edges
  (``c_e = exp(α·z_e)``), compute the MST under these costs, stop when
  ``Cost(MST) > (1−ε)·Σ c_e x_e`` (Lemma F.1 then gives
  ``max_e z_e ≤ 1+O(ε)``), otherwise blend the MST in with weight
  ``β = Θ(1/(α log n))``.
* :func:`fractional_spanning_tree_packing` — the general case
  (Section 5.2): split edges into ``η`` random parts via Karger sampling
  so each part has connectivity ``Θ(log n / ε²)``, pack each part, and
  take the union.

Numerics: ``c_e`` can be astronomically large, but both the MST and the
stopping rule are invariant under dividing all costs by a constant, so we
compute ``c_e = exp(α·(z_e − z_max))`` — exactly the paper's quantities,
renormalized (footnote 6 makes the same point for message size).

Both loops — the MWU iterations and the Karger parts — live only here.
The per-iteration step (each MST and the stopping verdict) is the one
part that varies: Kruskal with float sums by default, or Section 5.1's
protocol (distributed MST, convergecast, verdict broadcast), which
:mod:`repro.core.spanning_packing_distributed` binds to each part's
network and passes as ``step``.

Implementation: the inner loop runs on the :mod:`repro.fastgraph`
kernel — the graph is canonicalized once into an
:class:`~repro.fastgraph.IndexedGraph`, loads/costs live in flat lists
indexed by edge id, the MST is a Kruskal scan over a persistently
near-sorted edge order (cost is a monotone transform of load, so the
order barely moves between iterations), and the per-iteration
``O(|collection|)`` weight decay is replaced by a lazy per-tree replay.
The replay applies, per tree, exactly the multiplication sequence the
eager loop would have, so results are bit-identical to the preserved
pre-kernel implementation
(``tests/oracles/spanning_packing_reference.py``) under fixed seeds —
``tests/test_fastgraph.py`` enforces this. Trees are ``frozenset``\\ s
of edge indices internally and reach the packing in index form (edge
ids); a tree becomes a :class:`networkx.Graph` only when a caller reads
:attr:`~repro.core.tree_packing.WeightedTree.tree`.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from typing import (
    Callable, Dict, FrozenSet, Hashable, List, Optional, Sequence, Tuple,
)

import networkx as nx

from repro.errors import (
    GraphValidationError,
    PackingConstructionError,
    PackingValidationError,
)
from repro.core.tree_packing import (
    _TOLERANCE,
    SpanningTreePacking,
    WeightedTree,
)
from repro.fastgraph import (
    IndexedGraph,
    IntUnionFind,
    NearSortedEdgeOrder,
    kruskal_from_order,
)
from repro.fastgraph.flow import edge_connectivity
from repro.graphs.sampling import choose_karger_parts, karger_edge_index_partition
from repro.utils.mathutil import ceil_div
from repro.utils.rng import RngLike, ensure_rng

Edge = FrozenSet[Hashable]


@dataclass(frozen=True)
class MwuParameters:
    """Constants behind the Θ(·)s of Section 5.1."""

    epsilon: float = 0.1
    alpha_factor: float = 1.0       # α = alpha_factor · ln n
    beta_factor: float = 1.0        # β = beta_factor / (α · ln n)
    max_iterations: Optional[int] = None  # default Θ(log³ n), capped

    def alpha(self, n: int) -> float:
        return max(1.0, self.alpha_factor * math.log(max(n, 2)))

    def beta(self, n: int) -> float:
        return min(0.5, self.beta_factor / (self.alpha(n) * math.log(max(n, 2))))

    def iteration_cap(self, n: int) -> int:
        if self.max_iterations is not None:
            return self.max_iterations
        log_n = math.log(max(n, 2))
        return max(200, int(40 * log_n**3))


@dataclass
class MwuTrace:
    """Per-iteration diagnostics (drives experiment E3)."""

    iterations: int = 0
    max_relative_load: List[float] = field(default_factory=list)
    stopped_early: bool = False


@dataclass
class SpanningPackingResult:
    """Outcome of a spanning tree packing construction."""

    packing: SpanningTreePacking
    lam: int                      # edge connectivity used (per part: a list)
    target: int                   # ⌈(λ−1)/2⌉ — the Tutte/Nash-Williams bound
    parts: int
    traces: List[MwuTrace]

    @property
    def size(self) -> float:
        return self.packing.size

    @property
    def efficiency(self) -> float:
        """Achieved size ÷ Tutte/Nash-Williams bound (→ 1−ε when λ ≥ 3)."""
        return self.size / max(1, self.target)


#: Section 5.1's per-iteration oracle on one part. Given the edge costs
#: and loads by part position (``costs=None`` asks for the first tree,
#: under unit costs), it returns the MST's positions and whether the
#: stopping test ``Cost(MST) > (1−ε)·Σ c_e·x_e`` fired.
MwuStep = Callable[
    [Optional[List[float]], List[float]], Tuple[Sequence[int], bool]
]
#: Binds an :data:`MwuStep` to one part: ``(graph, part edge ids, params)``.
MwuStepFactory = Callable[
    [IndexedGraph, Sequence[int], MwuParameters], MwuStep
]


def _kruskal_step(
    graph: IndexedGraph, edge_ids: Sequence[int], params: MwuParameters
) -> MwuStep:
    """The centralized :data:`MwuStep`: Kruskal over a persistently
    near-sorted edge order, and the stopping test on float sums."""
    n = graph.n
    # Compact local endpoint arrays: position p in 0..m-1 is edge
    # edge_ids[p] of the parent graph.
    parent_u = graph.u
    parent_v = graph.v
    u = [parent_u[i] for i in edge_ids]
    v = [parent_v[i] for i in edge_ids]
    uf = IntUnionFind(n)
    edge_order = NearSortedEdgeOrder(len(u))
    one_minus_eps = 1.0 - params.epsilon

    def step(costs, loads):
        if costs is None:
            return kruskal_from_order(range(len(u)), u, v, n, uf), False
        # Near-sorted persistent order: only the previous MST's edges
        # moved, so this sort is adaptive. (cost, index) reproduces the
        # stable tie-break of nx.minimum_spanning_tree exactly.
        mst = kruskal_from_order(edge_order.resort(costs), u, v, n, uf)
        # fractional_cost runs left-to-right over the same edge order as
        # the reference's built-in sum() — identical floats. mst_cost
        # sums the same terms in acceptance order (the reference
        # iterates a frozenset); the stopping comparison has the (1−ε)
        # duality gap of slack, and the fixed-seed bit-identity tests
        # pin the outcome.
        mst_cost = sum(map(costs.__getitem__, mst))
        fractional_cost = sum(map(operator.mul, costs, loads))
        return mst, mst_cost > one_minus_eps * fractional_cost

    return step


def _mwu_indexed(
    graph: IndexedGraph,
    edge_ids: Sequence[int],
    target: int,
    params: MwuParameters,
    step: Optional[MwuStepFactory] = None,
) -> Tuple[List[Tuple[FrozenSet[int], float]], MwuTrace]:
    """Section 5.1's MWU loop over a (connected) edge subset, index-side.

    ``edge_ids`` must already be in networkx node-major order (see
    :meth:`IndexedGraph.nx_edge_order`) so that cost ties break exactly
    as the pre-kernel implementation's ``nx.minimum_spanning_tree``
    broke them. ``step`` binds each iteration's MST and stopping test to
    the part (default: :func:`_kruskal_step`). Returns ``(collection,
    trace)`` with trees as frozensets of *parent* edge indices and
    normalized weights.
    """
    n = graph.n
    m = len(edge_ids)
    alpha = params.alpha(n)
    beta = params.beta(n)
    decay = 1.0 - beta
    epsilon = params.epsilon
    next_tree = (step or _kruskal_step)(graph, edge_ids, params)

    loads = [0.0] * m
    first, _ = next_tree(None, loads)
    if len(first) != n - 1:
        raise GraphValidationError("MWU packing requires a connected graph")
    for p in first:
        loads[p] = 1.0
    # Lazy-decay collection: tree -> [value, blend_count_when_last_touched].
    # The eager loop multiplies every weight by (1-β) per blend; here each
    # tree's pending decays are replayed (same multiplications, same
    # order) only when the tree is touched again or at the end.
    collection: Dict[FrozenSet[int], List] = {frozenset(first): [1.0, 0]}
    blends = 0
    exp = math.exp

    trace = MwuTrace()
    for _ in range(params.iteration_cap(n)):
        trace.iterations += 1
        z = [x * target for x in loads]
        z_max = max(z)
        trace.max_relative_load.append(z_max / target)
        if trace.iterations > 1 and z_max <= 1.0 + epsilon:
            # Already at the Lemma F.2 guarantee: every edge's relative
            # load is within 1+ε — nothing left to improve.
            trace.stopped_early = True
            break
        # Loads repeat across edges (same MST-membership history ⇒ same
        # load), so exp runs once per distinct z value, not per edge.
        cost_of = dict.fromkeys(z)
        for zp in cost_of:
            cost_of[zp] = exp(alpha * (zp - z_max))
        costs = [cost_of[zp] for zp in z]

        mst, stop = next_tree(costs, loads)
        if stop:
            trace.stopped_early = True
            break
        # Blend the MST in: old weights ×(1−β) (lazily), MST gains β.
        blends += 1
        key = frozenset(mst)
        entry = collection.get(key)
        if entry is None:
            collection[key] = [beta, blends]
        else:
            value, last = entry
            for _ in range(blends - last):
                value *= decay
            entry[0] = value + beta
            entry[1] = blends
        loads = [x * decay for x in loads]
        for p in mst:
            loads[p] += beta

    # Flush pending decays, then rescale so the max edge load is exactly
    # 1: the achieved size is target / max_z, which Lemmas F.1/F.2
    # lower-bound by target/(1+O(ε)).
    max_load = max(x for x in loads if x > 0.0)
    scale = 1.0 / max_load
    normalized: List[Tuple[FrozenSet[int], float]] = []
    for key, (value, last) in collection.items():
        for _ in range(blends - last):
            value *= decay
        weight = value * scale
        if weight > 1e-12:
            normalized.append(
                (frozenset(edge_ids[p] for p in key), weight)
            )
    return normalized, trace


def mwu_spanning_packing(
    graph: nx.Graph,
    lam: Optional[int] = None,
    params: Optional[MwuParameters] = None,
    class_id_base: int = 0,
) -> Tuple[List[Tuple[FrozenSet[Edge], float]], MwuTrace, int]:
    """Core MWU loop on one (connected) graph; returns raw weighted trees.

    Returns ``(collection, trace, target)`` where ``collection`` maps each
    distinct tree (as an edge set) to its *normalized* weight: weights are
    rescaled by ``1 / max_e x_e`` so the per-edge capacity is met exactly;
    the resulting total weight is the achieved packing size.
    """
    if not nx.is_connected(graph):
        raise GraphValidationError("MWU packing requires a connected graph")
    params = params or MwuParameters()
    indexed = IndexedGraph.from_networkx(graph)
    if lam is None:
        lam, _ = edge_connectivity(indexed)
    target = max(1, ceil_div(max(0, lam - 1), 2))

    raw, trace = _mwu_indexed(indexed, range(indexed.m), target, params)
    normalized = [
        (indexed.edges_to_node_sets(key), weight) for key, weight in raw
    ]
    return normalized, trace, target


def fractional_spanning_tree_packing(
    graph: nx.Graph,
    lam: Optional[int] = None,
    params: Optional[MwuParameters] = None,
    rng: RngLike = None,
    indexed: Optional[IndexedGraph] = None,
    step: Optional[MwuStepFactory] = None,
) -> SpanningPackingResult:
    """Theorem 1.3: fractional spanning tree packing of size ≈ ⌈(λ−1)/2⌉(1−ε).

    For ``λ`` beyond ``Θ(log n / ε²)``, edges are first split into ``η``
    random parts (Karger, Section 5.2) and each part is packed
    independently; spanning trees of parts are spanning trees of ``graph``
    and parts are edge-disjoint, so the union is a valid packing with size
    the sum of the parts' sizes — at least ``λ(1−ε)/2`` up to sampling loss.

    The λ oracle (:func:`repro.fastgraph.flow.edge_connectivity`) runs
    **once**, on the index of ``graph`` (and only when ``lam`` is not
    supplied): each part's connectivity is ``λ/η`` up to
    ``1 ± ε`` by Karger's theorem, so parts are sized with
    ``max(1, λ // η)`` instead of re-running the oracle per part.

    ``indexed`` shares a prebuilt canonicalization (e.g. a
    :class:`repro.api.GraphSession`'s); the RNG stream is unaffected, so
    results are bit-identical with or without it. ``step`` is the
    per-part :data:`MwuStepFactory` (default: Kruskal).
    """
    if graph.number_of_nodes() < 2:
        raise GraphValidationError("graph must have at least 2 nodes")
    if not nx.is_connected(graph):
        raise GraphValidationError("graph must be connected")
    params = params or MwuParameters()
    rand = ensure_rng(rng)
    n = graph.number_of_nodes()
    if indexed is None:
        indexed = IndexedGraph.from_networkx(graph)
    if lam is None:
        lam, _ = edge_connectivity(indexed)
    eta = choose_karger_parts(lam, n, params.epsilon)
    if eta <= 1:
        part_edge_lists: List[List[int]] = [list(range(indexed.m))]
    else:
        assignment = karger_edge_index_partition(indexed.m, eta, rand)
        buckets: List[List[int]] = [[] for _ in range(eta)]
        for i, part_id in enumerate(assignment):
            buckets[part_id].append(i)
        # Re-order each part the way networkx would report its edges, so
        # MST tie-breaks match a part built as an nx.Graph.
        part_edge_lists = [indexed.nx_edge_order(bucket) for bucket in buckets]

    trees: List[WeightedTree] = []
    traces: List[MwuTrace] = []
    class_id = 0
    packed_parts = 0
    uf = IntUnionFind(indexed.n)
    spanning_size = indexed.n - 1
    edge_load = [0.0] * indexed.m
    for part_edges in part_edge_lists:
        if not part_edges or not indexed.is_connected_via(part_edges, uf):
            # A disconnected part cannot contribute spanning trees; w.h.p.
            # this never happens for the prescribed η (E12 measures it).
            continue
        part_lam = lam if eta <= 1 else max(1, lam // eta)
        part_target = max(1, ceil_div(max(0, part_lam - 1), 2))
        normalized, trace = _mwu_indexed(
            indexed, part_edges, part_target, params, step
        )
        traces.append(trace)
        packed_parts += 1
        for tree_key, weight in normalized:
            # Index-side verification — the same constraints
            # SpanningTreePacking.verify() checks on the nx objects
            # (spanning tree per class, per-edge capacity below), done
            # on edge indices.
            if len(tree_key) != spanning_size or not indexed.is_connected_via(
                tree_key, uf
            ):
                raise PackingValidationError(
                    f"tree (class {class_id}) is not a spanning tree of "
                    "the graph"
                )
            weight = min(1.0, weight)
            edges = tuple(tree_key)
            for i in edges:
                edge_load[i] += weight
            trees.append(
                WeightedTree.from_index(
                    indexed, range(indexed.n), edges, weight, class_id
                )
            )
            class_id += 1
    if not trees:
        raise PackingConstructionError(
            "no part produced spanning trees (graph too sparse for η parts?)"
        )
    max_edge_load = max(edge_load, default=0.0)
    if max_edge_load > 1.0 + _TOLERANCE:
        raise PackingValidationError(
            f"edge capacity violated: max edge load {max_edge_load} > 1"
        )
    packing = SpanningTreePacking(graph, trees, indexed=indexed)
    return SpanningPackingResult(
        packing=packing,
        lam=lam,
        target=max(1, ceil_div(max(0, lam - 1), 2)),
        parts=packed_parts,
        traces=traces,
    )
