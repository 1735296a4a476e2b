"""Fractional CDS / dominating tree packing — centralized driver.

This is Theorem 1.2: an ``Õ(m)`` algorithm producing ``Ω(k)`` connected
dominating sets such that each node is in ``O(log n)`` of them, i.e. a
fractional dominating tree packing of size ``Ω(k / log n)``.

Pipeline (Section 3.1):

1. build the virtual graph with ``L = Θ(log n)`` layers and ``t = Θ(k)``
   classes;
2. jump-start layers ``1..L/2`` randomly (domination, Lemma 4.1);
3. recursively assign layers ``L/2+1..L`` via the bridging graph and a
   maximal matching (connectivity, Lemma 4.4);
4. project classes onto the real graph, turn each CDS into a dominating
   tree (the paper uses a 0/1-weight MST; a per-class BFS spanning tree is
   the same object), and weight trees uniformly at ``1 / max-load`` so the
   vertex capacity 1 is met exactly.

The w.h.p. guarantees require large ``n``; as the paper's Remark 3.1
prescribes, every produced class is *tested* (domination + connectivity)
and the driver retries with fewer classes until the packing verifies, so
the function always returns a valid packing (or raises
:class:`~repro.errors.PackingConstructionError`).

When ``k`` is unknown, :func:`fractional_cds_packing` runs the try-and-error
guessing of Remark 3.1 over ``k ∈ {n/2, n/4, ...}``, accepting the first
guess for which at least half the classes pass the test.

Both loops — the guesses and the halving of ``t`` — live only here, and
serve both packings: ``PackingParameters(integral=True)`` is Section
1.2's vertex-disjoint packing (:mod:`repro.core.integral_packing`), the
same construction over a virtual graph with one virtual node per real
node. The per-layer step is the one part that varies:
:func:`~repro.core.bridging.assign_layer` by default, or the Appendix B
protocol's layer, which :mod:`repro.core.cds_packing_distributed` binds
to its network and passes as ``step``.

Implementation: the whole pipeline runs on the :mod:`repro.fastgraph`
kernel. The graph is canonicalized **once** at entry into a
:class:`~repro.core.virtual_graph.CdsIndex` (and shared across the guess
loop's repeated constructions); the recursion maintains per-class
:class:`~repro.fastgraph.union_find.IntUnionFind` projections
(:mod:`repro.core.bridging`); class validity — domination plus induced
connectivity — is decided on flat index arrays (connectivity is a single
component-count read off the union-find, domination one adjacency scan);
and the per-class BFS dominating trees are extracted index-side,
replicating ``nx.bfs_tree``'s traversal order, and handed to the packing
in index form: a tree becomes a :class:`networkx.Graph` only when a
caller reads :attr:`~repro.core.tree_packing.WeightedTree.tree`. Results are
bit-identical to the label-level implementation
(``tests/oracles/cds_packing_reference.py``) under fixed seeds;
``tests/test_cds_equivalence.py`` enforces this.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import networkx as nx

from repro.errors import (
    GraphValidationError,
    PackingConstructionError,
    PackingValidationError,
)
from repro.core.bridging import LayerStats, LayerStep, run_recursion
from repro.core.tree_packing import (
    _TOLERANCE,
    DominatingTreePacking,
    WeightedTree,
)
from repro.core.virtual_graph import CdsIndex, VirtualGraph, default_layer_count
from repro.utils.mathutil import ceil_log2
from repro.utils.rng import RngLike, child_rng, ensure_rng, fresh_seed


@dataclass(frozen=True)
class PackingParameters:
    """Tunable constants hidden inside the paper's Θ(·) notation."""

    class_factor: float = 0.5  # t = max(1, round(class_factor · k))
    layer_factor: int = 2      # L = layer_factor · ⌈log₂ n⌉ (even, ≥ min_layers)
    min_layers: int = 4
    max_attempts: int = 5      # halvings of t before giving up
    accept_fraction: float = 0.5  # guess accepted if ≥ this fraction valid
    #: Section 1.2's integral packing: each real node hosts one virtual
    #: node, at a random (layer, type), so the classes are vertex-disjoint
    #: and t = class_factor · k / ⌈log₂ n⌉.
    integral: bool = False

    def n_classes(self, k_guess: int, n: int = 2) -> int:
        divisor = ceil_log2(max(2, n)) if self.integral else 1
        return max(1, round(self.class_factor * k_guess / divisor))

    def n_layers(self, n: int) -> int:
        return default_layer_count(
            n, factor=self.layer_factor, minimum=self.min_layers
        )


@dataclass
class CdsPackingResult:
    """Everything a caller (or experiment) may want from one construction."""

    packing: DominatingTreePacking
    virtual_graph: VirtualGraph
    valid_classes: List[int]
    layer_history: List[LayerStats]
    k_guess: int
    t_requested: int
    t_used: int
    attempts: int
    #: True when Remark 3.1's guess loop accepted ``k_guess``: every
    #: larger guess, the last about ``2·k_guess``, was rejected.
    accepted: bool = False

    @property
    def size(self) -> float:
        return self.packing.size


def build_cds_classes(
    graph: nx.Graph,
    n_classes: int,
    n_layers: int,
    rng: RngLike = None,
    index: Optional[CdsIndex] = None,
    step: Optional[LayerStep] = None,
    integral: bool = False,
) -> Tuple[VirtualGraph, List[LayerStats]]:
    """Run the full recursive class assignment; returns the raw classes.

    This is the algorithm of Section 3.1 without the testing/retry wrapper;
    exposed separately for the analysis experiments (E8, E9, E10) that need
    the un-filtered trajectory. ``index`` shares one canonicalization
    across repeated constructions; ``step`` replaces the per-layer
    assignment (:func:`~repro.core.bridging.run_recursion`); ``integral``
    first draws the random layering (one virtual node per real node).
    ``rng`` gives one draw, the root of the construction's seed tree:
    the layering draws from its child 0, and layer ``ℓ`` from its
    child ``ℓ``.
    """
    seed = fresh_seed(ensure_rng(rng))
    vg = VirtualGraph(
        graph, layers=n_layers, n_classes=n_classes, index=index,
        layering_rng=child_rng(seed, 0) if integral else None,
    )
    history = run_recursion(vg, seed, step=step)
    return vg, history


def _valid_class_ids(graph: nx.Graph, vg: VirtualGraph) -> List[int]:
    """Classes whose real projection is a CDS (the Appendix E criteria).

    Index-side: induced connectivity is one component-count read off the
    class union-find (the projection's components are exactly what it
    tracks); domination is the class's own check, which the bridging
    sweep has usually made and kept already.
    """
    return [
        s.class_id for s in vg.classes
        if s.n_components() == 1 and s.dominates()
    ]


def _bfs_tree_indices(
    adj: List[List[int]], member: bytearray, root: int, n_members: int
) -> List[Tuple[int, int]]:
    """BFS tree edges over the members, in nx traversal order.

    Visits neighbors in adjacency order from ``root`` — exactly the
    traversal ``nx.bfs_tree(graph.subgraph(members), root)`` performs —
    so the extracted dominating tree matches the reference's
    :func:`~repro.core.tree_packing.spanning_tree_of` edge for edge.
    """
    visited = bytearray(len(member))
    visited[root] = 1
    queue = deque([root])
    edges: List[Tuple[int, int]] = []
    while queue:
        a = queue.popleft()
        for b in adj[a]:
            if member[b] and not visited[b]:
                visited[b] = 1
                edges.append((a, b))
                queue.append(b)
    if len(edges) != n_members - 1:
        raise PackingValidationError(
            "node set does not induce a connected graph"
        )
    return edges


def _packing_from_classes(
    graph: nx.Graph, vg: VirtualGraph, class_ids: Sequence[int]
) -> DominatingTreePacking:
    """Project classes to CDSs and weight the resulting dominating trees.

    Per-class weight ``w_i = 1 / max_{v ∈ S_i} load(v)`` where ``load(v)``
    counts the valid classes containing ``v``. This is always feasible —
    at any node ``v``, ``Σ_{i ∋ v} w_i ≤ Σ_{i ∋ v} 1/load(v) = 1`` — and
    dominates the uniform ``1/max-load`` weighting, tightening the
    achieved Ω(k / log n) size. Trees are per-class BFS spanning trees of
    the CDS (the same object as the paper's 0/1-weight MST trick).

    Index-side verification happens here: domination and induced
    connectivity of every class were established by
    :func:`_valid_class_ids`, the BFS guarantees each tree spans its
    class, and the per-vertex load bound is checked below on flat
    arrays — the same constraints
    :meth:`~repro.core.tree_packing.DominatingTreePacking.verify` checks
    on the nx objects.
    """
    index = vg.index
    adj = index.adj
    n = index.n
    class_members: Dict[int, List[int]] = {
        class_id: sorted(vg.classes[class_id].multiplicity_by_index)
        for class_id in class_ids
    }
    load = [0] * n
    for members in class_members.values():
        for i in members:
            load[i] += 1
    member = bytearray(n)
    vertex_load = [0.0] * n
    weighted = []
    for class_id, members in class_members.items():
        for i in members:
            member[i] = 1
        edges = _bfs_tree_indices(adj, member, members[0], len(members))
        for i in members:
            member[i] = 0
        class_max_load = max(load[i] for i in members)
        weight = 1.0 / max(1, class_max_load)
        for i in members:
            vertex_load[i] += weight
        weighted.append(
            WeightedTree.from_index(
                index.indexed, members, edges, weight, class_id
            )
        )
    max_load = max(vertex_load, default=0.0)
    if max_load > 1.0 + _TOLERANCE:
        raise PackingValidationError(
            f"vertex capacity violated: max node load {max_load} > 1"
        )
    return DominatingTreePacking(graph, weighted, indexed=index.indexed)


def construct_cds_packing(
    graph: nx.Graph,
    k_guess: int,
    params: Optional[PackingParameters] = None,
    rng: RngLike = None,
    index: Optional[CdsIndex] = None,
    step: Optional[LayerStep] = None,
) -> CdsPackingResult:
    """Build a packing for a known (2-approximate) connectivity guess.

    Retries with halved class counts when too few classes verify — the
    library-level guarantee is that the returned packing is always valid
    (the defining constraints are re-checked index-side during
    construction). ``index`` shares a prebuilt canonicalization;
    ``step`` is the per-layer assignment (:func:`build_cds_classes`).
    """
    if graph.number_of_nodes() < 2:
        raise GraphValidationError("graph must have at least 2 nodes")
    if index is None:
        index = CdsIndex(graph)
    if not index.connected:
        raise GraphValidationError("graph must be connected")
    if k_guess < 1:
        raise GraphValidationError("k_guess must be >= 1")
    params = params or PackingParameters()
    rand = ensure_rng(rng)

    n = graph.number_of_nodes()
    t_requested = params.n_classes(k_guess, n)
    n_layers = params.n_layers(n)
    t = t_requested
    for attempt in range(1, params.max_attempts + 1):
        vg, history = build_cds_classes(
            graph, t, n_layers, rand, index=index, step=step,
            integral=params.integral,
        )
        valid = _valid_class_ids(graph, vg)
        if valid:
            packing = _packing_from_classes(graph, vg, valid)
            return CdsPackingResult(
                packing=packing,
                virtual_graph=vg,
                valid_classes=valid,
                layer_history=history,
                k_guess=k_guess,
                t_requested=t_requested,
                t_used=t,
                attempts=attempt,
            )
        if t == 1:
            break
        t = max(1, t // 2)
    raise PackingConstructionError(
        f"no valid CDS classes after {params.max_attempts} attempts "
        f"(k_guess={k_guess}); is the graph connected and non-trivial?"
    )


def fractional_cds_packing(
    graph: nx.Graph,
    k: Optional[int] = None,
    params: Optional[PackingParameters] = None,
    rng: RngLike = None,
    index: Optional[CdsIndex] = None,
    step: Optional[LayerStep] = None,
) -> CdsPackingResult:
    """Fractional dominating tree packing (Theorems 1.1/1.2 object).

    ``k`` is an optional 2-approximation of the vertex connectivity; when
    omitted, the try-and-error guessing of Remark 3.1 finds a suitable
    scale: guesses ``n/2, n/4, …`` are tried until at least an
    ``accept_fraction`` of the classes pass the CDS test and ``t`` was
    never halved; the accepted result is marked ``accepted``. If no
    guess is accepted, the largest packing any guess built is returned.
    The graph is canonicalized once and the :class:`CdsIndex` shared
    across guesses; ``step`` is the per-layer assignment
    (:func:`build_cds_classes`).
    """
    params = params or PackingParameters()
    rand = ensure_rng(rng)
    if index is None:
        index = CdsIndex(graph)
    if k is not None:
        return construct_cds_packing(
            graph, k, params, rand, index=index, step=step
        )

    n = graph.number_of_nodes()
    guess = max(1, n // 2)
    best: Optional[CdsPackingResult] = None
    while True:
        try:
            result = construct_cds_packing(
                graph, guess, params, rand, index=index, step=step
            )
        except PackingConstructionError:
            result = None
        if result is not None:
            if best is None or result.size > best.size:
                best = result
            accepted = (
                len(result.valid_classes)
                >= params.accept_fraction * result.t_requested
                and result.t_used == result.t_requested
            )
            if accepted:
                result.accepted = True
                return result
        if guess == 1:
            break
        guess //= 2
    if best is not None:
        return best
    raise PackingConstructionError(
        "try-and-error guessing failed for every scale"
    )
