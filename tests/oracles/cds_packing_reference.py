"""Label-level CDS packing — the reference the kernel pipeline follows.

This module keeps the centralized fractional CDS / dominating tree
packing pipeline in its pre-kernel form: per-node dict bookkeeping, the
generic label-keyed :class:`~repro.graphs.union_find.UnionFind`, and
``networkx``-based validity testing and tree extraction. It is the
bit-exactness oracle of the indexed pipeline:
``tests/test_cds_equivalence.py`` pins the kernel-backed
:func:`repro.core.cds_packing.construct_cds_packing` to this module
under fixed seeds — same valid classes, same trees, same weights.

Its recursion states the sweep's rule at label level, with the same
draws as :mod:`repro.core.bridging`: one root per construction, each
layer on its child :func:`~repro.utils.rng.child_rng`, one ``choices``
call per layer for every class pick (node then type), the shuffle of
the type-2 order, and for each type-2 node one ``randrange`` over its
eligible components when there are two or more — listed by class id,
then by first sight in the closed neighborhood. Any change of rule
must land here and in the kernel together. The shared result
containers (:class:`PackingParameters`, :class:`CdsPackingResult`,
:class:`LayerStats`) are imported rather than re-declared.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Optional, Sequence, Set, Tuple

import networkx as nx

from repro.errors import GraphValidationError, PackingConstructionError
from repro.core.bridging import LayerStats
from repro.core.cds_packing import (
    CdsPackingResult,
    PackingParameters,
)
from repro.core.tree_packing import (
    DominatingTreePacking,
    WeightedTree,
    spanning_tree_of,
)
from repro.core.virtual_graph import VirtualNode
from repro.graphs.connectivity import is_connected_dominating_set
from repro.graphs.union_find import UnionFind
from repro.utils.rng import RngLike, child_rng, ensure_rng, fresh_seed


@dataclass
class ClassState:
    """Per-class projection bookkeeping, label-keyed (pre-kernel form).

    ``multiplicity[v]`` counts how many virtual nodes of real node ``v``
    have joined the class so far; ``components`` is a union-find over the
    active reals, mirroring the disjoint-set structures of Appendix C.
    Kept verbatim for this preserved pipeline; the kernel-backed
    :class:`~repro.core.virtual_graph.VirtualGraph` uses
    :class:`~repro.core.virtual_graph.IndexedClassState`.
    """

    class_id: int
    multiplicity: Dict[Hashable, int] = field(default_factory=dict)
    components: UnionFind = field(default_factory=UnionFind)

    @property
    def active_reals(self) -> Set[Hashable]:
        return set(self.multiplicity)

    def is_active(self, real: Hashable) -> bool:
        return real in self.multiplicity

    def component_of(self, real: Hashable) -> Hashable:
        """Representative of the component containing active real ``real``."""
        return self.components.find(real)

    def n_components(self) -> int:
        return self.components.n_components

    def excess_components(self) -> int:
        """``max(0, N_i − 1)`` — this class's contribution to M_ℓ."""
        return max(0, self.components.n_components - 1)

    def virtual_count(self) -> int:
        """Number of virtual nodes in the class (Lemma 4.6 measures this)."""
        return sum(self.multiplicity.values())

    def add_real(self, graph: nx.Graph, real: Hashable) -> None:
        """Account one more virtual node of ``real`` joining the class,
        merging components through every active neighbor."""
        if real in self.multiplicity:
            self.multiplicity[real] += 1
            return
        self.multiplicity[real] = 1
        self.components.add(real)
        for neighbor in graph.neighbors(real):
            if neighbor in self.multiplicity:
                self.components.union(real, neighbor)


class ReferenceVirtualGraph:
    """The pre-kernel :class:`VirtualGraph`: label dicts all the way down."""

    def __init__(self, graph: nx.Graph, layers: int, n_classes: int) -> None:
        if layers < 2 or layers % 2 != 0:
            raise GraphValidationError("layers must be an even number >= 2")
        if n_classes < 1:
            raise GraphValidationError("n_classes must be >= 1")
        self.graph = graph
        self.layers = layers
        self.n_classes = n_classes
        self.assignment: Dict[VirtualNode, int] = {}
        self.classes: List[ClassState] = [
            ClassState(class_id=i) for i in range(n_classes)
        ]
        self.real_classes: Dict[Hashable, Set[int]] = {
            v: set() for v in graph.nodes()
        }

    def assign(self, vnode: VirtualNode, class_id: int) -> None:
        if vnode in self.assignment:
            raise GraphValidationError(f"virtual node {vnode} already assigned")
        if not 0 <= class_id < self.n_classes:
            raise GraphValidationError(f"class id {class_id} out of range")
        self.assignment[vnode] = class_id
        self.classes[class_id].add_real(self.graph, vnode.real)
        self.real_classes[vnode.real].add(class_id)

    def excess_components(self) -> int:
        return sum(state.excess_components() for state in self.classes)

    def projected_class_sets(self) -> List[Set[Hashable]]:
        return [state.active_reals for state in self.classes]

    def virtual_counts_per_class(self) -> List[int]:
        return [state.virtual_count() for state in self.classes]


def _closed_neighborhood(graph: nx.Graph, node: Hashable) -> List[Hashable]:
    return [node, *graph.neighbors(node)]


def _root_seed(rng: RngLike) -> int:
    """The seed tree's root: an int is its own root, else one draw."""
    if isinstance(rng, int) and not isinstance(rng, bool):
        return rng
    return fresh_seed(ensure_rng(rng))


def jump_start_reference(
    vg: ReferenceVirtualGraph, rng: RngLike = None
) -> None:
    """Label-level :func:`repro.core.bridging.jump_start`."""
    seed = _root_seed(rng)
    t = vg.n_classes
    n = vg.graph.number_of_nodes()
    for layer in range(1, vg.layers // 2 + 1):
        picks = iter(child_rng(seed, layer).choices(range(t), k=3 * n))
        for real in vg.graph.nodes():
            for vtype in (1, 2, 3):
                vg.assign(VirtualNode(real, layer, vtype), next(picks))


def _adjacent_components(
    vg: ReferenceVirtualGraph, real: Hashable, class_id: int
) -> Set[Hashable]:
    state = vg.classes[class_id]
    reps: Set[Hashable] = set()
    for w in _closed_neighborhood(vg.graph, real):
        if state.is_active(w):
            reps.add(state.component_of(w))
    return reps


def assign_layer_reference(
    vg: ReferenceVirtualGraph,
    new_layer: int,
    rng: RngLike = None,
    use_deactivation: bool = True,
    require_type3_witness: bool = True,
) -> LayerStats:
    """Label-level :func:`repro.core.bridging.assign_layer`."""
    rand = ensure_rng(rng)
    graph = vg.graph
    t = vg.n_classes
    excess_before = vg.excess_components()

    # Step 1: every class pick of the layer in one draw, node then type;
    # a type-2 node keeps its pick only if it stays unmatched.
    picks = iter(rand.choices(range(t), k=3 * graph.number_of_nodes()))
    type1_class: Dict[Hashable, int] = {}
    type2_pick: Dict[Hashable, int] = {}
    type3_class: Dict[Hashable, int] = {}
    for real in graph.nodes():
        type1_class[real] = next(picks)
        type2_pick[real] = next(picks)
        type3_class[real] = next(picks)

    # Deactivation (condition (b)).
    deactivated: Set[Tuple[int, Hashable]] = set()
    for real, class_id in type1_class.items():
        reps = _adjacent_components(vg, real, class_id)
        if len(reps) >= 2:
            deactivated.update((class_id, rep) for rep in reps)

    # Suitable components of each type-3 new node (feeds condition (c)).
    suitable3: Dict[Hashable, Set[Hashable]] = {
        real: _adjacent_components(vg, real, class_id)
        for real, class_id in type3_class.items()
    }

    # Steps 2-3: bridging adjacency + greedy maximal matching; a type-2
    # node joins a uniformly random eligible component.
    matched: Set[Tuple[int, Hashable]] = set()
    type2_class: Dict[Hashable, int] = {}
    bridging_candidates = 0
    random_type2 = 0
    order = list(graph.nodes())
    rand.shuffle(order)
    for real in order:
        neighborhood = _closed_neighborhood(graph, real)
        if require_type3_witness:
            # Condition (c) needs a type-3 new neighbor of the class that
            # sees one of its components.
            classes = {
                type3_class[u] for u in neighborhood if suitable3[u]
            }
        else:
            classes = {c for w in neighborhood for c in vg.real_classes[w]}
        candidates: List[Tuple[int, Hashable]] = []
        for class_id in sorted(classes):
            state = vg.classes[class_id]
            for w in neighborhood:
                if state.is_active(w):
                    key = (class_id, state.component_of(w))
                    if key not in candidates:
                        candidates.append(key)

        eligible: List[Tuple[int, Hashable]] = []
        for class_id, rep in candidates:
            key = (class_id, rep)
            if use_deactivation and key in deactivated:
                continue
            if key in matched:
                continue
            if require_type3_witness:
                bridged = False
                for u in neighborhood:
                    if type3_class[u] != class_id:
                        continue
                    if any(other != rep for other in suitable3[u]):
                        bridged = True
                        break
                if not bridged:
                    continue
            eligible.append(key)

        if eligible:
            pick = rand.randrange(len(eligible)) if len(eligible) >= 2 else 0
            bridging_candidates += 1
            matched.add(eligible[pick])
            type2_class[real] = eligible[pick][0]
        else:
            type2_class[real] = type2_pick[real]
            random_type2 += 1

    for real in graph.nodes():
        vg.assign(VirtualNode(real, new_layer, 1), type1_class[real])
        vg.assign(VirtualNode(real, new_layer, 2), type2_class[real])
        vg.assign(VirtualNode(real, new_layer, 3), type3_class[real])

    return LayerStats(
        layer=new_layer,
        excess_before=excess_before,
        excess_after=vg.excess_components(),
        deactivated_components=len(deactivated),
        bridging_candidates=bridging_candidates,
        matched=len(matched),
        random_type2=random_type2,
    )


def run_recursion_reference(
    vg: ReferenceVirtualGraph,
    rng: RngLike = None,
    use_deactivation: bool = True,
    require_type3_witness: bool = True,
) -> List[LayerStats]:
    """Label-level :func:`repro.core.bridging.run_recursion`."""
    seed = _root_seed(rng)
    jump_start_reference(vg, seed)
    history: List[LayerStats] = []
    for layer in range(vg.layers // 2 + 1, vg.layers + 1):
        history.append(
            assign_layer_reference(
                vg,
                layer,
                child_rng(seed, layer),
                use_deactivation=use_deactivation,
                require_type3_witness=require_type3_witness,
            )
        )
    return history


def build_cds_classes_reference(
    graph: nx.Graph,
    n_classes: int,
    n_layers: int,
    rng: RngLike = None,
) -> Tuple[ReferenceVirtualGraph, List[LayerStats]]:
    """Label-level :func:`repro.core.cds_packing.build_cds_classes`: one
    draw from ``rng`` roots the seed tree."""
    vg = ReferenceVirtualGraph(graph, layers=n_layers, n_classes=n_classes)
    history = run_recursion_reference(vg, fresh_seed(ensure_rng(rng)))
    return vg, history


def _valid_class_ids_reference(
    graph: nx.Graph, vg: ReferenceVirtualGraph
) -> List[int]:
    """Classes whose real projection is a CDS (the Appendix E criteria)."""
    valid = []
    for state in vg.classes:
        members = state.active_reals
        if members and is_connected_dominating_set(graph, members):
            valid.append(state.class_id)
    return valid


def _packing_from_classes_reference(
    graph: nx.Graph, vg: ReferenceVirtualGraph, class_ids: Sequence[int]
) -> DominatingTreePacking:
    """Project classes to CDSs and weight the resulting dominating trees."""
    class_nodes = {
        class_id: vg.classes[class_id].active_reals for class_id in class_ids
    }
    membership: dict = {v: 0 for v in graph.nodes()}
    for members in class_nodes.values():
        for v in members:
            membership[v] += 1
    weighted = []
    for class_id, members in class_nodes.items():
        tree = spanning_tree_of(graph, members)
        class_max_load = max(membership[v] for v in members)
        weighted.append(
            WeightedTree(
                tree=tree,
                weight=1.0 / max(1, class_max_load),
                class_id=class_id,
            )
        )
    return DominatingTreePacking(graph, weighted)


def construct_cds_packing_reference(
    graph: nx.Graph,
    k_guess: int,
    params: Optional[PackingParameters] = None,
    rng: RngLike = None,
) -> CdsPackingResult:
    """Label-level :func:`repro.core.cds_packing.construct_cds_packing`."""
    if graph.number_of_nodes() < 2:
        raise GraphValidationError("graph must have at least 2 nodes")
    if not nx.is_connected(graph):
        raise GraphValidationError("graph must be connected")
    if k_guess < 1:
        raise GraphValidationError("k_guess must be >= 1")
    params = params or PackingParameters()
    rand = ensure_rng(rng)

    t_requested = params.n_classes(k_guess)
    n_layers = params.n_layers(graph.number_of_nodes())
    t = t_requested
    for attempt in range(1, params.max_attempts + 1):
        vg, history = build_cds_classes_reference(graph, t, n_layers, rand)
        valid = _valid_class_ids_reference(graph, vg)
        if valid:
            packing = _packing_from_classes_reference(graph, vg, valid)
            packing.verify()
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


def fractional_cds_packing_reference(
    graph: nx.Graph,
    k: Optional[int] = None,
    params: Optional[PackingParameters] = None,
    rng: RngLike = None,
) -> CdsPackingResult:
    """Label-level :func:`repro.core.cds_packing.fractional_cds_packing`."""
    params = params or PackingParameters()
    rand = ensure_rng(rng)
    if k is not None:
        return construct_cds_packing_reference(graph, k, params, rand)

    n = graph.number_of_nodes()
    guess = max(1, n // 2)
    best: Optional[CdsPackingResult] = None
    while True:
        try:
            result = construct_cds_packing_reference(graph, guess, params, rand)
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
                return result
        if guess == 1:
            break
        guess //= 2
    if best is not None:
        return best
    raise PackingConstructionError(
        "try-and-error guessing failed for every scale"
    )
