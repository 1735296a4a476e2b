"""The recursive class assignment of one layer (Section 3.1, steps 1–3).

Given the state after layers ``1..ℓ`` (old nodes), this module assigns
classes to the new virtual nodes of layer ``ℓ+1`` as
:attr:`~repro.core.virtual_graph.VirtualGraph.hosts` lists them: three
on every real node for Section 3.1, and under the integral packing's
random layering (one virtual node per real node) those that landed in
this layer:

1. type-1 and type-3 new nodes join uniformly random classes;
2. the *bridging graph* is formed between old components and type-2 new
   nodes — ``v`` is adjacent to component ``C`` of class ``i`` iff
   (a) ``v`` has a neighbor in ``C``, (b) ``C`` is not already bridged by
   a type-1 new node of class ``i`` ("deactivated"), and (c) some type-3
   new neighbor ``w`` of ``v`` joined class ``i`` and sees a component
   ``C'' ≠ C`` of class ``i``;
3. a maximal matching between components and type-2 new nodes is found;
   matched type-2 nodes join their component's class, unmatched ones join
   random classes.

Virtual adjacency includes *same-real* pairs (footnote 5), so every
"neighbor" test below uses the **closed** real neighborhood ``N[v]``: a
new virtual node on real ``v`` is adjacent to the old virtual nodes of
``v`` itself. A real node hosting no type-1 (type-3) node in the layer
carries class ``-1`` for that type, which no condition (b)/(c) test
matches.

The greedy sweep in :func:`assign_layer` processes type-2 nodes in random
order and matches each to the first available bridging-adjacent component;
since a pair is skipped only when one endpoint is already matched, the
result is a maximal matching — exactly the structure Lemma 4.4 needs,
and the same matching discipline as the linked-list sweep of Appendix C.

Since the kernel port the sweep runs entirely on the
:class:`~repro.core.virtual_graph.CdsIndex` view: integer node indices,
flat adjacency in ``graph.neighbors()`` order, and
:class:`~repro.fastgraph.IntUnionFind` component representatives. The
RNG consumption sequence and every candidate-enumeration order are the
reference implementation's exactly (node-iteration order = index order,
class sets with identical insertion histories, closed neighborhoods in
adjacency order), so assignments are bit-identical to
``tests/oracles/cds_packing_reference.py`` under a fixed seed — the
equivalence suite pins this.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.core.virtual_graph import VirtualGraph
from repro.utils.rng import RngLike, ensure_rng


@dataclass(frozen=True)
class LayerStats:
    """Instrumentation for one layer's assignment (drives experiment E8)."""

    layer: int
    excess_before: int
    excess_after: int
    deactivated_components: int
    bridging_candidates: int
    matched: int
    random_type2: int


def jump_start(vg: VirtualGraph, rng: RngLike = None) -> None:
    """Assign every virtual node of layers ``1..L/2`` a random class.

    Lemma 4.1 (Domination): after this step each class dominates w.h.p.
    """
    rand = ensure_rng(rng)
    t = vg.n_classes
    assign_at = vg.assign_at
    for layer in range(1, vg.layers // 2 + 1):
        for i, vtype in vg.hosts[layer]:
            assign_at(i, layer, vtype, rand.randrange(t))


def _adjacent_reps(
    adj: List[List[int]], mult: Dict[int, int], rep: List[int], i: int
) -> Set[int]:
    """Old components of one class adjacent to a new node on index ``i``
    (component representative indices, via the closed neighborhood).
    ``mult``/``rep`` are the class's active-index dict and its
    representative table for this layer, unbundled by the caller to keep
    the sweep monomorphic."""
    reps: Set[int] = set()
    if i in mult:
        reps.add(rep[i])
    for j in adj[i]:
        if j in mult:
            reps.add(rep[j])
    return reps


def assign_layer(
    vg: VirtualGraph,
    new_layer: int,
    rng: RngLike = None,
    use_deactivation: bool = True,
    require_type3_witness: bool = True,
) -> LayerStats:
    """Run steps (1)–(3) for layer ``new_layer`` and apply the assignment.

    The two boolean flags exist for the ablation study (benchmarks
    ``bench_ablation.py``): ``use_deactivation=False`` drops condition (b)
    (type-2 nodes may be spent on components already bridged by a type-1
    node), ``require_type3_witness=False`` drops condition (c) (a matched
    type-2 node is no longer guaranteed to merge its component with
    another). Both default to the paper's algorithm.
    """
    rand = ensure_rng(rng)
    index = vg.index
    adj = index.adj
    n = index.n
    t = vg.n_classes
    classes = vg.classes
    real_classes_at = vg.real_classes_at
    excess_before = vg.excess_components()
    # Per-class hot-path views. No class gains members until the final
    # apply loop, so each class's component representatives are constant
    # throughout the sweep: resolve them once per (class, active node)
    # here instead of once per neighborhood visit. ``reps[c][i]`` is only
    # meaningful where ``i`` is active in class ``c``.
    mults: List[Dict[int, int]] = [s.multiplicity_by_index for s in classes]
    reps_table: List[List[int]] = []
    for s in classes:
        rep = [0] * n
        find = s._uf.find
        for i in s.multiplicity_by_index:
            rep[i] = find(i)
        reps_table.append(rep)

    # Step 1: type-1 and type-3 new nodes pick random classes, in
    # node-then-type order (the reference's RNG sequence). ``new_class``
    # and ``hosts_of`` are indexed by type; -1 marks "not hosted".
    hosts = vg.hosts[new_layer]
    new_class: List[List[int]] = [[], [-1] * n, [-1] * n, [-1] * n]
    hosts_of: List[List[int]] = [[], [], [], []]
    for i, vtype in hosts:
        hosts_of[vtype].append(i)
        if vtype != 2:
            new_class[vtype][i] = rand.randrange(t)
    _, type1_class, type2_class, type3_class = new_class

    # Deactivation (condition (b)): a component already bridged to another
    # component of its class by some type-1 new node needs no type-2 spend.
    deactivated: Set[Tuple[int, int]] = set()
    for i in hosts_of[1]:
        class_id = type1_class[i]
        reps = _adjacent_reps(adj, mults[class_id], reps_table[class_id], i)
        if len(reps) >= 2:
            deactivated.update((class_id, rep) for rep in reps)

    # Suitable components of each type-3 new node (feeds condition (c);
    # read only where ``type3_class`` matches a class, i.e. at hosts).
    suitable3: List[Optional[Set[int]]] = [None] * n
    for i in hosts_of[3]:
        class_id = type3_class[i]
        suitable3[i] = _adjacent_reps(
            adj, mults[class_id], reps_table[class_id], i
        )

    # Steps 2–3: bridging adjacency + greedy maximal matching over type-2
    # new nodes in random order.
    matched: Set[Tuple[int, int]] = set()
    bridging_candidates = 0
    random_type2 = 0
    order = hosts_of[2]
    rand.shuffle(order)
    for i in order:
        neighborhood = [i, *adj[i]]
        # Candidate (class, component) pairs satisfying condition (a).
        candidates: List[Tuple[int, int]] = []
        seen: Set[Tuple[int, int]] = set()
        for w in neighborhood:
            for class_id in real_classes_at[w]:
                key = (class_id, reps_table[class_id][w])
                if key not in seen:
                    seen.add(key)
                    candidates.append(key)
        rand.shuffle(candidates)

        assigned: Optional[int] = None
        for class_id, rep in candidates:
            key = (class_id, rep)
            if use_deactivation and key in deactivated:
                continue
            if key in matched:
                continue
            # Condition (c): a type-3 new neighbor of the same class that
            # sees a *different* component of that class.
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
            bridging_candidates += 1
            matched.add(key)
            assigned = class_id
            break
        if assigned is None:
            assigned = rand.randrange(t)
            random_type2 += 1
        type2_class[i] = assigned

    # Apply the layer's assignments (projections update under the hood).
    assign_at = vg.assign_at
    for i, vtype in hosts:
        assign_at(i, new_layer, vtype, new_class[vtype][i])

    return LayerStats(
        layer=new_layer,
        excess_before=excess_before,
        excess_after=vg.excess_components(),
        deactivated_components=len(deactivated),
        bridging_candidates=bridging_candidates,
        matched=len(matched),
        random_type2=random_type2,
    )


#: ``step(vg, layer, rng)`` assigns the new virtual nodes of one layer
#: and reports on it.
LayerStep = Callable[[VirtualGraph, int, random.Random], LayerStats]


def run_recursion(
    vg: VirtualGraph,
    rng: RngLike = None,
    use_deactivation: bool = True,
    require_type3_witness: bool = True,
    step: Optional[LayerStep] = None,
) -> List[LayerStats]:
    """Jump-start layers 1..L/2, then assign layers L/2+1..L recursively.

    ``step`` is the per-layer assignment: :func:`assign_layer` with the
    two ablation flags by default, or the Appendix B protocol's layer
    (:mod:`repro.core.cds_packing_distributed`), which shares everything
    else — the jump-start and the RNG stream — with the centralized run.
    """
    rand = ensure_rng(rng)
    jump_start(vg, rand)
    if step is None:
        step = functools.partial(
            assign_layer,
            use_deactivation=use_deactivation,
            require_type3_witness=require_type3_witness,
        )
    return [
        step(vg, layer, rand)
        for layer in range(vg.layers // 2 + 1, vg.layers + 1)
    ]
