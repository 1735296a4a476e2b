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

The reference shuffles each type-2 node's candidate list and takes the
first eligible candidate. The sweep decides eligibility first, on int
component keys ``class*n + rep``, and keeps the RNG stream for two
reasons:

* ``random.shuffle`` of ``m`` items draws ``_randbelow(m), …,
  _randbelow(2)`` whatever the items are, so its draws depend only on
  the candidate count;
* the first eligible candidate depends on the order only when two or
  more are eligible.

So only those nodes build and shuffle the ordered list. The others
advance the RNG by the same draws with
:func:`~repro.utils.rng.skip_shuffle` and take their one eligible
candidate, or a random class. On the perfbench ``pipeline`` graphs that
is 97% of type-2 nodes. Condition (c) reads a per-class summary of the
type-3 new neighbors: the one component they see, or several. A *whole*
class, one component that dominates the graph, is one candidate of
every type-2 node and can neither deactivate nor witness, so it is
counted but never enumerated. Each layer's assignments are applied in
one :meth:`~repro.core.virtual_graph.VirtualGraph.assign_many` call, in
:attr:`~repro.core.virtual_graph.VirtualGraph.hosts` order, like the
jump-start's and the Appendix B layer's.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Set

from repro.core.virtual_graph import VirtualGraph
from repro.utils.rng import RngLike, ensure_rng, skip_shuffle

#: Condition (c)'s summary of type-3 witnesses that see two or more
#: components of their class (no component key is negative).
_MANY = -1


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
    randrange = rand.randrange
    t = vg.n_classes
    for layer in range(1, vg.layers // 2 + 1):
        hosts = vg.hosts[layer]
        vg.assign_many(layer, hosts, [randrange(t) for _ in hosts])


def _adjacent_reps(
    adj: List[List[int]], rep: Dict[int, int], i: int
) -> Set[int]:
    """Old components of one class adjacent to a new node on index ``i``
    (representatives of the class's active indices in the closed
    neighborhood; ``rep`` is the class's table for this layer)."""
    reps = {rep[j] for j in adj[i] if j in rep}
    if i in rep:
        reps.add(rep[i])
    return reps


def _ordered_candidates(
    vg: VirtualGraph,
    i: int,
    reps: List[Dict[int, int]],
    whole_key: List[int],
) -> List[int]:
    """The reference's candidate list of a type-2 node on index ``i``:
    distinct component keys in closed-neighborhood, then class-set order."""
    n = vg.index.n
    real_classes_at = vg.real_classes_at
    return list(dict.fromkeys([
        whole_key[c] if whole_key[c] >= 0 else c * n + reps[c][w]
        for w in (i, *vg.index.adj[i])
        for c in real_classes_at[w]
    ]))


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
    excess_before = vg.excess_components()
    # The old components. No class gains members until the batched apply
    # at the end, so they are constant throughout the sweep; a component
    # is the int key ``class*n + rep``. A *whole* class — one component
    # that dominates the graph — is one candidate of every type-2 node,
    # and it neither deactivates nor witnesses: conditions (b) and (c)
    # need two components of a class. ``whole_key[c]`` is its key (-1 for
    # the other classes). ``keys_at[w]`` lists the keys of the other
    # classes ``w`` is active in: a type-2 node's candidates are its
    # closed neighborhood's keys plus every whole class.
    whole_key = [-1] * t
    reps: List[Dict[int, int]] = [{} for _ in range(t)]
    keys_at: List[List[int]] = [[] for _ in range(n)]
    for c, state in enumerate(vg.classes):
        if state.n_components() == 1 and state.dominates():
            root = state.find(next(iter(state.multiplicity_by_index)))
            whole_key[c] = c * n + root
            continue
        reps[c] = state.representatives()
        base = c * n
        for w, r in reps[c].items():
            keys_at[w].append(base + r)
    whole = {key for key in whole_key if key >= 0}

    # Step 1: type-1 and type-3 new nodes pick random classes, in
    # node-then-type order (the reference's RNG sequence). ``new_class``
    # is indexed by type; -1 marks "not hosted".
    hosts = vg.hosts[new_layer]
    new_class: List[List[int]] = [[], [-1] * n, [-1] * n, [-1] * n]
    order: List[int] = []
    for i, vtype in hosts:
        if vtype == 2:
            order.append(i)
        else:
            new_class[vtype][i] = rand.randrange(t)
    type2_class = new_class[2]

    # Deactivation (condition (b)): a component already bridged to another
    # component of its class by some type-1 new node needs no type-2 spend.
    # Type-3 witnesses (condition (c)): ``witness_key[u]`` is the key of
    # the one component type-3 node ``u`` sees, or ``_MANY`` when it sees
    # several; ``witness_class[u]`` is -1 when it sees none. Only a class
    # with two or more components can do either.
    deactivated: Set[int] = set()
    witness_class = [-1] * n
    witness_key = [0] * n
    split = [state.n_components() >= 2 for state in vg.classes]
    for i, vtype in hosts:
        if vtype == 2:
            continue
        c = new_class[vtype][i]
        if not split[c]:
            continue
        adjacent = _adjacent_reps(adj, reps[c], i)
        if vtype == 1:
            if len(adjacent) >= 2:
                deactivated.update(c * n + r for r in adjacent)
        elif adjacent:
            witness_class[i] = c
            witness_key[i] = (
                c * n + adjacent.pop() if len(adjacent) == 1 else _MANY
            )

    # Steps 2–3: bridging adjacency + greedy maximal matching over type-2
    # new nodes in random order. Each node's candidates are the distinct
    # keys of its closed neighborhood, which the reference shuffles before
    # taking the first eligible one. Eligibility does not depend on that
    # order, and the shuffle's draws depend only on the candidate count,
    # so the order is built and shuffled only when two or more candidates
    # are eligible; otherwise the draws are skipped over.
    taken = set(deactivated) if use_deactivation else set()
    free_whole = whole - taken
    matched = 0
    random_type2 = 0
    rand.shuffle(order)
    for i in order:
        candidates = set(keys_at[i]).union(*[keys_at[w] for w in adj[i]])
        if require_type3_witness:
            # Condition (c) as a per-class summary of the type-3 new
            # neighbors: the components they see, together, include one
            # other than the candidate.
            witnessed: Dict[int, int] = {}
            for u in (i, *adj[i]):
                c = witness_class[u]
                if c >= 0:
                    key = witness_key[u]
                    if witnessed.setdefault(c, key) != key:
                        witnessed[c] = _MANY
            eligible = {
                key for key in candidates
                if witnessed.get(key // n, key) != key and key not in taken
            } if witnessed else set()
        else:
            eligible = (candidates - taken) | free_whole
        if len(eligible) >= 2:
            ordered = _ordered_candidates(vg, i, reps, whole_key)
            rand.shuffle(ordered)
            chosen = next(key for key in ordered if key in eligible)
        else:
            skip_shuffle(rand, len(whole) + len(candidates))
            chosen = eligible.pop() if eligible else None
        if chosen is None:
            type2_class[i] = rand.randrange(t)
            random_type2 += 1
        else:
            taken.add(chosen)
            free_whole.discard(chosen)
            matched += 1
            type2_class[i] = chosen // n

    vg.assign_many(
        new_layer, hosts, [new_class[vtype][i] for i, vtype in hosts]
    )

    return LayerStats(
        layer=new_layer,
        excess_before=excess_before,
        excess_after=vg.excess_components(),
        deactivated_components=len(deactivated),
        bridging_candidates=matched,
        matched=matched,
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
