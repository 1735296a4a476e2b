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
``v`` itself.

The greedy sweep in :func:`assign_layer` processes type-2 nodes in random
order and matches each to a uniformly random *eligible* component (one
still unmatched that satisfies (a)–(c)); since a pair is skipped only
when one endpoint is already matched, the result is a maximal matching —
exactly the structure Lemma 4.4 needs, and the same matching discipline
as the linked-list sweep of Appendix C. Shuffling a node's candidates
and taking the first eligible one, as the pre-kernel sweep did, picks
each eligible component with the same probability, so the distribution
of the matching is that sweep's; the draws are not.

The sweep runs on the :class:`~repro.core.virtual_graph.CdsIndex` view:
integer node indices, flat adjacency in ``graph.neighbors()`` order, and
:class:`~repro.fastgraph.union_find.IntUnionFind` component keys
``class*n + rep``.
A type-2 node enumerates only the classes its type-3 new neighbors
witness (condition (c) needs one), by increasing id, and in each the
components of its closed neighborhood by first sight in adjacency order.
That order reads no representative, so the label-level oracle
``tests/oracles/cds_packing_reference.py`` computes the same list, and
the same draw picks the same component. Condition (c) reads a per-class
summary of the type-3 new neighbors: the one component they see, or
several. Without condition (c) (the ablation) every adjacent component
is a candidate, in the same order.

Randomness: each layer draws from its own generator, the child
``child_rng(root, layer)`` of one root per run
(:func:`~repro.utils.rng.child_rng`): one ``choices`` call for every
class pick of the layer, in hosts order (a matched type-2 node leaves
its pick unused), then the shuffle of the type-2 order, then one
``randrange`` per node with two or more eligible components. So a layer
can be replayed alone from the state before it and its child. Each
layer's assignments are applied in one
:meth:`~repro.core.virtual_graph.VirtualGraph.assign_many` call, in
:attr:`~repro.core.virtual_graph.VirtualGraph.hosts` order, like the
jump-start's and the Appendix B layer's.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Set

from repro.core.virtual_graph import VirtualGraph
from repro.utils.rng import RngLike, child_rng, ensure_rng, fresh_seed

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


def _root_seed(rng: RngLike) -> int:
    """The root of a run's seed tree: an int is its own root, a generator
    (or ``None``) contributes one :func:`~repro.utils.rng.fresh_seed`
    draw."""
    if isinstance(rng, int) and not isinstance(rng, bool):
        return rng
    return fresh_seed(ensure_rng(rng))


def jump_start(vg: VirtualGraph, rng: RngLike = None) -> None:
    """Assign every virtual node of layers ``1..L/2`` a random class,
    layer ``ℓ`` from the child ``ℓ`` of the seed tree rooted at ``rng``.

    Lemma 4.1 (Domination): after this step each class dominates w.h.p.
    """
    seed = _root_seed(rng)
    classes = range(vg.n_classes)
    for layer in range(1, vg.layers // 2 + 1):
        hosts = vg.hosts[layer]
        picks = child_rng(seed, layer).choices(classes, k=len(hosts))
        vg.assign_many(layer, hosts, picks)


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


def assign_layer(
    vg: VirtualGraph,
    new_layer: int,
    rng: RngLike = None,
    use_deactivation: bool = True,
    require_type3_witness: bool = True,
) -> LayerStats:
    """Run steps (1)–(3) for layer ``new_layer`` and apply the assignment.

    ``rng`` is the layer's own generator. The two boolean flags exist for
    the ablation study (benchmarks ``bench_ablation.py``):
    ``use_deactivation=False`` drops condition (b) (type-2 nodes may be
    spent on components already bridged by a type-1 node),
    ``require_type3_witness=False`` drops condition (c) (a matched type-2
    node is no longer guaranteed to merge its component with another).
    Both default to the paper's algorithm.
    """
    rand = ensure_rng(rng)
    adj = vg.index.adj
    n = vg.index.n
    excess_before = vg.excess_components()
    hosts = vg.hosts[new_layer]
    # Step 1, and the random class of every type-2 node the matching
    # leaves unmatched: one pick per new node, in hosts order.
    picks = rand.choices(range(vg.n_classes), k=len(hosts))

    # The old components. No class gains members until the batched apply
    # at the end, so they are constant throughout the sweep; a component
    # is the int key ``class*n + rep``. Only a class with two or more
    # components can deactivate or witness, so under condition (c) only
    # those need their representatives.
    split = [state.n_components() >= 2 for state in vg.classes]
    reps: List[Dict[int, int]] = [
        state.representatives()
        if split[c] or not require_type3_witness else {}
        for c, state in enumerate(vg.classes)
    ]

    # Deactivation (condition (b)): a component already bridged to another
    # component of its class by some type-1 new node needs no type-2 spend.
    # Type-3 witnesses (condition (c)): ``witness_key[u]`` is the key of
    # the one component type-3 node ``u`` sees, or ``_MANY`` when it sees
    # several; ``witness_class[u]`` is -1 when it sees none.
    deactivated: Set[int] = set()
    witness_class = [-1] * n
    witness_key = [0] * n
    order: List[int] = []
    for slot, ((i, vtype), c) in enumerate(zip(hosts, picks)):
        if vtype == 2:
            order.append(slot)
            continue
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
    if not require_type3_witness:
        classes_at: List[List[int]] = [[] for _ in range(n)]
        for c, rep in enumerate(reps):
            for w in rep:
                classes_at[w].append(c)

    # Steps 2–3: bridging adjacency + greedy maximal matching over type-2
    # new nodes in random order; each joins a uniformly random eligible
    # component, listed by class, then by first sight in N[v].
    taken = set(deactivated) if use_deactivation else set()
    matched = 0
    rand.shuffle(order)
    for slot in order:
        i = hosts[slot][0]
        closed = (i, *adj[i])
        witnessed: Dict[int, int] = {}
        if require_type3_witness:
            for u in closed:
                c = witness_class[u]
                if c >= 0:
                    key = witness_key[u]
                    if witnessed.setdefault(c, key) != key:
                        witnessed[c] = _MANY
            candidate_classes = sorted(witnessed)
        else:
            candidate_classes = sorted(
                {c for w in closed for c in classes_at[w]}
            )
        eligible: List[int] = []
        for c in candidate_classes:
            rep = reps[c]
            # Condition (c) fails only for the one component, if any, that
            # is all the class's type-3 witnesses in N[v] see.
            alone = witnessed.get(c, _MANY)
            keys = dict.fromkeys(c * n + rep[w] for w in closed if w in rep)
            eligible += [
                key for key in keys if key != alone and key not in taken
            ]
        if eligible:
            chosen = eligible[
                rand.randrange(len(eligible)) if len(eligible) >= 2 else 0
            ]
            taken.add(chosen)
            matched += 1
            picks[slot] = chosen // n

    vg.assign_many(new_layer, hosts, picks)

    return LayerStats(
        layer=new_layer,
        excess_before=excess_before,
        excess_after=vg.excess_components(),
        deactivated_components=len(deactivated),
        bridging_candidates=matched,
        matched=matched,
        random_type2=len(order) - matched,
    )


#: ``step(vg, layer, rng)`` assigns the new virtual nodes of one layer
#: from the layer's own generator and reports on it.
LayerStep = Callable[[VirtualGraph, int, random.Random], LayerStats]


def run_recursion(
    vg: VirtualGraph,
    rng: RngLike = None,
    use_deactivation: bool = True,
    require_type3_witness: bool = True,
    step: Optional[LayerStep] = None,
) -> List[LayerStats]:
    """Jump-start layers 1..L/2, then assign layers L/2+1..L recursively.

    ``rng`` roots the run's seed tree (an int is the root itself), and
    layer ``ℓ`` draws from its child ``child_rng(root, ℓ)``. ``step`` is
    the per-layer assignment: :func:`assign_layer` with the two ablation
    flags by default, or the Appendix B protocol's layer
    (:mod:`repro.core.cds_packing_distributed`), which shares everything
    else — the jump-start and the seed tree — with the centralized run.
    """
    seed = _root_seed(rng)
    jump_start(vg, seed)
    if step is None:
        step = functools.partial(
            assign_layer,
            use_deactivation=use_deactivation,
            require_type3_witness=require_type3_witness,
        )
    return [
        step(vg, layer, child_rng(seed, layer))
        for layer in range(vg.layers // 2 + 1, vg.layers + 1)
    ]
