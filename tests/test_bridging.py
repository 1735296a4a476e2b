"""The recursive class assignment: jump-start, bridging, matching
(Section 3.1 steps 1-3; Lemmas 4.1 and 4.4 observable behaviour)."""

import copy
import random

import pytest

from repro.core.bridging import (
    assign_layer,
    jump_start,
    run_recursion,
)
from repro.core.cds_packing import build_cds_classes
from repro.core.virtual_graph import VirtualGraph, VirtualNode
from repro.graphs.connectivity import is_dominating_set
from repro.graphs.generators import harary_graph
from repro.utils.rng import child_rng, fresh_seed


class TestJumpStart:
    def test_assigns_exactly_first_half(self):
        g = harary_graph(4, 12)
        vg = VirtualGraph(g, layers=8, n_classes=3)
        jump_start(vg, rng=1)
        assert len(vg.assignment) == 12 * 3 * 4  # n * 3 types * L/2 layers
        layers_used = {vn.layer for vn in vg.assignment}
        assert layers_used == {1, 2, 3, 4}

    def test_domination_lemma_observable(self):
        """Lemma 4.1: after the jump-start each class dominates (w.h.p.;
        here: a seed-checked instance with comfortable margins)."""
        g = harary_graph(6, 24)
        vg = VirtualGraph(g, layers=8, n_classes=3)
        jump_start(vg, rng=7)
        for members in vg.projected_class_sets():
            assert is_dominating_set(g, members)


class TestAssignLayer:
    def test_all_new_nodes_assigned(self):
        g = harary_graph(4, 12)
        vg = VirtualGraph(g, layers=4, n_classes=2)
        jump_start(vg, rng=2)
        stats = assign_layer(vg, 3, rng=3)
        assert stats.layer == 3
        for v in g.nodes():
            for vtype in (1, 2, 3):
                assert VirtualNode(v, 3, vtype) in vg.assignment

    def test_excess_never_increases(self):
        """First half of Lemma 4.4: M_{ℓ+1} <= M_ℓ (given domination)."""
        g = harary_graph(6, 24)
        vg = VirtualGraph(g, layers=8, n_classes=3)
        jump_start(vg, rng=4)
        for layer in range(5, 9):
            stats = assign_layer(vg, layer, rng=layer)
            assert stats.excess_after <= stats.excess_before

    def test_stats_fields_consistent(self):
        g = harary_graph(4, 16)
        vg = VirtualGraph(g, layers=4, n_classes=2)
        jump_start(vg, rng=5)
        stats = assign_layer(vg, 3, rng=6)
        assert stats.matched + stats.random_type2 == 16
        assert stats.matched <= stats.bridging_candidates or stats.matched == 0


class TestRecursion:
    def test_full_run_assigns_everything(self):
        g = harary_graph(4, 14)
        vg = VirtualGraph(g, layers=6, n_classes=2)
        history = run_recursion(vg, rng=8)
        assert len(history) == 3  # layers L/2+1 .. L
        assert len(vg.assignment) == 14 * 3 * 6

    def test_excess_trajectory_monotone(self):
        g = harary_graph(6, 30)
        vg = VirtualGraph(g, layers=8, n_classes=3)
        history = run_recursion(vg, rng=9)
        trajectory = [history[0].excess_before] + [
            s.excess_after for s in history
        ]
        assert all(a >= b for a, b in zip(trajectory, trajectory[1:]))

    def test_classes_connected_at_end(self):
        """Connectivity of all classes — the Theorem 1.1 outcome (a
        seed-checked instance of the w.h.p. claim)."""
        g = harary_graph(6, 30)
        vg = VirtualGraph(g, layers=8, n_classes=3)
        run_recursion(vg, rng=10)
        assert vg.excess_components() == 0

    def test_deterministic_under_seed(self):
        g = harary_graph(4, 12)
        vg1 = VirtualGraph(g, layers=4, n_classes=2)
        vg2 = VirtualGraph(g, layers=4, n_classes=2)
        run_recursion(vg1, rng=11)
        run_recursion(vg2, rng=11)
        assert vg1.assignment == vg2.assignment

    def test_a_layer_replays_alone(self):
        """Layer ℓ draws only from its child of the construction's seed
        tree: rerun from a copy of the state before it, with that child,
        it assigns what the full run assigned."""
        g = harary_graph(6, 40)
        before = {}

        def step(vg, layer, rng):
            before[layer] = copy.deepcopy(vg)
            return assign_layer(vg, layer, rng)

        vg, history = build_cds_classes(g, 30, 12, rng=5, step=step)
        assert sorted(before) == list(range(7, 13))
        assert sum(stats.matched for stats in history) > 0
        root = fresh_seed(random.Random(5))

        def layer_of(state, layer):
            return {
                vnode: class_id
                for vnode, class_id in state.assignment.items()
                if vnode.layer == layer
            }

        for layer, state in before.items():
            stats = assign_layer(state, layer, child_rng(root, layer))
            assert stats == history[layer - 7]
            assert layer_of(state, layer) == layer_of(vg, layer)
