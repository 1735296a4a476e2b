"""Virtual graph bookkeeping (Section 3.1 footnote 5 semantics)."""

import networkx as nx
import pytest

from repro.errors import GraphValidationError
from repro.core.virtual_graph import (
    VirtualGraph,
    VirtualNode,
    default_layer_count,
)
from tests.oracles.cds_packing_reference import ClassState


@pytest.fixture
def vg():
    return VirtualGraph(nx.cycle_graph(6), layers=4, n_classes=2)


class TestClassState:
    def test_same_real_multiplicity(self):
        g = nx.path_graph(3)
        state = ClassState(class_id=0)
        state.add_real(g, 0)
        state.add_real(g, 0)
        assert state.multiplicity[0] == 2
        assert state.virtual_count() == 2
        assert state.n_components() == 1

    def test_adjacent_reals_merge(self):
        g = nx.path_graph(3)
        state = ClassState(class_id=0)
        state.add_real(g, 0)
        state.add_real(g, 2)
        assert state.n_components() == 2
        state.add_real(g, 1)  # bridges 0 and 2
        assert state.n_components() == 1

    def test_excess_components(self):
        g = nx.path_graph(5)
        state = ClassState(class_id=0)
        assert state.excess_components() == 0
        state.add_real(g, 0)
        state.add_real(g, 2)
        state.add_real(g, 4)
        assert state.excess_components() == 2


class TestVirtualGraph:
    def test_assignment_updates_projection(self, vg):
        vg.assign(VirtualNode(0, 1, 1), 0)
        vg.assign(VirtualNode(1, 1, 2), 0)
        assert vg.classes[0].n_components() == 1
        assert vg.real_classes[0] == {0}

    def test_double_assignment_rejected(self, vg):
        vg.assign(VirtualNode(0, 1, 1), 0)
        with pytest.raises(GraphValidationError):
            vg.assign(VirtualNode(0, 1, 1), 1)

    def test_class_range_checked(self, vg):
        with pytest.raises(GraphValidationError):
            vg.assign(VirtualNode(0, 1, 1), 7)

    def test_excess_sums_over_classes(self, vg):
        vg.assign(VirtualNode(0, 1, 1), 0)
        vg.assign(VirtualNode(3, 1, 1), 0)  # cycle_graph(6): 0 and 3 apart
        vg.assign(VirtualNode(1, 1, 1), 1)
        assert vg.excess_components() == 1

    def test_assign_many_checks_every_node_before_applying(self, vg):
        vg.assign_many(1, [(0, 1), (1, 2)], [0, 1])
        assert vg.class_of(VirtualNode(1, 1, 2)) == 1
        with pytest.raises(GraphValidationError):
            vg.assign_many(2, [(2, 1), (3, 1)], [0, 2])
        with pytest.raises(GraphValidationError):
            vg.assign_many(1, [(2, 1), (0, 1)], [0, 0])
        with pytest.raises(GraphValidationError):
            vg.assign_many(2, [(2, 1), (3, 1), (2, 1)], [0, 1, 1])
        assert len(vg.assignment) == 2
        assert vg.real_classes[2] == set()
        assert vg.classes[0].virtual_count() == 1
        with pytest.raises(ValueError):
            vg.assign_many(2, [(2, 1), (3, 1)], [0])

    def test_domination_is_read_off_the_class(self, vg):
        state = vg.classes[0]
        vg.assign(VirtualNode(0, 1, 1), 0)
        assert not state.dominates()  # cycle_graph(6): 0 covers 5, 0, 1
        vg.assign(VirtualNode(3, 1, 1), 0)
        assert state.dominates()  # 3 covers 2, 3, 4
        assert state.n_components() == 2

    def test_classes_per_real_bounded(self):
        g = nx.cycle_graph(4)
        vg = VirtualGraph(g, layers=4, n_classes=3)
        for layer in (1, 2, 3, 4):
            for vtype in (1, 2, 3):
                for v in g.nodes():
                    vg.assign(VirtualNode(v, layer, vtype), (v + layer) % 3)
        counts = vg.classes_per_real()
        assert all(c <= 3 * 4 for c in counts.values())
        assert sum(vg.virtual_counts_per_class()) == 4 * 4 * 3

    def test_odd_layers_rejected(self):
        with pytest.raises(GraphValidationError):
            VirtualGraph(nx.cycle_graph(3), layers=5, n_classes=1)

    def test_zero_classes_rejected(self):
        with pytest.raises(GraphValidationError):
            VirtualGraph(nx.cycle_graph(3), layers=4, n_classes=0)


class TestLayerCount:
    def test_even_and_minimum(self):
        assert default_layer_count(2) >= 4
        for n in (2, 10, 100, 1000):
            assert default_layer_count(n) % 2 == 0

    def test_grows_with_n(self):
        assert default_layer_count(2**12) > default_layer_count(4)
