"""Integral tree packings (Section 1.2): vertex-disjoint CDSs and
edge-disjoint spanning trees."""

import hashlib

import networkx as nx
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import GraphSession
from repro.errors import GraphValidationError
from repro.core.cds_packing import PackingParameters
from repro.core.cds_packing_distributed import distributed_cds_packing
from repro.core.integral_packing import (
    integral_cds_packing,
    integral_spanning_packing,
)
from repro.graphs.connectivity import edge_connectivity
from repro.graphs.generators import fat_cycle, harary_graph, random_regular_connected


class TestIntegralCds:
    def test_packing_vertex_disjoint_and_valid(self):
        g = harary_graph(8, 30)
        result = integral_cds_packing(g, rng=91)
        result.packing.verify()
        assert result.packing.is_vertex_disjoint()
        assert all(t.weight == 1.0 for t in result.packing)

    def test_trees_dominate(self):
        g = fat_cycle(4, 5)  # k = 8
        result = integral_cds_packing(g, rng=92)
        result.packing.verify()
        assert result.size >= 1

    def test_rejects_disconnected(self):
        g = nx.Graph([(0, 1), (2, 3)])
        with pytest.raises(GraphValidationError):
            integral_cds_packing(g)

    def test_low_connectivity_still_returns_one(self):
        g = nx.cycle_graph(12)
        result = integral_cds_packing(g, rng=93)
        assert result.size >= 1


#: (spec, κ) with κ known from the construction: harary:k,n has κ = k,
#: fat_cycle:w,ℓ (ℓ ≥ 4) has κ = 2w; n ≤ 64.
_HARARY = st.integers(4, 64).flatmap(
    lambda n: st.integers(2, n - 1).map(lambda k: (f"harary:{k},{n}", k))
)
_FAT_CYCLE = st.integers(4, 16).flatmap(
    lambda length: st.integers(1, 64 // length).map(
        lambda width: (f"fat_cycle:{width},{length}", 2 * width)
    )
)


@settings(
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    graph=st.one_of(_HARARY, _FAT_CYCLE),
    seed=st.integers(0, 9),
    class_factor=st.sampled_from([0.25, 3.0]),
)
def test_session_packing_is_vertex_disjoint_and_at_most_kappa(
    graph, seed, class_factor
):
    """Each vertex-disjoint CDS meets every minimum vertex cut, so at most
    κ of them fit: the bound needs no connectivity oracle."""
    spec, kappa = graph
    envelope = GraphSession(spec).pack_integral(
        kind="cds", seed=seed, class_factor=class_factor
    )
    packing = envelope.raw.packing
    packing.verify()
    assert packing.is_vertex_disjoint()
    assert all(tree.weight == 1.0 for tree in packing)
    assert 1 <= envelope.payload["size"] <= kappa


def test_k_unset_calls_no_connectivity_oracle(monkeypatch):
    """Remark 3.1's guess loop sizes the packing, not the κ oracle (the
    labeled front door or the kernel routine behind it)."""
    import repro.fastgraph.flow as flow
    import repro.graphs.connectivity as connectivity

    def oracle(*args, **kwargs):
        raise AssertionError("vertex connectivity oracle called")

    monkeypatch.setattr(connectivity, "vertex_connectivity", oracle)
    monkeypatch.setattr(flow, "vertex_connectivity", oracle)
    envelope = GraphSession("fat_cycle:4,5").pack_integral(kind="cds", seed=3)
    assert envelope.payload["size"] >= 1


def test_distributed_driver_refuses_integral_parameters():
    with pytest.raises(GraphValidationError):
        distributed_cds_packing(
            harary_graph(4, 12), 4, params=PackingParameters(integral=True),
            rng=1,
        )


#: (spec, class_factor, seed) → the first 16 hex digits of sha256 over
#: ``canonical_json()`` of ``pack_integral(kind="cds")``, recorded once
#: the random layering and each layer drew from their own children of
#: the construction's seed tree; the same under any PYTHONHASHSEED.
DIGESTS = {
    ("fat_cycle:6,4", 3.0, 17): "f5aca26094b04dab",
    ("harary:16,64", 0.25, 1): "f312fa28752d4fc7",
    ("regular:16,64,3", 3.0, 2): "9ddd5d96df1377c0",
}


@pytest.mark.parametrize("spec, class_factor, seed", sorted(DIGESTS))
def test_envelope_bytes_are_pinned(spec, class_factor, seed):
    envelope = GraphSession(spec).pack_integral(
        kind="cds", seed=seed, class_factor=class_factor
    )
    digest = hashlib.sha256(envelope.canonical_json().encode()).hexdigest()
    assert digest[:16] == DIGESTS[(spec, class_factor, seed)]


class TestIntegralSpanning:
    def test_edge_disjoint_spanning_trees(self):
        g = harary_graph(10, 24)
        packing = integral_spanning_packing(g, rng=94)
        packing.verify()
        assert packing.is_edge_disjoint()
        assert all(t.weight == 1.0 for t in packing)

    def test_size_positive_for_high_lambda(self):
        g = random_regular_connected(10, 24, rng=95)
        packing = integral_spanning_packing(g, rng=96)
        assert len(packing) >= 1

    def test_size_bounded_by_tutte(self):
        """At most ⌊λ/...⌋ — certainly <= λ edge-disjoint spanning trees."""
        g = harary_graph(6, 18)
        packing = integral_spanning_packing(g, rng=97)
        assert len(packing) <= edge_connectivity(g)

    def test_rejects_disconnected(self):
        g = nx.Graph([(0, 1), (2, 3)])
        with pytest.raises(GraphValidationError):
            integral_spanning_packing(g)
