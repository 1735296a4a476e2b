"""Distributed CDS packing (Appendix B / Theorem B.1 driver)."""

import hashlib

import networkx as nx
import pytest

from repro.api import GraphSession
from repro.errors import GraphValidationError
from repro.core.cds_packing import construct_cds_packing
from repro.core.cds_packing_distributed import distributed_cds_packing
from repro.graphs.connectivity import vertex_connectivity
from repro.graphs.generators import clique_chain, harary_graph


@pytest.fixture(scope="module")
def harary_result():
    g = harary_graph(5, 24)
    return g, distributed_cds_packing(g, 5, rng=41)


class TestDistributedConstruction:
    def test_packing_valid(self, harary_result):
        _, result = harary_result
        result.packing.verify()
        assert result.result.size > 0

    def test_round_accounting_present(self, harary_result):
        _, result = harary_result
        assert result.meta_rounds > 0
        assert result.real_round_estimate > result.meta_rounds
        assert result.report.measured.rounds == result.meta_rounds
        assert result.report.analytic[0].name == "thurimella-components"

    def test_phase_breakdown_recorded(self, harary_result):
        _, result = harary_result
        phases = result.report.measured.phase_rounds
        assert "component-identification" in phases
        assert phases["component-identification"] > 0

    def test_output_contract(self, harary_result):
        """Section 2's distributed requirement: for each tree containing a
        node, the node knows the tree's id, weight, and incident edges —
        all of which follows from the class assignment being complete."""
        graph, result = harary_result
        vg = result.result.virtual_graph
        expected = graph.number_of_nodes() * 3 * vg.layers
        assert len(vg.assignment) == expected

    def test_matches_centralized_quality(self):
        """Both drivers achieve comparable packing sizes on the same graph
        (they implement the same algorithm)."""
        g = harary_graph(5, 24)
        central = construct_cds_packing(g, 5, rng=43)
        distributed = distributed_cds_packing(g, 5, rng=43)
        assert distributed.result.size >= 0.3 * central.size

    def test_rejects_disconnected(self):
        g = nx.Graph([(0, 1), (2, 3)])
        with pytest.raises(GraphValidationError):
            distributed_cds_packing(g, 2)

    def test_low_connectivity_graph(self):
        g = clique_chain(3, 4)
        result = distributed_cds_packing(g, 3, rng=44)
        result.packing.verify()

    def test_size_certifies_connectivity(self):
        g = harary_graph(5, 24)
        result = distributed_cds_packing(g, 5, rng=45)
        assert result.result.size <= vertex_connectivity(g) + 1e-9


#: (spec, seed, k) → the first 16 hex digits of sha256 over
#: ``canonical_json()`` of ``pack_cds_distributed(k)``, of
#: ``simulate(program="cds_packing")`` and of the same on the congested
#: clique. Recorded once each layer drew from its own child of the
#: construction's seed tree; the same under any PYTHONHASHSEED.
DIGESTS = {
    ("harary:5,24", 41, 5): (
        "65f4bf1d0ab04919", "14dac74be09050c0", "112ca078ff938917",
    ),
    ("clique_chain:3,4", 44, 3): (
        "b8804874abceeb97", "67939de600084595", "9079e062f06aef54",
    ),
}


@pytest.mark.parametrize("spec, seed, k", sorted(DIGESTS))
def test_envelope_bytes_are_pinned(spec, seed, k):
    session = GraphSession(spec)
    envelopes = (
        session.pack_cds_distributed(k, seed=seed),
        session.simulate(program="cds_packing", seed=seed),
        session.simulate(
            program="cds_packing", seed=seed, model="congested-clique"
        ),
    )
    digests = tuple(
        hashlib.sha256(envelope.canonical_json().encode()).hexdigest()[:16]
        for envelope in envelopes
    )
    assert digests == DIGESTS[(spec, seed, k)]
