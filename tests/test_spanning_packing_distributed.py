"""Distributed spanning tree packing (Section 5.1 protocol, Lemma 5.1)."""

import dataclasses
import hashlib
import json

import networkx as nx
import pytest

from repro.core.spanning_packing import MwuParameters
from repro.core.spanning_packing_distributed import distributed_spanning_packing
from repro.graphs.generators import harary_graph, hypercube

FAST = MwuParameters(epsilon=0.25, beta_factor=3.0)


@pytest.fixture(scope="module")
def dist_result():
    g = harary_graph(5, 20)
    return g, distributed_spanning_packing(
        g, params=dataclasses.replace(FAST, max_iterations=20), rng=71
    )


def _digest(dist) -> str:
    """Trees in packing order, iterations, parts, λ, measured counters
    and size, hashed — the fixed-seed output of one construction."""
    measured = dist.report.measured
    body = {
        "trees": [
            sorted(sorted(map(repr, edge)) for edge in tree.tree.edges())
            for tree in dist.packing.trees
        ],
        "iterations": dist.iterations_per_part,
        "parts": dist.result.parts,
        "lam": dist.result.lam,
        "rounds": measured.rounds,
        "messages": measured.messages,
        "bits": measured.bits,
        "size": round(dist.result.size, 9),
    }
    encoded = json.dumps(body, sort_keys=True).encode()
    return hashlib.sha256(encoded).hexdigest()[:16]


class TestDistributedSpanning:
    def test_packing_valid(self, dist_result):
        _, result = dist_result
        result.packing.verify()
        assert result.result.size > 0.5

    def test_rounds_accounted(self, dist_result):
        _, result = dist_result
        assert result.report.measured.rounds > 0
        assert result.report.analytic[0].name == "lemma-5.1"
        assert result.report.analytic_total() > 0

    def test_iterations_recorded(self, dist_result):
        _, result = dist_result
        assert result.iterations_per_part
        assert all(i >= 1 for i in result.iterations_per_part)

    def test_edge_load_capacity(self, dist_result):
        _, result = dist_result
        assert result.packing.max_edge_load() <= 1.0 + 1e-9

    def test_matches_centralized_shape(self):
        """Distributed and centralized optimizers reach similar sizes."""
        from repro.core.spanning_packing import fractional_spanning_tree_packing

        g = hypercube(3)
        central = fractional_spanning_tree_packing(g, params=FAST, rng=72)
        dist = distributed_spanning_packing(
            g, params=dataclasses.replace(FAST, max_iterations=40), rng=72
        )
        assert dist.result.size >= 0.5 * central.size

    def test_iteration_cap_comes_from_params(self):
        dist = distributed_spanning_packing(
            harary_graph(8, 40), params=MwuParameters(max_iterations=5), rng=8
        )
        assert dist.iterations_per_part == [5]


class TestPinnedOutputs:
    """Fixed-seed digests of the whole construction (trees, iterations,
    parts, λ, measured rounds/messages/bits, size)."""

    @pytest.mark.parametrize(
        "graph, lam, params, seed, expected",
        [
            (harary_graph(4, 12), None, MwuParameters(max_iterations=4), 8,
             "07069ec62127734f"),
            (hypercube(3), None,
             dataclasses.replace(FAST, max_iterations=40), 72,
             "3aa868bf93a766bf"),
            # η = 6 Karger parts: three pack, three are disconnected and
            # skipped.
            (nx.complete_graph(16), 3000,
             MwuParameters(epsilon=0.5, max_iterations=6), 17,
             "bbf79909a8fb1311"),
        ],
        ids=["harary-4-12", "hypercube-3", "k16-split"],
    )
    def test_digest(self, graph, lam, params, seed, expected):
        dist = distributed_spanning_packing(
            graph, lam=lam, params=params, rng=seed
        )
        assert _digest(dist) == expected
