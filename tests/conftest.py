"""Shared fixtures: deterministic small graphs spanning the k/λ/D space,
and the round-loop selector of the equivalence suites."""

from __future__ import annotations

import pathlib
import random
import sys

import pytest

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
if str(REPO_ROOT) not in sys.path:  # `tests.oracles` resolves from the root
    sys.path.insert(0, str(REPO_ROOT))

from tests.oracles.round_loops import round_loop as _round_loop  # noqa: E402

from repro.graphs.generators import (  # noqa: E402
    clique_chain,
    fat_cycle,
    harary_graph,
    hypercube,
    random_regular_connected,
    torus_grid,
)


@pytest.fixture
def rng():
    return random.Random(1234)


@pytest.fixture
def harary_4_20():
    """Harary H(4, 20): k = λ = 4."""
    return harary_graph(4, 20)


@pytest.fixture
def harary_6_30():
    """Harary H(6, 30): k = λ = 6."""
    return harary_graph(6, 30)


@pytest.fixture
def chain_graph():
    """Clique chain: k = 4, diameter 4 (the large-diameter regime)."""
    return clique_chain(4, 5)


@pytest.fixture
def fat_cycle_graph():
    """Fat cycle: width 3, so k = 6; diameter 3."""
    return fat_cycle(3, 6)


@pytest.fixture
def cube():
    """4-dimensional hypercube: n = 16, k = λ = 4."""
    return hypercube(4)


@pytest.fixture
def torus():
    """5x5 torus: 4-regular, k = λ = 4."""
    return torus_grid(5, 5)


@pytest.fixture
def regular_graph():
    """Random 6-regular graph on 24 nodes (expander-ish)."""
    return random_regular_connected(6, 24, rng=7)


@pytest.fixture(
    params=["harary", "chain", "fat_cycle", "cube", "torus"],
)
def family_graph(request):
    """Parametrized sweep over the main graph families."""
    builders = {
        "harary": lambda: harary_graph(4, 20),
        "chain": lambda: clique_chain(4, 5),
        "fat_cycle": lambda: fat_cycle(3, 6),
        "cube": lambda: hypercube(4),
        "torus": lambda: torus_grid(5, 5),
    }
    return builders[request.param]()


@pytest.fixture(scope="session")
def round_loop():
    """``with round_loop(name):`` runs simulations on one delivery path:
    ``"default"``, ``"column"`` (forced), ``"dict"`` or ``"reference"``.
    Session-scoped so hypothesis tests may use it; each ``with`` block
    undoes its own patches."""
    return _round_loop
