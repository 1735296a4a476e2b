"""Graph-family specification strings — the API layer's graph front door.

A *graph spec* is a ``family:arg1,arg2,…`` string naming one of the
reproducible graph families (``harary:6,24``, ``hypercube:4``, …). The
parser used to live in :mod:`repro.cli`; it is now part of the public
API so library users get the same one-line graph construction — and the
same hardened error messages — as the command line:

* an unknown family lists the valid families;
* a malformed argument names the offending token and the family's
  expected signature.

:data:`GRAPH_FAMILIES` is the single registry; the CLI help text and
the error messages are both generated from it, so the two cannot drift.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

import networkx as nx

from repro.errors import GraphValidationError
from repro.graphs import generators


@dataclass(frozen=True)
class GraphFamily:
    """One named family: its argument signature and builder."""

    name: str
    signature: str          # e.g. "k,n" — shown in error messages / docs
    description: str
    min_args: int
    max_args: int
    build: Callable[..., nx.Graph]
    # Per-position coercions; positions beyond the list parse as int.
    arg_types: Tuple[type, ...] = ()
    # True: the argument text is one opaque token (file paths may
    # contain commas), not a comma-separated list.
    raw_args: bool = False

    def coerce(self, position: int, token: str):
        target = (
            self.arg_types[position]
            if position < len(self.arg_types)
            else int
        )
        if target is str:
            return token
        try:
            return target(token)
        except ValueError:
            raise GraphValidationError(
                f"family {self.name!r} ({self.name}:{self.signature}): "
                f"argument {position + 1} must be "
                f"{'a number' if target is float else 'an integer'}, "
                f"got {token!r}"
            ) from None


GRAPH_FAMILIES: Dict[str, GraphFamily] = {}


def _register(family: GraphFamily) -> None:
    GRAPH_FAMILIES[family.name] = family


_register(GraphFamily(
    name="harary",
    signature="k,n",
    description="Harary graph, vertex connectivity exactly k",
    min_args=2, max_args=2,
    build=lambda k, n: generators.harary_graph(k, n),
))
_register(GraphFamily(
    name="clique_chain",
    signature="k,len",
    description="chain of cliques (large-diameter regime)",
    min_args=2, max_args=2,
    build=lambda k, length: generators.clique_chain(k, length),
))
_register(GraphFamily(
    name="fat_cycle",
    signature="w,len",
    description="thickened cycle, k = 2w",
    min_args=2, max_args=2,
    build=lambda width, length: generators.fat_cycle(width, length),
))
_register(GraphFamily(
    name="hypercube",
    signature="d",
    description="d-dimensional hypercube",
    min_args=1, max_args=1,
    build=lambda dimension: generators.hypercube(dimension),
))
_register(GraphFamily(
    name="torus",
    signature="r,c",
    description="r x c torus grid",
    min_args=2, max_args=2,
    build=lambda rows, cols: generators.torus_grid(rows, cols),
))
_register(GraphFamily(
    name="regular",
    signature="d,n[,seed]",
    description="connected random d-regular graph",
    min_args=2, max_args=3,
    build=lambda degree, n, seed=0: generators.random_regular_connected(
        degree, n, rng=seed
    ),
))
_register(GraphFamily(
    name="gnp",
    signature="n,p[,seed]",
    description="connected Erdos-Renyi G(n, p)",
    min_args=2, max_args=3,
    arg_types=(int, float, int),
    build=lambda n, p, seed=0: generators.gnp_connected(n, p, rng=seed),
))
_register(GraphFamily(
    name="complete",
    signature="n",
    description="complete graph K_n",
    min_args=1, max_args=1,
    build=lambda n: nx.complete_graph(n),
))


def coerce_node_id(token: str):
    """Node labels given as text: integer-looking tokens become ints,
    others stay (stripped) strings. CSV graphs, service node fields and
    the plans of :mod:`repro.api.tasks` all apply this one rule."""
    token = token.strip()
    return int(token) if re.fullmatch(r"-?\d+", token) else token


def load_adjacency_csv(path: str) -> nx.Graph:
    """Import an adjacency-matrix CSV (GCLI exemplar format).

    The first row and first column list the node IDs (the corner cell is
    blank/ignored); a non-empty, non-zero cell creates the edge between
    its row and column nodes. The matrix is read as undirected — either
    triangle (or both, consistently) may be filled in. Diagonal cells
    are ignored (no self-loops).

    Node order is the header order, edges are added row-major, so the
    resulting canonicalization is deterministic for a given file.
    """
    import csv as _csv

    try:
        with open(path, "r", encoding="utf-8-sig", newline="") as handle:
            rows = [row for row in _csv.reader(handle) if row]
    except OSError as exc:
        raise GraphValidationError(
            f"cannot read adjacency CSV {path!r}: {exc}"
        ) from exc
    if len(rows) < 2:
        raise GraphValidationError(
            f"adjacency CSV {path!r} needs a header row and at least one "
            "node row (first row/column are node IDs)"
        )
    header = [coerce_node_id(cell) for cell in rows[0][1:]]
    if not header or len(set(header)) != len(header):
        raise GraphValidationError(
            f"adjacency CSV {path!r}: header row must list unique node "
            "IDs after the blank corner cell"
        )
    graph = nx.Graph()
    graph.add_nodes_from(header)
    conflicting = []
    for row_number, row in enumerate(rows[1:], start=2):
        row_id = coerce_node_id(row[0])
        if row_id not in graph:
            raise GraphValidationError(
                f"adjacency CSV {path!r} line {row_number}: row node "
                f"{row_id!r} does not appear in the header row"
            )
        if len(row) - 1 > len(header):
            raise GraphValidationError(
                f"adjacency CSV {path!r} line {row_number}: {len(row) - 1} "
                f"cells for {len(header)} header node(s)"
            )
        for column, cell in zip(header, row[1:]):
            filled = cell.strip() not in ("", "0")
            if not filled or column == row_id:
                continue
            if graph.has_edge(row_id, column):
                continue
            graph.add_edge(row_id, column)
            # Remember the fill so an asymmetric matrix (cell set on one
            # side, explicit 0 on the other) can be reported loudly.
            conflicting.append((row_id, column, cell.strip()))
    explicit = {
        (a, b): value for a, b, value in conflicting
    }
    for row_number, row in enumerate(rows[1:], start=2):
        row_id = coerce_node_id(row[0])
        for column, cell in zip(header, row[1:]):
            if column == row_id:
                continue
            value = cell.strip()
            mirrored = explicit.get((column, row_id))
            if mirrored is not None and value == "0":
                raise GraphValidationError(
                    f"adjacency CSV {path!r} line {row_number}: cell "
                    f"({row_id!r}, {column!r}) is 0 but the mirror cell "
                    f"is {mirrored!r}; fill the matrix consistently"
                )
    if graph.number_of_nodes() == 0:
        raise GraphValidationError(
            f"adjacency CSV {path!r} produced an empty graph"
        )
    return graph


_register(GraphFamily(
    name="csv",
    signature="path",
    description="adjacency-matrix CSV import (first row/column = node IDs)",
    min_args=1, max_args=1,
    arg_types=(str,),
    raw_args=True,
    build=load_adjacency_csv,
))


def available_families() -> List[str]:
    """Registered family names, sorted (error messages / CLI listing)."""
    return sorted(GRAPH_FAMILIES)


def family_signatures() -> List[Tuple[str, str]]:
    """(``family:signature``, description) rows for help text."""
    return [
        (f"{family.name}:{family.signature}", family.description)
        for name, family in sorted(GRAPH_FAMILIES.items())
    ]


def parse_graph_spec(spec: str) -> nx.Graph:
    """Build a graph from a ``family:args`` specification string.

    Raises :class:`~repro.errors.GraphValidationError` with an
    actionable message: unknown families list the valid names, malformed
    arguments name the offending token and the expected signature.
    """
    if not isinstance(spec, str) or not spec:
        raise GraphValidationError(
            f"graph spec must be a non-empty 'family:args' string, "
            f"got {spec!r}"
        )
    family_name, _, argument_text = spec.partition(":")
    family = GRAPH_FAMILIES.get(family_name)
    if family is None:
        raise GraphValidationError(
            f"unknown graph family {family_name!r}; valid families: "
            + ", ".join(available_families())
        )
    if family.raw_args:
        tokens = [argument_text] if argument_text else []
    else:
        tokens = (
            [a for a in argument_text.split(",") if a] if argument_text else []
        )
    if not (family.min_args <= len(tokens) <= family.max_args):
        expected = (
            str(family.min_args)
            if family.min_args == family.max_args
            else f"{family.min_args}-{family.max_args}"
        )
        raise GraphValidationError(
            f"family {family_name!r} ({family.name}:{family.signature}) "
            f"expects {expected} argument(s), got {len(tokens)}"
        )
    values = [family.coerce(i, token) for i, token in enumerate(tokens)]
    return family.build(*values)
