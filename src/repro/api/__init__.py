"""repro.api — the session layer: one front door to the whole pipeline.

* :class:`GraphSession` — canonicalize a graph once (``nx.Graph``,
  ``family:args`` spec string, or edge list), cache the
  ``IndexedGraph``/``CdsIndex``/connectivity estimate, and run every
  task (``connectivity``, ``pack_cds``, ``pack_spanning``,
  ``pack_integral``, ``broadcast``, ``gossip``, ``simulate``) against
  the cached view.
* :class:`Result` — the typed, JSON-round-trippable envelope every task
  returns (graph fingerprint, seed, parameters, timings, payload).
* :class:`JobSpec` / :func:`run` — the batch scheduler: a declarative
  graph × seed × task × transport matrix fanned across a pluggable
  backend (``serial`` / ``process`` — see :mod:`repro.api.backends`) with deterministic per-job seeds,
  streaming JSONL rows, and sha256-manifest checkpoint/resume.
* :func:`parse_graph_spec` — the hardened graph-family spec parser
  (previously CLI-only).

The module-level task functions (:func:`connectivity`, :func:`pack_cds`,
…) are one-shot conveniences: each builds a throwaway session. For more
than one call on the same graph, hold a :class:`GraphSession`.
"""

from __future__ import annotations

from repro.api.backends import (
    BatchBackend,
    available_backends,
    register_backend,
)
from repro.api.batch import (
    JobSpec,
    derive_seed,
    expand_matrix,
    is_error_row,
    job_digest,
    load_jobs,
    run,
    run_to_jsonl,
)
from repro.api.envelope import (
    ENVELOPE_VERSION,
    Result,
    decode_value,
    encode_value,
)
from repro.api.session import SESSION_TASKS, GraphSession, TopologyLike
from repro.api.specs import (
    GRAPH_FAMILIES,
    available_families,
    family_signatures,
    load_adjacency_csv,
    parse_graph_spec,
)


def connectivity(topology: TopologyLike, **kwargs) -> Result:
    """One-shot :meth:`GraphSession.connectivity`."""
    return GraphSession(topology).connectivity(**kwargs)


def pack_cds(topology: TopologyLike, **kwargs) -> Result:
    """One-shot :meth:`GraphSession.pack_cds`."""
    return GraphSession(topology).pack_cds(**kwargs)


def pack_spanning(topology: TopologyLike, **kwargs) -> Result:
    """One-shot :meth:`GraphSession.pack_spanning`."""
    return GraphSession(topology).pack_spanning(**kwargs)


def pack_integral(topology: TopologyLike, **kwargs) -> Result:
    """One-shot :meth:`GraphSession.pack_integral`."""
    return GraphSession(topology).pack_integral(**kwargs)


def broadcast(topology: TopologyLike, **kwargs) -> Result:
    """One-shot :meth:`GraphSession.broadcast`."""
    return GraphSession(topology).broadcast(**kwargs)


def gossip(topology: TopologyLike, **kwargs) -> Result:
    """One-shot :meth:`GraphSession.gossip`."""
    return GraphSession(topology).gossip(**kwargs)


def simulate(topology: TopologyLike, **kwargs) -> Result:
    """One-shot :meth:`GraphSession.simulate`."""
    return GraphSession(topology).simulate(**kwargs)


__all__ = [
    "GraphSession",
    "TopologyLike",
    "SESSION_TASKS",
    "Result",
    "ENVELOPE_VERSION",
    "encode_value",
    "decode_value",
    "JobSpec",
    "run",
    "run_to_jsonl",
    "load_jobs",
    "expand_matrix",
    "derive_seed",
    "job_digest",
    "is_error_row",
    "BatchBackend",
    "available_backends",
    "register_backend",
    "parse_graph_spec",
    "load_adjacency_csv",
    "available_families",
    "family_signatures",
    "GRAPH_FAMILIES",
    "connectivity",
    "pack_cds",
    "pack_spanning",
    "pack_integral",
    "broadcast",
    "gossip",
    "simulate",
]
