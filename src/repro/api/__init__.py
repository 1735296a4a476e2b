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
  graph × seed × task × transport matrix fanned across an execution
  plane (``serial`` / ``process`` — see :mod:`repro.api.backends`) with
  deterministic per-job seeds, streaming JSONL rows, and
  sha256-manifest checkpoint/resume.
* :mod:`repro.api.tasks` — the one request table: each task's JSON
  fields and their parsers, shared by the CLI, the daemon, the shell
  and batch jobs (:data:`SESSION_TASKS` names its tasks).
* :func:`parse_graph_spec` — the hardened graph-family spec parser
  (previously CLI-only).
"""

from __future__ import annotations

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
from repro.api.session import GraphSession, TopologyLike
from repro.api.specs import (
    GRAPH_FAMILIES,
    available_families,
    family_signatures,
    load_adjacency_csv,
    parse_graph_spec,
)
from repro.api.tasks import SESSION_TASKS

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
    "parse_graph_spec",
    "load_adjacency_csv",
    "available_families",
    "family_signatures",
    "GRAPH_FAMILIES",
]
