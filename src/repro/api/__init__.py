"""repro.api — the session layer: one front door to the whole pipeline.

* :class:`GraphSession` — canonicalize a graph once (``nx.Graph``,
  ``family:args`` spec string, or edge list), cache the
  ``IndexedGraph``/``CdsIndex``/connectivity estimate, and run every
  task (``connectivity``, ``pack_cds``, ``pack_spanning``,
  ``pack_integral``, ``broadcast``, ``gossip``, ``simulate``) against
  the cached view.
* :class:`Result` — the typed, JSON-round-trippable envelope every task
  returns (graph fingerprint, seed, parameters, timings, payload).
* :func:`parse_graph_spec` — the hardened graph-family spec parser.

These three are the package's only names; everything else is imported
from its own module:

* :mod:`repro.api.batch` — :class:`~repro.api.batch.JobSpec` /
  :func:`~repro.api.batch.run`, the batch scheduler: a declarative
  graph × seed × task × transport matrix fanned across an execution
  plane (``serial`` / ``process`` — see :mod:`repro.api.backends`) with
  deterministic per-job seeds, streaming JSONL rows, and
  sha256-manifest checkpoint/resume.
* :mod:`repro.api.tasks` — the one request table: each task's JSON
  fields and their parsers, shared by the CLI, the daemon, the shell
  and batch jobs (:data:`~repro.api.tasks.SESSION_TASKS` names its
  tasks).
* :mod:`repro.api.specs` — the graph families
  (:data:`~repro.api.specs.GRAPH_FAMILIES`) and the CSV adjacency
  loader.
* :mod:`repro.api.envelope` — the envelope codec.

Importing this package loads neither the batch scheduler nor the
simulator.
"""

from __future__ import annotations

from repro.api.envelope import Result
from repro.api.session import GraphSession
from repro.api.specs import parse_graph_spec
