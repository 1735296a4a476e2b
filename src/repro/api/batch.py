"""Batch scheduler: fan declarative job specs across execution planes.

A :class:`JobSpec` names one unit of work — *graph × task × seed ×
transport (+ task kwargs)* — and :func:`run` executes a list of them,
streaming one canonical JSONL row (a serialized
:class:`~repro.api.envelope.Result`) per job, in job order. This is the
substrate every sweep/serving layer sits on:

* **session reuse** — jobs are grouped by graph spec and each group runs
  through one :class:`~repro.api.GraphSession`, so a graph is
  canonicalized once per chunk no matter how many tasks hit it;
* **deterministic seeds** — a job without an explicit seed gets one
  derived from ``sha256(base_seed | job index | job key)``, so the same
  spec file always produces byte-identical JSONL (rows are
  :meth:`~repro.api.envelope.Result.canonical_json`: sorted keys, no
  timings);
* **fan-out** — ``backend=`` selects one of the execution planes of
  :mod:`repro.api.backends` (``serial`` / ``process``);
  graph groups are split into worker-sized chunks (a
  single-graph sweep still uses every worker) and rows are reassembled
  in job order, so every backend emits identical bytes;
* **checkpoint/resume** — ``checkpoint=`` write-ahead-logs each row to
  a manifest keyed by ``sha256(job.key() | seed)`` as its chunk
  completes; ``resume=True`` reloads it, skips completed jobs, rejects
  a mismatched jobs file loudly, and still emits byte-identical final
  JSONL — a killed million-job sweep restarts where it died.

The matrix shorthand :func:`expand_matrix` turns
``{"graphs": [...], "tasks": [...], "seeds": [...]}`` into the full
cross product; ``repro batch jobs.json`` is the CLI face and the
service's ``batch`` op routes through the same scheduler.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import dataclass, field
from typing import (
    Any, Dict, IO, List, Mapping, Optional, Sequence, Tuple, Union,
)

from repro.api.backends import default_workers, get_backend, make_chunks
from repro.api.envelope import Result
from repro.api.session import GraphSession
from repro.api.tasks import (
    SESSION_TASKS, decode, error_type, integer, json_list, json_object,
)
from repro.errors import BadRequestError, GraphValidationError

_SEED_SPACE = 2**63

#: Manifest self-identification; bump ``_CHECKPOINT_VERSION`` on any
#: breaking change to the line format.
_CHECKPOINT_KIND = "repro-batch-checkpoint"
_CHECKPOINT_VERSION = 1


@dataclass
class JobSpec:
    """One declarative unit of batch work.

    ``seed=None`` means "derive deterministically from the batch's
    ``base_seed`` and this job's position/identity"; an explicit int is
    used verbatim. ``transport`` maps to the task's transport-like
    field (``broadcast``: ``transport``; ``simulate``: ``model``).
    ``params`` are the task's other :mod:`repro.api.tasks` fields.
    """

    graph: str
    task: str = "connectivity"
    seed: Optional[int] = None
    transport: Optional[str] = None
    params: Dict[str, Any] = field(default_factory=dict)
    label: Optional[str] = None

    def __post_init__(self) -> None:
        if self.task not in SESSION_TASKS:
            raise GraphValidationError(
                f"unknown batch task {self.task!r}; valid tasks: "
                + ", ".join(SESSION_TASKS)
            )

    def key(self) -> str:
        """Canonical identity string (seed derivation input)."""
        return json.dumps(
            {
                "graph": self.graph,
                "task": self.task,
                "transport": self.transport,
                "params": self.params,
                "label": self.label,
            },
            sort_keys=True,
            separators=(",", ":"),
        )

    def to_dict(self) -> Dict[str, Any]:
        body: Dict[str, Any] = {"graph": self.graph, "task": self.task}
        if self.seed is not None:
            body["seed"] = self.seed
        if self.transport is not None:
            body["transport"] = self.transport
        if self.params:
            body["params"] = self.params
        if self.label is not None:
            body["label"] = self.label
        return body

    @classmethod
    def from_dict(cls, body: Mapping[str, Any]) -> "JobSpec":
        body = _checked(json_object, "job", body)
        unknown = set(body) - {
            "graph", "task", "seed", "transport", "params", "label"
        }
        if unknown:
            raise GraphValidationError(
                f"unknown JobSpec field(s) {sorted(unknown)}; valid "
                "fields: graph, task, seed, transport, params, label"
            )
        if "graph" not in body:
            raise GraphValidationError("a JobSpec requires a 'graph' spec")
        return cls(
            graph=body["graph"],
            task=body.get("task", "connectivity"),
            seed=body.get("seed"),
            transport=body.get("transport"),
            params=dict(
                _checked(json_object, "params", body.get("params", {}))
            ),
            label=body.get("label"),
        )


def _checked(parser, name: str, value: Any) -> Any:
    """A job file's field through a :mod:`repro.api.tasks` parser,
    rejected with the :class:`GraphValidationError` of the file's other
    checks."""
    try:
        return parser(name, value)
    except BadRequestError as exc:
        raise GraphValidationError(f"job file: {exc}") from None


def derive_seed(base_seed: int, index: int, job: JobSpec) -> int:
    """Deterministic per-job seed: sha256 over base seed, position, and
    the job's canonical identity — stable across runs and processes."""
    digest = hashlib.sha256(
        f"{base_seed}|{index}|{job.key()}".encode("utf-8")
    ).digest()
    return int.from_bytes(digest[:8], "big") % _SEED_SPACE


def job_digest(job: JobSpec, seed: int) -> str:
    """Checkpoint identity of one resolved job: ``sha256(key | seed)``.

    The same derandomize-the-randomness idiom as the seed derivation:
    identity is a pure function of declared inputs, so a resumed run
    can prove — not assume — that a manifest row belongs to this batch.
    """
    return hashlib.sha256(
        f"{job.key()}|{seed}".encode("utf-8")
    ).hexdigest()


def expand_matrix(matrix: Mapping[str, Any]) -> List[JobSpec]:
    """Cross-product shorthand → the explicit job list.

    Keys: ``graphs`` (required), ``tasks`` (default
    ``["connectivity"]``), ``seeds`` (explicit seed values; default one
    derived seed), ``trials`` (N derived-seed repetitions; exclusive
    with ``seeds``), ``transports`` (default ``[None]``), ``params`` (a
    mapping *task name → kwargs* applied to that task's jobs), and
    ``base_seed`` (consumed by :func:`run` as its seed-derivation base
    when the caller does not pass one explicitly). The lists, the
    integers and the objects go through :mod:`repro.api.tasks`'s
    parsers; a malformed one is a :class:`GraphValidationError`.

    Expansion order is graphs ▸ tasks ▸ transports ▸ seeds — the JSONL
    row order of the resulting batch.
    """
    if not matrix.get("graphs"):
        raise GraphValidationError("job matrix requires a non-empty 'graphs'")
    unknown = set(matrix) - {
        "graphs", "tasks", "seeds", "trials", "transports", "params",
        "base_seed",
    }
    if unknown:
        raise GraphValidationError(
            f"unknown job-matrix field(s) {sorted(unknown)}; valid fields: "
            "graphs, tasks, seeds, trials, transports, params, base_seed"
        )
    if "seeds" in matrix and "trials" in matrix:
        raise GraphValidationError(
            "job matrix takes 'seeds' (explicit) or 'trials' (derived), "
            "not both"
        )
    graphs = _checked(json_list, "graphs", matrix["graphs"])
    tasks = _checked(
        json_list, "tasks", matrix.get("tasks", ["connectivity"])
    )
    transports = _checked(
        json_list, "transports", matrix.get("transports", [None])
    )
    params_by_task = {
        task: _checked(json_object, f"params.{task}", params)
        for task, params in _checked(
            json_object, "params", matrix.get("params", {})
        ).items()
    }
    unknown_param_tasks = set(params_by_task) - set(SESSION_TASKS)
    if unknown_param_tasks:
        raise GraphValidationError(
            f"job-matrix params name unknown task(s) "
            f"{sorted(unknown_param_tasks)}; valid tasks: "
            + ", ".join(SESSION_TASKS)
        )
    if "seeds" in matrix:
        seeds: Sequence[Optional[int]] = _checked(
            json_list, "seeds", matrix["seeds"]
        )
    else:
        trials = _checked(integer, "trials", matrix.get("trials", 1))
        if trials < 1:
            raise GraphValidationError("'trials' must be >= 1")
        # Repeated trials stay label-free: the executor's per-job seed
        # derivation (position-aware) already makes them independent,
        # and identical labels keep them one sweep point downstream.
        seeds = [None] * trials
    jobs: List[JobSpec] = []
    for graph in graphs:
        for task in tasks:
            for transport in transports:
                for seed in seeds:
                    jobs.append(
                        JobSpec(
                            graph=graph,
                            task=task,
                            seed=seed,
                            transport=transport,
                            params=dict(params_by_task.get(task, {})),
                        )
                    )
    return jobs


def read_source(source: Union[str, Mapping, Sequence]) -> Any:
    """A job source with a JSON file path read and parsed; a matrix or
    job list passes through. Callers that need both the jobs and the
    matrix fields (``base_seed``) read a path once with this and hand
    the parsed source on, so both come from the same bytes."""
    if isinstance(source, str):
        with open(source, "r", encoding="utf-8") as handle:
            return json.load(handle)
    return source


def load_jobs(source: Union[str, Mapping, Sequence]) -> List[JobSpec]:
    """Jobs from a JSON file path, a matrix mapping, or a list of dicts."""
    source = read_source(source)
    if isinstance(source, Mapping):
        return expand_matrix(source)
    if isinstance(source, Sequence) and not isinstance(source, str):
        return [
            job if isinstance(job, JobSpec) else JobSpec.from_dict(job)
            for job in source
        ]
    raise GraphValidationError(
        f"cannot interpret job source {type(source).__name__!r}; expected "
        "a path, a job-matrix mapping, or a list of job dicts"
    )


def _job_fields(job: JobSpec, seed: int) -> Dict[str, Any]:
    """A job's request fields for :func:`repro.api.tasks.decode`."""
    if "seed" in job.params:
        raise BadRequestError(
            "params may not set 'seed'; the job's own seed field owns it"
        )
    fields = {**job.params, "seed": seed}
    if job.transport is not None:
        name = {"broadcast": "transport", "simulate": "model"}.get(job.task)
        if name is None:
            raise GraphValidationError(
                f"task {job.task!r} does not take a transport "
                f"(got {job.transport!r})"
            )
        fields[name] = job.transport
    return fields


def _error_result(job: JobSpec, seed: Optional[int], error: Exception) -> Result:
    """A failed job's row: machine-readable, no string parsing needed.

    ``payload["status"] == "error"`` discriminates failure rows from
    real results; ``error_type`` is the service's category
    (:func:`repro.api.tasks.error_type`) and ``error_name`` the Python
    exception class, with the
    bare message in ``error`` — consumers no longer have to split a
    ``"ErrorName: msg"`` string.
    """
    return Result(
        task=job.task,
        graph=job.graph,
        fingerprint="",
        n=0,
        m=0,
        seed=seed,
        params={"transport": job.transport, **job.params},
        payload={
            "status": "error",
            "error": str(error),
            "error_type": error_type(error),
            "error_name": type(error).__name__,
        },
    )


def is_error_row(result: Result) -> bool:
    """Whether an envelope is a batch error row (see :func:`_error_result`)."""
    return result.payload.get("status") == "error"


def _execute_items(
    items: List[Tuple[int, JobSpec, Dict[str, Any]]]
) -> List[Tuple[int, Result]]:
    """Run one chunk's decoded jobs through a shared session.

    The one job-execution loop — every backend's chunk runner goes
    through it. Each item is ``(job index, job, decoded kwargs)``, the
    kwargs carrying the job's seed. *Any* per-job failure becomes an
    error-row envelope: one broken job must not abort the batch. Chunks
    are same-graph by construction, but the session is rebuilt
    defensively if a mixed chunk ever appears.
    """
    rows: List[Tuple[int, Result]] = []
    session: Optional[GraphSession] = None
    session_graph: Optional[str] = None
    for index, job, kwargs in items:
        try:
            if session is None or session_graph != job.graph:
                session = GraphSession(job.graph)
                session_graph = job.graph
            result = getattr(session, job.task)(**kwargs)
        except Exception as error:  # noqa: BLE001 — error row, keep going
            result = _error_result(job, kwargs["seed"], error)
        rows.append((index, result))
    return rows


# -- checkpoint manifest ---------------------------------------------------


def _batch_digest(digests: Sequence[str]) -> str:
    """One hash over the whole resolved batch (all per-job digests, in
    order) — the manifest's fast whole-file identity check."""
    return hashlib.sha256("\n".join(digests).encode("ascii")).hexdigest()


def _manifest_header(digests: Sequence[str]) -> str:
    return json.dumps(
        {
            "kind": _CHECKPOINT_KIND,
            "version": _CHECKPOINT_VERSION,
            "jobs": len(digests),
            "batch": _batch_digest(digests),
        },
        sort_keys=True,
        separators=(",", ":"),
    )


def _manifest_line(index: int, digest: str, row: str) -> str:
    return json.dumps(
        {"i": index, "d": digest, "row": row},
        sort_keys=True,
        separators=(",", ":"),
    )


def _load_checkpoint(path: str, digests: Sequence[str]) -> Dict[int, str]:
    """Completed rows from a manifest: ``{job index: canonical row}``.

    A missing file means a fresh start (``{}``). A manifest written for
    a *different* jobs file — wrong job count, wrong batch digest, or a
    row whose per-job digest disagrees — is rejected loudly. A
    truncated trailing line (the run was killed mid-write) is dropped;
    a malformed line anywhere *before* the end is corruption and fails.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except FileNotFoundError:
        return {}
    if not text:
        return {}
    lines = text.split("\n")
    # The final element is either "" (file ended on a newline) or a
    # kill-truncated partial record; neither is a complete line.
    lines = lines[:-1]
    if not lines:
        return {}

    def _bad(reason: str) -> GraphValidationError:
        return GraphValidationError(
            f"checkpoint {path!r} does not match this batch: {reason}; "
            "delete the checkpoint (or point --checkpoint elsewhere) to "
            "start fresh"
        )

    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as exc:
        raise _bad(f"unreadable header ({exc})") from exc
    if (
        not isinstance(header, dict)
        or header.get("kind") != _CHECKPOINT_KIND
    ):
        raise _bad("not a repro-batch checkpoint manifest")
    if header.get("version") != _CHECKPOINT_VERSION:
        raise _bad(
            f"manifest version {header.get('version')!r} != "
            f"{_CHECKPOINT_VERSION}"
        )
    if header.get("jobs") != len(digests):
        raise _bad(
            f"manifest is for {header.get('jobs')} job(s), this batch "
            f"has {len(digests)}"
        )
    if header.get("batch") != _batch_digest(digests):
        raise _bad(
            "batch digest mismatch — the jobs file, base seed, or "
            "explicit seeds changed since the checkpoint was written"
        )
    completed: Dict[int, str] = {}
    for lineno, line in enumerate(lines[1:], start=2):
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise _bad(f"corrupt record on line {lineno} ({exc})") from exc
        index, digest, row = (
            record.get("i"), record.get("d"), record.get("row")
        )
        if (
            not isinstance(index, int)
            or not 0 <= index < len(digests)
            or not isinstance(row, str)
        ):
            raise _bad(f"malformed record on line {lineno}")
        if digest != digests[index]:
            raise _bad(
                f"job {index} digest mismatch on line {lineno} — the "
                "manifest row belongs to a different job/seed"
            )
        completed[index] = row
    return completed


# -- the scheduler ---------------------------------------------------------


def _resolve_backend(
    backend: Optional[str], workers: Optional[int]
) -> Tuple[str, int]:
    """Default the backend to ``serial`` and size its pool: one worker
    for ``serial`` (it runs in-process whatever ``workers`` asks for),
    ``workers`` or :func:`~repro.api.backends.default_workers` for a
    pool backend."""
    if workers is not None and workers < 1:
        raise GraphValidationError(f"workers must be >= 1, got {workers}")
    if backend is None or backend == "serial":
        return "serial", 1
    return backend, workers if workers is not None else default_workers()


def run(
    jobs: Union[str, Mapping, Sequence],
    base_seed: Optional[int] = None,
    jsonl: Optional[IO[str]] = None,
    include_timings: bool = False,
    backend: Optional[str] = None,
    workers: Optional[int] = None,
    checkpoint: Optional[str] = None,
    resume: bool = False,
    stats: Optional[Dict[str, Any]] = None,
) -> List[Result]:
    """Execute a batch; return envelopes in job order.

    ``jobs`` — anything :func:`load_jobs` accepts; a file path is read
    **once** and both ``base_seed`` and the job list come from that one
    parse. ``base_seed`` — seed-derivation base; ``None`` takes the job
    matrix's ``base_seed`` field when ``jobs`` is a matrix (or a file
    containing one), else 0; an explicit argument always wins.

    ``backend`` — an execution plane of :mod:`repro.api.backends`
    (``serial`` / ``process``);
    ``workers`` sizes its pool. Rows are reassembled by job index, so
    every backend × worker count emits byte-identical output.

    ``jsonl`` — a text stream receiving one row per job, written in job
    order *as jobs complete* (an in-order prefix streams out while
    later chunks still run); rows are
    :meth:`~repro.api.envelope.Result.canonical_json` unless
    ``include_timings`` (then timings ride along and byte-identity
    across runs no longer holds).

    ``checkpoint`` — a manifest path write-ahead-logging every
    completed row (flushed per chunk) under its
    ``sha256(job.key() | seed)`` digest. ``resume=True`` reloads the
    manifest before executing: completed jobs are skipped and their
    rows replayed, a manifest for a different jobs file is rejected
    loudly, and the final output is byte-identical to an uninterrupted
    run. ``stats`` — an optional dict populated in place with
    ``backend``, ``workers``, ``chunks``, ``resumed``, ``executed``,
    and the distinct ``worker_pids`` observed (proof of fan-out).
    """
    # One read of the source: base_seed and the job list come from the
    # same parsed object (the old separate reads were a TOCTOU window).
    source = read_source(jobs)
    if base_seed is None:
        if isinstance(source, Mapping):
            base_seed = _checked(
                integer, "base_seed", source.get("base_seed", 0)
            )
        else:
            base_seed = 0
    job_list = load_jobs(source)
    seeds = [
        job.seed if job.seed is not None else derive_seed(base_seed, i, job)
        for i, job in enumerate(job_list)
    ]
    digests = [job_digest(job, seed) for job, seed in zip(job_list, seeds)]

    backend_name, worker_count = _resolve_backend(backend, workers)
    plane = get_backend(backend_name)

    if checkpoint is not None and include_timings:
        raise GraphValidationError(
            "checkpoint manifests store canonical timing-free rows; "
            "include_timings cannot be combined with a checkpoint"
        )
    if resume and checkpoint is None:
        raise GraphValidationError(
            "resume=True needs a checkpoint= manifest path to resume from"
        )
    completed = _load_checkpoint(checkpoint, digests) if resume else {}

    total = len(job_list)
    ordered: List[Optional[Result]] = [None] * total
    rows: List[Optional[str]] = [None] * total
    for index, row in completed.items():
        ordered[index] = Result.from_dict(json.loads(row))
        rows[index] = row

    # Plan: decode every pending job once. A job that fails to decode
    # is its error row now and enters no chunk; the rest are grouped by
    # graph spec (one GraphSession per chunk), and oversized groups
    # split so even a one-graph sweep fans out across every worker.
    failed: List[Tuple[int, Result, str]] = []
    groups: Dict[str, List[Tuple[int, JobSpec, Dict[str, Any]]]] = {}
    for index, (job, seed) in enumerate(zip(job_list, seeds)):
        if index in completed:
            continue
        try:
            kwargs = decode(job.task, _job_fields(job, seed))
        except Exception as error:  # noqa: BLE001 — error row, keep going
            result = _error_result(job, seed, error)
            failed.append((index, result, result.canonical_json()))
            continue
        groups.setdefault(job.graph, []).append((index, job, kwargs))
    chunks = make_chunks(groups, worker_count)

    run_stats: Dict[str, Any] = {
        "backend": backend_name,
        "workers": worker_count,
        "jobs": total,
        "resumed": len(completed),
        "executed": total - len(completed),
        "chunks": len(chunks),
        "worker_pids": set(),
    }

    next_write = 0

    def _drain() -> None:
        """Stream the completed in-order prefix to the sink."""
        nonlocal next_write
        while next_write < total and rows[next_write] is not None:
            if jsonl is not None:
                if include_timings:
                    jsonl.write(
                        json.dumps(
                            ordered[next_write].to_dict(include_timings=True),
                            sort_keys=True,
                            separators=(",", ":"),
                        )
                    )
                else:
                    jsonl.write(rows[next_write])
                jsonl.write("\n")
            next_write += 1

    manifest: Optional[IO[str]] = None
    try:
        if checkpoint is not None:
            # Rewrite the manifest from scratch (header + replayed
            # rows): appending after a kill-truncated trailing line
            # would corrupt the file.
            manifest = open(checkpoint, "w", encoding="utf-8")
            manifest.write(_manifest_header(digests) + "\n")
            for index in sorted(completed):
                manifest.write(
                    _manifest_line(index, digests[index], rows[index]) + "\n"
                )
            manifest.flush()
        _drain()
        # The rows that failed to decode land first, as one more chunk.
        executed = (
            plane.execute(chunks, worker_count, run_stats) if chunks else ()
        )
        for chunk_rows in itertools.chain([failed], executed):
            for index, result, canonical in chunk_rows:
                ordered[index] = result
                rows[index] = canonical
            # Write-ahead: the manifest is durable before the sink sees
            # the rows, so a crash between the two replays cleanly on
            # resume.
            if manifest is not None:
                for index, _, canonical in chunk_rows:
                    manifest.write(
                        _manifest_line(index, digests[index], canonical)
                        + "\n"
                    )
                manifest.flush()
            _drain()
    finally:
        if manifest is not None:
            manifest.close()

    if stats is not None:
        run_stats["worker_pids"] = sorted(run_stats["worker_pids"])
        stats.update(run_stats)
    return [result for result in ordered if result is not None]


def run_to_jsonl(
    jobs: Union[str, Mapping, Sequence],
    path: str,
    base_seed: Optional[int] = None,
    include_timings: bool = False,
    backend: Optional[str] = None,
    workers: Optional[int] = None,
    checkpoint: Optional[str] = None,
    resume: bool = False,
    stats: Optional[Dict[str, Any]] = None,
) -> List[Result]:
    """:func:`run` with rows streamed to a file at ``path``."""
    with open(path, "w", encoding="utf-8") as handle:
        return run(
            jobs,
            base_seed=base_seed,
            jsonl=handle,
            include_timings=include_timings,
            backend=backend,
            workers=workers,
            checkpoint=checkpoint,
            resume=resume,
            stats=stats,
        )
