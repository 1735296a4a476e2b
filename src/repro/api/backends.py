"""Batch backends: the execution planes behind :func:`repro.api.batch.run`.

The batch scheduler (:mod:`repro.api.batch`) plans *what* runs — jobs
grouped by graph so each group shares one
:class:`~repro.api.GraphSession`, split into **chunks** sized to the
worker count — and one of two execution planes (:data:`BACKENDS`)
decides *how*: in-process (:class:`SerialBackend`) or across a
:class:`~concurrent.futures.ProcessPoolExecutor`
(:class:`ProcessBackend`).

Three contracts both planes honor:

* **chunk-at-a-time streaming** — ``execute(chunks, workers, stats)``
  *yields* each chunk's rows as that chunk completes (completion order
  is unspecified); the scheduler reassembles rows by job index, so the
  final JSONL is byte-identical no matter the backend, worker count, or
  finish order.
* **rows, never exceptions, for job failures** — per-job errors are
  error-row envelopes, made by the scheduler for a job that fails to
  decode (it enters no chunk) and inside the chunk runner
  (:func:`repro.api.batch._execute_items`) otherwise; a backend only
  raises for *infrastructure* failures (a killed worker breaking the
  pool), and then as a :class:`~repro.errors.BatchExecutionError`
  naming the chunk.
* **canonical rows are computed where the job ran** — each row carries
  its precomputed :meth:`~repro.api.envelope.Result.canonical_json`
  string, so serialization happens exactly once, identically, on every
  plane (the ``raw`` object never crosses a process boundary).

Chunk planning (:func:`make_chunks`) is where the one-graph parallelism
hole is fixed: a group larger than ``ceil(total / workers)`` jobs is
split into consecutive slices, so a 200-job sweep over a *single* graph
fans out across every worker instead of serializing behind one
session. Splitting costs one extra canonicalization per extra chunk and
never changes output bytes (each job's result depends only on its own
graph × task × seed × params).
"""

from __future__ import annotations

import os
import signal
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Dict, Iterator, List, Tuple

from repro.api.envelope import Result
from repro.errors import BatchExecutionError, GraphValidationError

#: One planned unit of backend work: same-graph ``(job index, JobSpec,
#: decoded kwargs)`` triples, executed in order through one GraphSession.
Chunk = List[Tuple[int, Any, Dict[str, Any]]]

#: One executed row: ``(job index, envelope, canonical JSONL line)``.
ChunkRows = List[Tuple[int, Result, str]]

#: Cap on the default worker count.
MAX_DEFAULT_WORKERS = 8


def schedulable_cpus() -> int:
    """CPUs this process may actually be scheduled on.

    ``os.cpu_count()`` reports the *host's* logical CPUs, which
    over-forks in cgroup/affinity-limited containers (a pod pinned to
    one core on a 64-core host would default to 8 workers fighting over
    it). The scheduler's affinity mask is the truth where the platform
    exposes it; elsewhere (macOS, Windows) fall back to the host count.
    """
    getaffinity = getattr(os, "sched_getaffinity", None)
    if getaffinity is not None:
        try:
            return len(getaffinity(0)) or 1
        except OSError:  # pragma: no cover - exotic scheduler state
            pass
    return os.cpu_count() or 1


def default_workers() -> int:
    """One worker per schedulable core, capped at
    :data:`MAX_DEFAULT_WORKERS`."""
    return min(MAX_DEFAULT_WORKERS, schedulable_cpus())


def make_chunks(
    groups: Dict[str, Chunk], workers: int
) -> List[Chunk]:
    """Graph groups → backend chunks, splitting large groups.

    With one worker every group stays whole (one canonicalization per
    graph, exactly the serial contract). With ``workers > 1`` any group
    longer than ``ceil(total_jobs / workers)`` is cut into consecutive
    slices of that size — the fix for batches whose jobs all hit one
    graph, which previously could never use more than one worker.
    Deterministic: chunk boundaries depend only on the job list and the
    worker count, never on timing.
    """
    if workers <= 1:
        return [list(items) for items in groups.values()]
    total = sum(len(items) for items in groups.values())
    target = max(1, -(-total // workers))  # ceil(total / workers)
    chunks: List[Chunk] = []
    for items in groups.values():
        if len(items) <= target:
            chunks.append(list(items))
        else:
            for start in range(0, len(items), target):
                chunks.append(list(items[start:start + target]))
    return chunks


def _worker_init() -> None:
    """A pool worker dies on SIGTERM, whatever handler it inherited
    from the process that forked it."""
    signal.signal(signal.SIGTERM, signal.SIG_DFL)


def _run_chunk(chunk: Chunk) -> Tuple[int, List[Tuple[int, Dict[str, Any], str]]]:
    """Process-pool worker: one chunk through ``_execute_items``.

    Returns plain dicts plus the precomputed canonical row (the ``raw``
    object does not cross the process boundary), and the worker's pid so
    the scheduler's ``stats`` can prove real fan-out.
    """
    from repro.api.batch import _execute_items

    rows = [
        (index, result.to_dict(include_timings=True),
         result.canonical_json())
        for index, result in _execute_items(chunk)
    ]
    return os.getpid(), rows


def _chunk_span(chunk: Chunk) -> str:
    """Human-readable chunk identity for error messages."""
    graph = chunk[0][1].graph if chunk else "?"
    indexes = [index for index, _, _ in chunk]
    return f"graph {graph!r}, jobs {min(indexes)}..{max(indexes)}"


class SerialBackend:
    """In-process, in-order execution; envelopes keep their ``raw``.

    ``execute`` yields each chunk's :data:`ChunkRows` as the chunk
    completes and adds the pids it ran on to ``stats["worker_pids"]``,
    as :class:`ProcessBackend` does.
    """

    def execute(
        self, chunks: List[Chunk], workers: int, stats: Dict[str, Any]
    ) -> Iterator[ChunkRows]:
        from repro.api.batch import _execute_items

        stats["worker_pids"].add(os.getpid())
        for chunk in chunks:
            yield [
                (index, result, result.canonical_json())
                for index, result in _execute_items(chunk)
            ]


class ProcessBackend:
    """Process-pool execution: chunks fan out across real processes.

    Chunks are submitted individually and yielded as they finish, so a
    checkpointing caller persists completed work without waiting for
    the slowest chunk. A worker crash (the pool breaking) surfaces as a
    :class:`~repro.errors.BatchExecutionError` naming the chunk, with
    the pool's exception chained — never a bare pool traceback. An
    early exit (an error, a signal raised in the caller, the caller
    closing the generator) terminates the workers before the pool shuts
    down, so none is left running a chunk nobody will read.
    """

    def execute(self, chunks, workers, stats):
        try:
            with ProcessPoolExecutor(
                max_workers=workers, initializer=_worker_init
            ) as pool:
                try:
                    futures = {
                        pool.submit(_run_chunk, chunk): chunk
                        for chunk in chunks
                    }
                    for future in as_completed(futures):
                        try:
                            pid, rows = future.result()
                        except BrokenProcessPool as exc:
                            raise BatchExecutionError(
                                "batch worker crashed while running chunk "
                                f"({_chunk_span(futures[future])}); partial "
                                "results up to the last completed chunk "
                                "are preserved in the checkpoint, if one "
                                "was given"
                            ) from exc
                        stats["worker_pids"].add(pid)
                        yield [
                            (index, Result.from_dict(body), canonical)
                            for index, body, canonical in rows
                        ]
                except BaseException:
                    # The executor has no public handle on its workers
                    # before Python 3.14's terminate_workers().
                    for worker in list(pool._processes.values()):
                        worker.terminate()
                    raise
        except BrokenProcessPool as exc:
            # The pool can also break on submit or teardown, outside any
            # one future: still a typed error, still chained.
            raise BatchExecutionError(
                "batch process pool broke before all chunks completed"
            ) from exc


#: The execution planes by name.
BACKENDS = {"serial": SerialBackend(), "process": ProcessBackend()}


def get_backend(name: str):
    """Lookup with the plane names in the failure message."""
    backend = BACKENDS.get(name)
    if backend is None:
        raise GraphValidationError(
            f"unknown batch backend {name!r}; registered backends: "
            + ", ".join(sorted(BACKENDS))
        )
    return backend
