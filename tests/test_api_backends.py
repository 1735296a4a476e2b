"""Batch backends + checkpoint/resume: registry, worker sizing, chunk
planning, byte-identity across execution planes, the one-graph
parallelism fix, kill-and-resume equivalence, and failure-path
taxonomy."""

from __future__ import annotations

import io
import json
import os
import re
from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.api import backends, batch
from repro.api.backends import (
    default_workers,
    get_backend,
    make_chunks,
    schedulable_cpus,
)
from repro.errors import BatchExecutionError, GraphValidationError

MATRIX = {
    "graphs": ["harary:4,12", "hypercube:3"],
    "tasks": ["connectivity"],
    "trials": 4,
}

ONE_GRAPH = {
    "graphs": ["harary:4,12"],
    "tasks": ["connectivity"],
    "trials": 200,
}


def _jsonl(jobs, **kwargs) -> str:
    stream = io.StringIO()
    batch.run(jobs, jsonl=stream, **kwargs)
    return stream.getvalue()


class TestRegistry:
    def test_builtin_backends_registered(self):
        assert sorted(backends.BACKENDS) == ["process", "serial"]

    def test_unknown_backend_lists_registry(self):
        with pytest.raises(GraphValidationError) as excinfo:
            get_backend("quantum")
        message = str(excinfo.value)
        assert "quantum" in message
        for name in ("serial", "process"):
            assert name in message

    def test_thread_backend_is_gone(self):
        with pytest.raises(GraphValidationError) as excinfo:
            batch.run(MATRIX, backend="thread", workers=2)
        assert str(excinfo.value) == (
            "unknown batch backend 'thread'; registered backends: "
            "process, serial"
        )

    def test_unknown_backend_through_run(self):
        with pytest.raises(GraphValidationError, match="registered backends"):
            batch.run(MATRIX, backend="quantum")

    def test_invalid_worker_count(self):
        with pytest.raises(GraphValidationError, match=">= 1"):
            batch.run(MATRIX, backend="process", workers=0)


class TestSchedulableCpus:
    """Worker sizing reads the *schedulable* CPU set, not the host count:
    in a cgroup/affinity-limited container ``os.cpu_count()`` reports
    host logical CPUs and over-forks."""

    def test_affinity_set_wins(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 5}, raising=False)
        assert schedulable_cpus() == 2

    def test_falls_back_to_cpu_count(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 7)
        assert schedulable_cpus() == 7

    def test_oserror_falls_back_to_cpu_count(self, monkeypatch):
        def boom(pid):
            raise OSError("no affinity syscall here")

        monkeypatch.setattr(os, "sched_getaffinity", boom, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert schedulable_cpus() == 3

    def test_never_below_one(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert schedulable_cpus() == 1

    def test_default_workers_track_affinity(self, monkeypatch):
        # One schedulable core on a 64-core host: one worker, not 8.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        assert default_workers() == 1

    def test_default_workers_capped(self, monkeypatch):
        monkeypatch.setattr(
            os, "sched_getaffinity", lambda pid: set(range(32)), raising=False
        )
        assert default_workers() == backends.MAX_DEFAULT_WORKERS


class TestChunkPlanning:
    def _group(self, graph, count, start=0):
        return [
            (start + i, {"graph": graph, "task": "connectivity"}, i)
            for i in range(count)
        ]

    def test_single_worker_keeps_groups_whole(self):
        groups = {"g": self._group("g", 200)}
        assert len(make_chunks(groups, 1)) == 1

    def test_one_graph_group_splits_across_workers(self):
        # The parallelism-hole fix: one 200-job group, 4 workers.
        groups = {"g": self._group("g", 200)}
        chunks = make_chunks(groups, 4)
        assert len(chunks) == 4
        assert [len(chunk) for chunk in chunks] == [50, 50, 50, 50]
        # consecutive slices: job order inside each chunk is preserved
        flattened = [index for chunk in chunks for index, _, _ in chunk]
        assert flattened == list(range(200))

    def test_small_groups_stay_whole(self):
        # target = ceil(20 / 2) = 10, so neither group needs splitting
        groups = {
            "a": self._group("a", 10),
            "b": self._group("b", 10, start=10),
        }
        chunks = make_chunks(groups, 2)
        assert [len(chunk) for chunk in chunks] == [10, 10]

    def test_groups_are_never_merged(self):
        groups = {
            "a": self._group("a", 1),
            "b": self._group("b", 1, start=1),
        }
        for chunk in make_chunks(groups, 2):
            graphs = {body["graph"] for _, body, _ in chunk}
            assert len(graphs) == 1


class TestBackendEquivalence:
    def test_all_backends_byte_identical(self):
        reference = _jsonl(MATRIX)
        for backend in ("serial", "process"):
            assert _jsonl(MATRIX, backend=backend, workers=2) == reference, (
                backend
            )

    def test_serial_default(self):
        stats = {}
        _jsonl(MATRIX, stats=stats)
        assert stats["backend"] == "serial"
        assert stats["workers"] == 1

    def test_serial_plane_plans_one_worker(self):
        # The serial plane runs in-process: asking it for workers must
        # not split a one-graph matrix into chunks that each rebuild
        # the graph's index.
        jobs = dict(ONE_GRAPH, trials=8)
        stats = {}
        rows = _jsonl(jobs, workers=4, stats=stats)
        assert (stats["chunks"], stats["workers"]) == (1, 1)
        assert rows == _jsonl(jobs)
        with pytest.raises(GraphValidationError, match=">= 1"):
            batch.run(jobs, workers=0)

    def test_single_graph_matrix_uses_multiple_workers(self):
        # The acceptance gate: a 200-job sweep over ONE graph must fan
        # out — previously `len(groups) > 1` kept it on a single worker.
        stats = {}
        rows = _jsonl(ONE_GRAPH, backend="process", workers=2, stats=stats)
        assert len(rows.splitlines()) == 200
        assert stats["chunks"] >= 2
        assert len(stats["worker_pids"]) >= 2
        assert rows == _jsonl(ONE_GRAPH)  # and bytes still match serial


class _FailAfter(io.StringIO):
    """A sink that dies after N rows — simulates a killed run."""

    def __init__(self, rows: int) -> None:
        super().__init__()
        self._remaining = rows

    def write(self, text: str) -> int:
        if text == "\n":
            if self._remaining <= 0:
                raise OSError("simulated kill")
            self._remaining -= 1
        return super().write(text)


class TestCheckpointResume:
    def test_fresh_run_writes_manifest(self, tmp_path):
        ck = tmp_path / "ck.jsonl"
        reference = _jsonl(MATRIX, checkpoint=str(ck))
        lines = ck.read_text().splitlines()
        header = json.loads(lines[0])
        assert header["kind"] == "repro-batch-checkpoint"
        assert header["jobs"] == len(reference.splitlines())
        assert len(lines) == 1 + header["jobs"]

    @pytest.mark.parametrize("backend", ["serial", "process"])
    def test_killed_run_resumes_byte_identical(self, tmp_path, backend):
        reference = _jsonl(MATRIX)
        ck = tmp_path / "ck.jsonl"
        sink = _FailAfter(3)
        with pytest.raises(OSError, match="simulated kill"):
            batch.run(
                MATRIX, jsonl=sink, checkpoint=str(ck),
                backend=backend, workers=2,
            )
        # the write-ahead manifest holds at least the rows the sink saw
        assert len(ck.read_text().splitlines()) >= 4
        stats = {}
        resumed = _jsonl(
            MATRIX, checkpoint=str(ck), resume=True,
            backend=backend, workers=2, stats=stats,
        )
        assert resumed == reference
        assert stats["resumed"] >= 3

    def test_truncated_trailing_manifest_line_is_dropped(self, tmp_path):
        ck = tmp_path / "ck.jsonl"
        reference = _jsonl(MATRIX, checkpoint=str(ck))
        text = ck.read_text()
        lines = text.splitlines(keepends=True)
        # keep header + 2 complete rows, then a kill-truncated partial
        ck.write_text("".join(lines[:3]) + lines[3][: len(lines[3]) // 2])
        stats = {}
        resumed = _jsonl(MATRIX, checkpoint=str(ck), resume=True, stats=stats)
        assert resumed == reference
        assert stats["resumed"] == 2

    def test_resume_with_missing_manifest_is_a_fresh_run(self, tmp_path):
        ck = tmp_path / "absent.jsonl"
        stats = {}
        assert _jsonl(
            MATRIX, checkpoint=str(ck), resume=True, stats=stats
        ) == _jsonl(MATRIX)
        assert stats["resumed"] == 0
        assert ck.exists()

    def test_mismatched_jobs_file_rejected(self, tmp_path):
        ck = tmp_path / "ck.jsonl"
        _jsonl(MATRIX, checkpoint=str(ck))
        with pytest.raises(GraphValidationError, match="does not match"):
            batch.run(
                {**MATRIX, "trials": 5}, checkpoint=str(ck), resume=True
            )

    def test_changed_base_seed_rejected(self, tmp_path):
        # Same job count, different derived seeds → batch digest differs.
        ck = tmp_path / "ck.jsonl"
        _jsonl(MATRIX, checkpoint=str(ck))
        with pytest.raises(GraphValidationError, match="digest mismatch"):
            batch.run(MATRIX, base_seed=999, checkpoint=str(ck), resume=True)

    def test_foreign_file_rejected(self, tmp_path):
        ck = tmp_path / "ck.jsonl"
        ck.write_text('{"something": "else"}\n')
        with pytest.raises(GraphValidationError, match="not a repro-batch"):
            batch.run(MATRIX, checkpoint=str(ck), resume=True)

    def test_resume_requires_checkpoint(self):
        with pytest.raises(GraphValidationError, match="checkpoint"):
            batch.run(MATRIX, resume=True)

    def test_checkpoint_refuses_timings(self, tmp_path):
        with pytest.raises(GraphValidationError, match="include_timings"):
            batch.run(
                MATRIX, checkpoint=str(tmp_path / "ck.jsonl"),
                include_timings=True,
            )

    def test_resumed_results_round_trip_as_envelopes(self, tmp_path):
        ck = tmp_path / "ck.jsonl"
        fresh = batch.run(MATRIX, checkpoint=str(ck))
        resumed = batch.run(MATRIX, checkpoint=str(ck), resume=True)
        assert [r.canonical_json() for r in resumed] == [
            r.canonical_json() for r in fresh
        ]


class _BrokenPool:
    """Stand-in ProcessPoolExecutor whose workers are already dead."""

    def __init__(self, max_workers=None):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, chunk):
        future = Future()
        future.set_exception(BrokenProcessPool("a worker was killed"))
        return future


class TestFailurePaths:
    def test_worker_crash_surfaces_typed_chained_error(self, monkeypatch):
        monkeypatch.setattr(backends, "ProcessPoolExecutor", _BrokenPool)
        with pytest.raises(BatchExecutionError) as excinfo:
            batch.run(ONE_GRAPH, backend="process", workers=2)
        message = str(excinfo.value)
        assert "harary:4,12" in message  # names the chunk's graph
        assert re.search(r"jobs \d+\.\.\d+", message)  # and its index span
        assert isinstance(excinfo.value.__cause__, BrokenProcessPool)

    def test_one_broken_job_among_many_still_yields_all_rows(self):
        jobs = {
            "graphs": ["mystery:1", "harary:4,12"],
            "tasks": ["connectivity"],
            "trials": 10,
        }
        results = batch.run(jobs, backend="process", workers=2)
        assert len(results) == 20
        broken = [r for r in results if batch.is_error_row(r)]
        assert len(broken) == 10
        assert all(r.graph == "mystery:1" for r in broken)

    def test_error_rows_carry_protocol_taxonomy(self):
        results = batch.run(
            [
                batch.JobSpec(graph="mystery:1"),
                batch.JobSpec(
                    graph="hypercube:3", task="broadcast",
                    params={"messages": "four"},
                ),
                batch.JobSpec(graph="hypercube:3"),
            ]
        )
        graph_error, bad_request, success = results
        assert graph_error.payload["status"] == "error"
        assert graph_error.payload["error_type"] == "graph"
        assert graph_error.payload["error_name"] == "GraphValidationError"
        assert "unknown graph family" in graph_error.payload["error"]
        assert bad_request.payload["error_type"] == "bad-request"
        assert bad_request.payload["error_name"] == "BadRequestError"
        assert batch.is_error_row(graph_error)
        assert not batch.is_error_row(success)
        assert "status" not in success.payload

    def test_error_rows_checkpoint_and_resume(self, tmp_path):
        # Error rows are rows: they checkpoint and replay like results.
        jobs = [
            {"graph": "mystery:1"},
            {"graph": "hypercube:3"},
        ]
        ck = tmp_path / "ck.jsonl"
        reference = _jsonl(jobs, checkpoint=str(ck))
        assert _jsonl(jobs, checkpoint=str(ck), resume=True) == reference
