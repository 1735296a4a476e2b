"""Batch executor: deterministic seeds, byte-identical JSONL, session
reuse, process fan-out equivalence, plan-time decoding, and typed
errors for malformed job files."""

from __future__ import annotations

import io
import json

import pytest

from repro.api import (
    JobSpec,
    backends,
    derive_seed,
    expand_matrix,
    load_jobs,
    run,
    run_to_jsonl,
)
from repro.cli import main
from repro.errors import GraphValidationError
from repro.service import ServiceCore
from repro.fastgraph import IndexedGraph

MATRIX = {
    "graphs": ["harary:4,12", "hypercube:3"],
    "tasks": ["connectivity", "pack_cds"],
    "trials": 2,
}


def _jsonl(jobs, **kwargs) -> str:
    stream = io.StringIO()
    run(jobs, jsonl=stream, **kwargs)
    return stream.getvalue()


class TestJobSpec:
    def test_unknown_task_rejected(self):
        with pytest.raises(GraphValidationError, match="valid tasks"):
            JobSpec(graph="harary:4,12", task="teleport")

    def test_unknown_field_rejected(self):
        with pytest.raises(GraphValidationError, match="valid"):
            JobSpec.from_dict({"graph": "harary:4,12", "speed": 11})

    def test_round_trip(self):
        job = JobSpec(
            graph="harary:4,12", task="broadcast", transport="vertex",
            params={"messages": 4}, label="x",
        )
        assert JobSpec.from_dict(job.to_dict()) == job


class TestMatrixExpansion:
    def test_cross_product_order(self):
        jobs = expand_matrix(MATRIX)
        assert len(jobs) == 8  # 2 graphs x 2 tasks x 2 trials
        assert [j.graph for j in jobs[:4]] == ["harary:4,12"] * 4
        assert [j.task for j in jobs[:2]] == ["connectivity"] * 2
        # trials are label-free duplicates; position-aware seed
        # derivation makes them independent
        assert jobs[0].label is None and jobs[1].label is None
        assert jobs[0] == jobs[1]

    def test_explicit_seeds_pass_through(self):
        jobs = expand_matrix({"graphs": ["hypercube:3"], "seeds": [7, 8]})
        assert [j.seed for j in jobs] == [7, 8]

    def test_params_are_per_task(self):
        jobs = expand_matrix(
            {
                "graphs": ["hypercube:3"],
                "tasks": ["broadcast", "connectivity"],
                "params": {"broadcast": {"messages": 4}},
            }
        )
        by_task = {j.task: j for j in jobs}
        assert by_task["broadcast"].params == {"messages": 4}
        assert by_task["connectivity"].params == {}

    def test_seeds_and_trials_conflict(self):
        with pytest.raises(GraphValidationError, match="not both"):
            expand_matrix(
                {"graphs": ["hypercube:3"], "seeds": [1], "trials": 2}
            )

    def test_unknown_matrix_field(self):
        with pytest.raises(GraphValidationError, match="valid fields"):
            expand_matrix({"graphs": ["hypercube:3"], "speed": 11})

    def test_params_for_unknown_task(self):
        with pytest.raises(GraphValidationError, match="unknown task"):
            expand_matrix(
                {"graphs": ["hypercube:3"], "params": {"teleport": {}}}
            )


class TestSeedDerivation:
    def test_deterministic(self):
        job = JobSpec(graph="harary:4,12", task="pack_cds")
        assert derive_seed(0, 3, job) == derive_seed(0, 3, job)

    def test_varies_by_position_base_and_identity(self):
        job = JobSpec(graph="harary:4,12", task="pack_cds")
        other = JobSpec(graph="harary:4,12", task="connectivity")
        seeds = {
            derive_seed(0, 0, job),
            derive_seed(0, 1, job),
            derive_seed(1, 0, job),
            derive_seed(0, 0, other),
        }
        assert len(seeds) == 4

    def test_explicit_seed_respected_in_rows(self):
        rows = _jsonl([JobSpec(graph="hypercube:3", seed=42)])
        assert json.loads(rows)["seed"] == 42


class TestDeterministicJsonl:
    def test_same_spec_byte_identical(self):
        assert _jsonl(MATRIX) == _jsonl(MATRIX)

    def test_parallel_matches_serial(self):
        serial = _jsonl(MATRIX)
        parallel = _jsonl(MATRIX, backend="process", workers=2)
        assert parallel == serial

    def test_rows_are_valid_envelopes_in_job_order(self):
        jobs = expand_matrix(MATRIX)
        lines = _jsonl(MATRIX).splitlines()
        assert len(lines) == len(jobs)
        for job, line in zip(jobs, lines):
            row = json.loads(line)
            assert row["graph"] == job.graph
            assert row["task"] == job.task
            assert "timings" not in row

    def test_run_to_jsonl_file(self, tmp_path):
        path = tmp_path / "rows.jsonl"
        results = run_to_jsonl(MATRIX, str(path))
        assert len(path.read_text().splitlines()) == len(results)

    def test_timings_flag_adds_timings(self):
        rows = _jsonl([JobSpec(graph="hypercube:3")], include_timings=True)
        assert "timings" in json.loads(rows)


class TestExecution:
    def test_one_canonicalization_per_graph(self, monkeypatch):
        counts = {"indexed": 0}
        original = IndexedGraph.from_networkx.__func__

        def counting(cls, graph):
            counts["indexed"] += 1
            return original(cls, graph)

        monkeypatch.setattr(
            IndexedGraph, "from_networkx", classmethod(counting)
        )
        run(
            [
                JobSpec(graph="harary:4,12", task="connectivity"),
                JobSpec(graph="harary:4,12", task="pack_cds"),
                JobSpec(graph="harary:4,12", task="broadcast"),
                JobSpec(graph="hypercube:3", task="pack_spanning"),
            ]
        )
        assert counts["indexed"] == 2  # one per distinct graph

    def test_serial_results_keep_raw(self):
        results = run([JobSpec(graph="hypercube:3", task="pack_cds")])
        assert results[0].raw is not None
        assert results[0].raw.packing.size > 0

    def test_error_row_does_not_abort(self):
        results = run(
            [
                JobSpec(graph="mystery:1", task="connectivity"),
                JobSpec(graph="hypercube:3", task="connectivity"),
            ]
        )
        assert "error" in results[0].payload
        assert "unknown graph family" in results[0].payload["error"]
        assert "lower_bound" in results[1].payload

    def test_malformed_params_become_error_rows_not_crashes(self):
        # Non-ReproError failures (TypeError from bad kwargs here) must
        # also produce error rows, serial and parallel alike.
        jobs = [
            JobSpec(
                graph="hypercube:3", task="broadcast",
                params={"messages": "four"},
            ),
            JobSpec(
                graph="harary:4,12", task="connectivity",
                params={"bogus": 1},
            ),
            JobSpec(graph="harary:4,12", task="connectivity"),
        ]
        for backend, workers in ((None, None), ("process", 2)):
            results = run(jobs, backend=backend, workers=workers)
            assert "error" in results[0].payload
            assert "error" in results[1].payload
            assert "lower_bound" in results[2].payload

    def test_matrix_base_seed_is_honored(self):
        matrix = {"graphs": ["hypercube:3"], "tasks": ["pack_cds"]}
        default = _jsonl(matrix)
        reseeded = _jsonl({**matrix, "base_seed": 999})
        assert json.loads(default)["seed"] != json.loads(reseeded)["seed"]
        # an explicit run() argument still wins over the matrix field
        explicit = _jsonl({**matrix, "base_seed": 999}, base_seed=0)
        assert explicit == default

    def test_transport_routing(self):
        results = run(
            [
                JobSpec(
                    graph="harary:4,12", task="broadcast",
                    transport="edge", params={"messages": 4},
                ),
                JobSpec(
                    graph="harary:4,12", task="simulate",
                    transport="e-congest",
                ),
            ]
        )
        assert results[0].payload["transport"] == "edge"
        assert results[1].payload["model"] == "e-congest"

    def test_transport_on_wrong_task(self):
        results = run(
            [JobSpec(graph="hypercube:3", task="pack_cds", transport="edge")]
        )
        assert "error" in results[0].payload

    def test_load_jobs_from_file(self, tmp_path):
        path = tmp_path / "jobs.json"
        path.write_text(json.dumps(MATRIX))
        assert len(load_jobs(str(path))) == 8


class TestBatchSweepBridge:
    """A sweep's jobs file handed to ``batch.run`` by path."""

    def test_sweep_reads_a_jobs_file_once(self, tmp_path, monkeypatch):
        """The rows and the jobs they are paired with come from one read
        of the file."""
        from repro.api import batch as api_batch

        path = tmp_path / "jobs.json"
        path.write_text(json.dumps(
            {"graphs": ["harary:4,12"], "tasks": ["connectivity"],
             "trials": 2}
        ))
        opened = []

        def counting_open(file, *args, **kwargs):
            opened.append(file)
            return open(file, *args, **kwargs)

        monkeypatch.setattr(api_batch, "open", counting_open, raising=False)
        rows = api_batch.run(str(path))
        assert len(rows) == 2
        assert opened.count(str(path)) == 1


#: Five jobs, the third malformed, and the error row the scheduler
#: writes for it.
PLANNED = [
    JobSpec(graph="harary:4,12", task="connectivity", seed=1),
    JobSpec(graph="hypercube:3", task="pack_cds", seed=2),
    JobSpec(graph="harary:4,12", task="simulate", seed=3,
            params={"max_rounds": "lots"}),
    JobSpec(graph="hypercube:3", task="broadcast", seed=4,
            params={"messages": 4}),
    JobSpec(graph="harary:4,12", task="pack_spanning", seed=5),
]
PLANNED_ERROR_ROW = (
    '{"fingerprint":"","graph":"harary:4,12","m":0,"n":0,"params":'
    '{"max_rounds":"lots","transport":null},"payload":{"error":'
    '"field \'max_rounds\' must be an integer, got \'lots\'",'
    '"error_name":"BadRequestError","error_type":"bad-request",'
    '"status":"error"},"seed":3,"task":"simulate","version":1}'
)


class TestPlanning:
    """Every job is decoded once, while the batch plans: a malformed job
    is its error row before any chunk runs, and enters none."""

    @pytest.fixture()
    def planned(self, monkeypatch):
        indexes = []
        execute = backends.ProcessBackend.execute

        def spy(self, chunks, workers, stats):
            indexes.extend(index for chunk in chunks for index, _, _ in chunk)
            return execute(self, chunks, workers, stats)

        monkeypatch.setattr(backends.ProcessBackend, "execute", spy)
        return indexes

    def test_malformed_job_is_its_row_and_in_no_chunk(self, planned):
        lines = _jsonl(PLANNED, backend="process", workers=2).splitlines()
        assert sorted(planned) == [0, 1, 3, 4]
        assert lines[2] == PLANNED_ERROR_ROW
        good = [job for index, job in enumerate(PLANNED) if index != 2]
        assert lines[:2] + lines[3:] == _jsonl(good).splitlines()

    def test_only_malformed_jobs_start_no_pool(self, planned, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a batch of malformed jobs started a pool")

        monkeypatch.setattr(backends, "ProcessPoolExecutor", no_pool)
        stats = {}
        rows = run([PLANNED[2]] * 3, backend="process", workers=2,
                   stats=stats)
        assert stats["chunks"] == 0 and planned == []
        assert [row.canonical_json() for row in rows] == [
            PLANNED_ERROR_ROW
        ] * 3


GRAPH = "harary:4,12"

#: Job files whose fields the table's parsers reject.
MALFORMED_FILES = {
    "trials-text": {"graphs": [GRAPH], "trials": "x"},
    "base_seed-text": {"graphs": [GRAPH], "base_seed": "x"},
    "seeds-int": {"graphs": [GRAPH], "seeds": 5},
    "job-params-text": [{"graph": GRAPH, "params": "x"}],
    "matrix-params-text": {"graphs": [GRAPH], "params": "x"},
    "graphs-text": {"graphs": GRAPH},
    "params-list": {"graphs": [GRAPH], "params": ["ed"]},
}


@pytest.mark.parametrize("name", sorted(MALFORMED_FILES))
def test_malformed_job_file_is_one_typed_error(name, tmp_path, capsys):
    body = MALFORMED_FILES[name]
    path = tmp_path / "jobs.json"
    path.write_text(json.dumps(body))
    assert main(["batch", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith("error: job file: field ")
    reply = ServiceCore().handle({"op": "batch", "jobs": body})
    assert reply["payload"]["error_type"] == "graph", reply
