"""E31: batch scheduler throughput — jobs/sec vs backend × workers.

The batch layer's scaling story rests on two claims: (1) every
registered backend emits **byte-identical** JSONL for the same jobs
file (chunking, worker count, and finish order never leak into the
output), and (2) a sweep whose jobs all hit *one* graph still fans out
(chunk splitting fixed the one-graph parallelism hole). This benchmark
runs a single-graph connectivity matrix through each backend × worker
combination, asserts output bytes match the serial reference, records
jobs/sec → ``BENCH_batch.json`` (via ``run_benchmarks.py --suite
batch``), and for the process plane records the distinct worker pids
actually used.

Gates (hard failures, not timing-sensitive — this container may have
one core, so no speedup gate):

* every backend × worker row is byte-identical to the serial run;
* ``process`` with ≥ 2 workers splits the single-graph matrix into
  ≥ 2 chunks (the parallelism-hole fix, observable without timing).
"""

from __future__ import annotations

import io
import time
from typing import Dict, List


def _matrix(quick: bool) -> Dict:
    # One graph on purpose: the regression this suite pins is the
    # single-graph sweep that previously could never use >1 worker.
    return {
        "graphs": ["harary:4,12"],
        "tasks": ["connectivity"],
        "trials": 12 if quick else 48,
    }


def _plans(quick: bool) -> List[tuple]:
    if quick:
        return [("serial", 1), ("process", 2)]
    return [("serial", 1), ("process", 2), ("process", 4)]


def run(quick: bool = False, repeats: int = 3, seed: int = 0) -> Dict:
    """Time each backend × workers plan; assert byte-identical output."""
    from repro.api import batch

    matrix = _matrix(quick)
    jobs = matrix["trials"]

    reference = io.StringIO()
    batch.run(matrix, base_seed=seed, jsonl=reference)
    reference_bytes = reference.getvalue()

    rows: List[Dict] = []
    for backend, workers in _plans(quick):
        best = float("inf")
        stats: Dict = {}
        for _ in range(repeats):
            stream = io.StringIO()
            stats = {}
            start = time.perf_counter()
            batch.run(
                matrix, base_seed=seed, jsonl=stream,
                backend=backend, workers=workers, stats=stats,
            )
            best = min(best, time.perf_counter() - start)
            if stream.getvalue() != reference_bytes:
                raise AssertionError(
                    f"{backend} x{workers}: output bytes diverged from "
                    "the serial reference"
                )
        if backend == "process" and workers > 1 and stats["chunks"] < 2:
            raise AssertionError(
                f"process x{workers}: single-graph matrix was not split "
                f"(chunks={stats['chunks']}) — the one-graph parallelism "
                "hole is back"
            )
        rows.append(
            {
                "backend": backend,
                "workers": workers,
                "jobs": jobs,
                "chunks": stats["chunks"],
                "distinct_worker_pids": len(stats["worker_pids"]),
                "seconds": round(best, 6),
                "jobs_per_sec": round(jobs / best, 2),
                "identical_to_serial": True,
            }
        )
    return {
        "benchmark": "batch",
        "unit": "jobs/sec (best of repeats, wall clock)",
        "matrix": matrix,
        "repeats": repeats,
        "seed": seed,
        "gate": (
            "byte-identical JSONL across backends; single-graph matrix "
            "splits into >=2 chunks under the process plane"
        ),
        "results": rows,
    }


def format_row(row: Dict) -> str:
    return (
        "{backend:>8} x{workers}  jobs={jobs:<4} chunks={chunks:<3} "
        "pids={distinct_worker_pids}  {seconds:.3f}s  {jobs_per_sec} jobs/s"
    ).format(**row)


def smoke():
    """Tiny run + identity gates for the bench-smoke tier."""
    report = run(quick=True, repeats=1)
    assert report["results"], "batch bench produced no rows"
    for row in report["results"]:
        assert row["identical_to_serial"]
        assert row["jobs_per_sec"] > 0
