"""E31: batch scheduler throughput — jobs/sec, serial vs two processes.

The batch layer's scaling story rests on two claims: (1) every
registered backend emits **byte-identical** JSONL for the same jobs
file (chunking, worker count, and finish order never leak into the
output), and (2) a sweep whose jobs all hit *one* graph still fans out
(chunk splitting fixed the one-graph parallelism hole). This benchmark
runs a single-graph pipeline matrix (connectivity, spanning packing and
broadcast on harary:6,80, 16 trials each) through ``serial`` and
``process`` with two workers, timed by
:func:`benchmarks.conftest.alternating`: one warm-up run each, then
``repeats`` alternating rounds. It records each plan's median seconds
and interquartile range, jobs/sec at the median, its chunks and the
distinct worker pids it used → ``BENCH_batch.json`` (via
``run_benchmarks.py --suite batch``), and whether two processes beat
serial at the median.

Gates (hard failures, not timing-sensitive — a box may have one
schedulable core, so no speedup gate):

* every run of every plan is byte-identical to every other;
* ``process`` with 2 workers splits the single-graph matrix into
  ≥ 2 chunks (the parallelism-hole fix, observable without timing).
"""

from __future__ import annotations

import io
from typing import Dict, List

from benchmarks.conftest import MIN_ROUNDS, alternating

#: Row name → (backend, workers); serial first.
PLANS = {"serial": ("serial", 1), "process x2": ("process", 2)}


def _matrix(quick: bool) -> Dict:
    # One graph on purpose: the regression this suite pins is the
    # single-graph sweep that previously could never use >1 worker.
    # Pipeline-sized jobs, so a pool's start-up cost is not the story.
    return {
        "graphs": ["harary:4,12" if quick else "harary:6,80"],
        "tasks": ["connectivity", "pack_spanning", "broadcast"],
        "trials": 4 if quick else 16,
    }


def run(quick: bool = False, repeats: int = MIN_ROUNDS, seed: int = 0) -> Dict:
    """Time each plan; assert byte-identical output and the split."""
    from repro.api import batch

    matrix = _matrix(quick)
    jobs = len(matrix["tasks"]) * matrix["trials"]
    outputs = set()

    def plan(backend: str, workers: int):
        def once():
            stream = io.StringIO()
            stats: Dict = {}
            batch.run(
                matrix, base_seed=seed, jsonl=stream,
                backend=backend, workers=workers, stats=stats,
            )
            outputs.add(stream.getvalue())
            return stats

        return once

    timings, stats = alternating(
        {name: plan(*p) for name, p in PLANS.items()}, repeats
    )
    if len(outputs) != 1:
        raise AssertionError(
            f"{len(outputs)} distinct JSONL outputs across the plans' runs"
        )
    rows: List[Dict] = []
    for name, (backend, workers) in PLANS.items():
        chunks = stats[name]["chunks"]
        if backend == "process" and workers > 1 and chunks < 2:
            raise AssertionError(
                f"process x{workers}: single-graph matrix was not split "
                f"(chunks={chunks}) — the one-graph parallelism hole is back"
            )
        rows.append(
            {
                "backend": backend,
                "workers": workers,
                "jobs": jobs,
                "chunks": chunks,
                "distinct_worker_pids": len(stats[name]["worker_pids"]),
                **timings[name],
                "jobs_per_sec": round(jobs / timings[name]["median_s"], 2),
                "identical_to_serial": True,
            }
        )
    serial, process = (timings[name]["median_s"] for name in PLANS)
    return {
        "benchmark": "batch",
        "unit": "seconds per run, median and IQR over alternating rounds",
        "matrix": matrix,
        "repeats": repeats,
        "seed": seed,
        "gate": (
            "byte-identical JSONL across runs and backends; single-graph "
            "matrix splits into >=2 chunks under the process plane"
        ),
        "process_x2_beats_serial": process < serial,
        "results": rows,
    }


def format_row(row: Dict) -> str:
    return (
        "{backend:>8} x{workers}  jobs={jobs:<4} chunks={chunks:<3} "
        "pids={distinct_worker_pids}  median {median_s:.3f}s "
        "(IQR {iqr_s:.3f}s)  {jobs_per_sec} jobs/s"
    ).format(**row)


def smoke():
    """Tiny run + identity gates for the bench-smoke tier."""
    report = run(quick=True)
    assert report["results"], "batch bench produced no rows"
    for row in report["results"]:
        assert row["identical_to_serial"]
        assert row["jobs_per_sec"] > 0
