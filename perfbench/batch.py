"""``batch``: one cold ``python -m repro batch`` process per op.

Each op runs a fixed matrix of 400 tiny jobs (5 small graphs ×
connectivity/pack_spanning/broadcast/simulate × 20 trials) on the
process backend with one worker per schedulable core, a checkpoint
manifest and a JSONL sink. Per-job work is tiny, so import, chunk
planning, the process pool, envelope encoding and the manifest and
JSONL writes dominate: the same session layer as ``pipeline`` at the
opposite job size, and the only workload that reaches
``api.backends`` and the write path.
"""

from __future__ import annotations

import io
import json
import os
import subprocess
import sys

from common import (
    Context, Outcome, clock, peak_rss_children_mb, schedulable_cpus,
    timed_setup,
)

#: Fixed families: the seed drives the per-job seeds (``base_seed``), so
#: every run does statistically the same work.
GRAPHS = ("harary:4,16", "hypercube:4", "torus:4,5", "fat_cycle:2,8",
          "clique_chain:3,6")
TASKS = ("connectivity", "pack_spanning", "broadcast", "simulate")
TRIALS = 20
SMOKE_TRIALS = 2
#: Ops every run makes however soon the time is up. Too few for a
#: ladder percentile with ten ops beyond it, so the tail is their maximum.
MIN_OPS = 8
SMOKE_MIN_OPS = 2
OP_TIMEOUT_S = 170


def _matrix(ctx: Context, trials: int) -> dict:
    return {
        "graphs": list(GRAPHS),
        "tasks": list(TASKS),
        "trials": trials,
        "base_seed": ctx.seed,
    }


def _write_json(path: str, body) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(body, handle)


def _cli(ctx: Context, jobs: str, out: str, manifest: str,
         spans_out: str = None, op: int = 0):
    args = ["batch", jobs, "--backend", "process",
            "--workers", str(schedulable_cpus()),
            "--checkpoint", manifest, "--out", out]
    if spans_out is None:
        cmd = [sys.executable, "-m", "repro", *args]
    else:
        cmd = [sys.executable, os.path.join("perfbench", "launch.py"),
               spans_out, str(op), "--", *args]
    return subprocess.run(cmd, cwd=ctx.root, env=ctx.child_env(),
                          capture_output=True, text=True,
                          timeout=OP_TIMEOUT_S)


def setup(ctx: Context):
    start = clock()
    from repro.api import batch as api_batch
    import_s = clock() - start
    jobs = os.path.join(ctx.workdir, "jobs.json")
    warm_jobs = os.path.join(ctx.workdir, "warmup.json")
    out = os.path.join(ctx.workdir, "out.jsonl")
    manifest = os.path.join(ctx.workdir, "manifest")
    trials = SMOKE_TRIALS if ctx.smoke else TRIALS

    def prepare():
        _write_json(jobs, _matrix(ctx, trials))
        _write_json(warm_jobs, _matrix(ctx, 1))
        # Warm-up: one cold CLI process on a 20-job file.
        done = _cli(ctx, warm_jobs, out, manifest)
        if done.returncode != 0:
            raise RuntimeError(f"warm-up batch failed: {done.stderr}")

    _, prepare_s = timed_setup(prepare)
    # The oracle, not user set-up: a serial in-process run of the same
    # file, computed once. Every op's JSONL must equal it byte for byte.
    sink = io.StringIO()
    results = api_batch.run(jobs, jsonl=sink, backend="serial")
    errors = sum(1 for result in results if api_batch.is_error_row(result))
    if errors:
        raise RuntimeError(f"serial reference run has {errors} error rows")
    state = {"jobs": jobs, "warm_jobs": warm_jobs, "out": out,
             "manifest": manifest,
             "reference": sink.getvalue().encode("utf-8")}
    return state, import_s + prepare_s


def measure(state, ctx: Context, seconds: float, recorder=None) -> Outcome:
    min_ops = SMOKE_MIN_OPS if ctx.smoke else MIN_OPS
    out = Outcome(tail_basis=min_ops)
    spans_files = []
    start = clock()
    op = 0
    while op < min_ops or clock() - start < seconds:
        for path in (state["out"], state["manifest"]):
            if os.path.exists(path):
                os.remove(path)
        spans_out = None
        if recorder is not None:
            spans_out = os.path.join(ctx.workdir, f"batch-spans-{op}.json")
            spans_files.append(spans_out)
        out.attempted += 1
        began = clock()
        done = _cli(ctx, state["jobs"], state["out"], state["manifest"],
                    spans_out, op)
        elapsed = clock() - began
        op += 1
        if done.returncode != 0:
            out.fail(f"op {op - 1}: exit {done.returncode}: "
                     f"{done.stderr.strip()[-300:]}")
            continue
        out.op_s.append(elapsed)
        out.op_key.append("batch")
        out.busy_s += elapsed
        with open(state["out"], "rb") as handle:
            if handle.read() != state["reference"]:
                out.fail(f"op {op - 1}: JSONL differs from the serial "
                         "in-process run")
    out.peak_rss_mb = peak_rss_children_mb()
    out.context["spans_files"] = spans_files
    return out


def close(state) -> None:
    for key in ("out", "manifest", "jobs", "warm_jobs"):
        path = state.get(key)
        if path and os.path.exists(path):
            os.remove(path)
