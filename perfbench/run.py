"""The repository benchmark: four workloads over the public surfaces.

Run from the root of a checkout::

    python3 perfbench/run.py --workload pipeline --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` measures half the time untraced and half traced, and
reports the per-layer metrics of the traced half plus the tracing
overhead (untraced ÷ traced ``ops_per_s``). Human-readable lines come
first; the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``. The program is
imported from ``src/`` of the current directory and nowhere else; the
run fails without printing a result when that tree is missing.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
if HERE not in sys.path:
    sys.path.insert(0, HERE)

import batch  # noqa: E402
import layers  # noqa: E402
import pipeline  # noqa: E402
import service  # noqa: E402
import simulate  # noqa: E402
import tracing  # noqa: E402
from common import (  # noqa: E402
    Context, environment, fast_ops_per_s, op_quantiles, peak_rss_self_mb,
)

WORKLOADS = {
    "pipeline": pipeline,
    "simulate": simulate,
    "service": service,
    "batch": batch,
}
#: Workloads measured inside this process; the others run the program
#: as subprocesses and trace it through ``launch.py``.
IN_PROCESS = ("pipeline", "simulate")

#: End-to-end metrics every workload reports in its result line:
#: ``(name, unit)``. ``ops_per_s``, ``op_p50_s`` and ``op_tail_s`` move
#: with the shared host's speed state as much as with the program, so
#: every workload prints them in its report but the result line carries
#: the fast-state throughput instead (see ``common.fast_ops_per_s``).
END_TO_END = [
    ("setup_s", "s"),
    ("fast_ops_per_s", "ops/s"),
    ("peak_rss_mb", "MiB"),
]

#: The workload seed used when none is given (README.md also names a
#: held-out seed for confirming a claimed gain).
DEFAULT_SEED = 1


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs (the benchmark's own self-check)")
    return parser.parse_args(argv)


def _load_subprocess_spans(paths):
    spans, fired, imports = [], {}, []
    for path in paths:
        if not os.path.exists(path):
            continue
        more, more_fired, extra = tracing.load_spans(path)
        spans.extend(more)
        for name, count in more_fired.items():
            fired[name] = fired.get(name, 0) + count
        imports.append(extra["import_s"])
    return spans, fired, imports


def _end_to_end(outcome, setup_s):
    """The result-line metrics, the report-only timings as
    ``name -> (value, unit)``, and a note on the tail percentile."""
    p50, (value, pct, beyond) = op_quantiles(
        outcome.op_s, outcome.op_key, outcome.tail_basis)
    metrics = {
        "setup_s": setup_s,
        "fast_ops_per_s": fast_ops_per_s(outcome.op_s, outcome.op_key),
        "peak_rss_mb": outcome.peak_rss_mb,
    }
    timings = {
        "ops_per_s": (outcome.ops_per_s, "ops/s"),
        "op_p50_s": (p50, "s"),
        "op_tail_s": (value, "s"),
    }
    note = (f"op_tail_s is p{pct:g} of {len(outcome.op_s)} ops "
            f"({beyond} beyond it) of {len(set(outcome.op_key))} inputs")
    return metrics, timings, note


def main(argv=None) -> int:
    args = _parse(argv)
    loadavg_start = os.getloadavg()[0]
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print(f"perfbench: no program at {src}/repro; run from the root of "
              "a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    found = importlib.util.find_spec("repro")
    if found is None or not os.path.abspath(found.origin).startswith(
            src + os.sep):
        print(f"perfbench: repro resolves outside {src}", file=sys.stderr)
        return 2

    workdir = os.path.join(root, ".perfbench",
                           f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    module = WORKLOADS[args.workload]
    ctx = Context(root=root, seed=args.seed, smoke=args.smoke,
                  workdir=workdir)
    state, setup_s = module.setup(ctx)
    try:
        if args.trace == 0:
            phases = [module.measure(state, ctx, args.seconds)]
        else:
            half = args.seconds / 2.0
            untraced = module.measure(state, ctx, half)
            recorder = tracing.Recorder()
            installed = None
            if args.workload in IN_PROCESS:
                installed = tracing.Installation(recorder)
            try:
                traced = module.measure(state, ctx, half, recorder)
            finally:
                if installed is not None:
                    installed.remove()
            phases = [untraced, traced]
    finally:
        module.close(state)

    env = environment(root, loadavg_start)
    outcome = phases[-1]
    if args.workload in IN_PROCESS:
        phases[0].peak_rss_mb = peak_rss_self_mb()
    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    env["loadavg_1m_end"] = os.getloadavg()[0]

    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("env " + json.dumps(env, sort_keys=True))
    e2e, timings, note = _end_to_end(phases[0], setup_s)
    extra = dict(phases[0].extra, **timings)
    extra["error_ratio"] = (failed / attempted if attempted else 1.0,
                            "fraction")
    units = dict(END_TO_END)
    for name, value in e2e.items():
        print(f"metric {name} = {value:.6g} {units[name]}")
    for name, (value, unit) in sorted(extra.items()):
        print(f"metric {name} = {value:.6g} {unit}")
    print(note)
    for phase in phases:
        for message in phase.failures:
            print(f"check failed: {message}")

    if args.trace == 0:
        metrics = {name: {"value": e2e[name], "unit": unit}
                   for name, unit in END_TO_END}
    else:
        spans = list(recorder.spans)
        fired = dict(recorder.fired)
        sub_spans, sub_fired, imports = _load_subprocess_spans(
            outcome.context.get("spans_files", ()))
        spans.extend(sub_spans)
        for name, count in sub_fired.items():
            fired[name] = fired.get(name, 0) + count
        recorder.spans = spans
        recorder.dump(os.path.join(workdir, "trace.json"))
        context = dict(outcome.context, import_s=imports)
        overhead = (untraced.ops_per_s / traced.ops_per_s
                    if traced.ops_per_s else 0.0)
        values = layers.per_layer(spans, len(outcome.op_s), context, overhead)
        for name, unit in layers.PER_LAYER:
            print(f"layer {name} = {values[name]:.6g} {unit}")
        missing = tracing.missing_wrappers(args.workload, fired)
        if missing:
            print("perfbench: wrapper self-check failed; these wrappers "
                  "never fired: " + ", ".join(missing), file=sys.stderr)
            return 3
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in layers.PER_LAYER}

    if not os.listdir(workdir):
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
