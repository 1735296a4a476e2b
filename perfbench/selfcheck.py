"""The benchmark's own test: tiny inputs, every workload, both modes.

Run from the root of a checkout: ``python3 perfbench/selfcheck.py``.
It checks that

* ``BENCHMARK.json`` names exactly the metrics and units the benchmark
  reports (``run.END_TO_END`` and ``layers.PER_LAYER``) and keeps to
  its limits;
* every workload, untraced and traced on tiny inputs, exits 0 and ends
  with a result line whose metrics are exactly the declared ones, each
  with its unit, and with no failed op (the traced run also passes the
  wrapper self-check);
* every workload-specific metric appears, with its unit, in the report
  of each workload it is declared for;
* without ``src/`` — a directory holding only ``BENCHMARK.json`` and the
  benchmark — the run exits non-zero and prints no result.

Exits 0 when everything holds and prints each problem otherwise.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import layers  # noqa: E402
import run  # noqa: E402

#: Report-only metrics: ``name -> (unit, workloads)``.
WORKLOAD_METRICS = {
    "error_ratio": ("fraction", tuple(run.WORKLOADS)),
    "ops_per_s": ("ops/s", tuple(run.WORKLOADS)),
    "op_p50_s": ("s", tuple(run.WORKLOADS)),
    "op_tail_s": ("s", tuple(run.WORKLOADS)),
    "cds_packing_size": ("tree_weight", ("pipeline",)),
    "spanning_efficiency": ("ratio", ("pipeline",)),
    "broadcast_rounds": ("rounds", ("pipeline",)),
    "sim_msgs_per_s": ("msgs/s", ("simulate",)),
    "interactive_p50_s": ("s", ("service",)),
    "interactive_p99_s": ("s", ("service",)),
    "interactive_slo_ratio": ("fraction", ("service",)),
    "interactive_lateness_p99_s": ("s", ("service",)),
}
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
RUN_TIMEOUT_S = 300


def check_spec(spec: dict, problems: list) -> None:
    keys = {"command", "paths", "run_seconds", "workloads", "end_to_end",
            "per_layer"}
    if set(spec) != keys:
        problems.append(f"BENCHMARK.json keys {sorted(spec)} != {sorted(keys)}")
    names = []
    for workload in spec["workloads"]:
        if set(workload) != {"name", "why"} or len(workload["why"]) > 200:
            problems.append(f"bad workload entry {workload}")
        names.append(workload["name"])
    if sorted(names) != sorted(run.WORKLOADS):
        problems.append(f"workloads {names} != {sorted(run.WORKLOADS)}")
    declared = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
    if declared != run.END_TO_END:
        problems.append(f"end_to_end {declared} != {run.END_TO_END}")
    for metric in spec["end_to_end"]:
        if set(metric) != {"name", "unit", "better", "bound"} or not (
                0 < metric["bound"] <= 0.25):
            problems.append(f"bad end_to_end entry {metric}")
    declared = [(m["name"], m["unit"]) for m in spec["per_layer"]]
    if declared != layers.PER_LAYER:
        problems.append("per_layer differs from layers.PER_LAYER")
    for metric in spec["end_to_end"] + spec["per_layer"]:
        if not NAME.match(metric["name"]) or not UNIT.match(metric["unit"]) \
                or metric["better"] not in ("higher", "lower"):
            problems.append(f"bad metric entry {metric}")
    everything = names + [m["name"] for m in spec["end_to_end"]
                          + spec["per_layer"]]
    if len(everything) != len(set(everything)):
        problems.append("a name is used twice")


def run_once(cwd: str, workload: str, trace: int):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"),
           "--workload", workload, "--seed", "7", "--seconds", "2",
           "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)


def check_run(spec: dict, workload: str, trace: int, problems: list) -> None:
    label = f"{workload} --trace {trace}"
    done = run_once(os.getcwd(), workload, trace)
    if done.returncode != 0:
        problems.append(f"{label}: exit {done.returncode}: "
                        f"{done.stderr.strip()[-500:]}")
        return
    lines = done.stdout.strip().split("\n")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{label}: result keys {sorted(result)}")
        return
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append(f"{label}: correct={result['correct']} "
                        f"failed={result['failed']}")
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    got = {name: body["unit"] for name, body in result["metrics"].items()}
    if got != {m["name"]: m["unit"] for m in wanted}:
        problems.append(f"{label}: metrics differ from BENCHMARK.json")
    for name, body in result["metrics"].items():
        if not isinstance(body["value"], (int, float)):
            problems.append(f"{label}: {name} is not a number")
    reported = {}
    for line in lines:
        parts = line.split()
        if len(parts) == 5 and parts[0] == "metric" and parts[2] == "=":
            reported[parts[1]] = parts[4]
    for name, (unit, workloads) in WORKLOAD_METRICS.items():
        if workload in workloads and reported.get(name) != unit:
            problems.append(f"{label}: no '{name}' in {unit}")


def check_without_program(problems: list) -> None:
    os.makedirs(".perfbench", exist_ok=True)
    with tempfile.TemporaryDirectory(dir=".perfbench") as bare:
        shutil.copy("BENCHMARK.json", bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        done = run_once(bare, "pipeline", 0)
        if done.returncode == 0 or done.stdout.strip():
            problems.append("without src/ the run did not fail cleanly")


def main() -> int:
    with open("BENCHMARK.json", "r", encoding="utf-8") as handle:
        spec = json.load(handle)
    problems: list = []
    check_spec(spec, problems)
    for workload in run.WORKLOADS:
        for trace in (0, 1):
            check_run(spec, workload, trace, problems)
    check_without_program(problems)
    for problem in problems:
        print(f"selfcheck: {problem}")
    print("selfcheck: ok" if not problems else
          f"selfcheck: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
