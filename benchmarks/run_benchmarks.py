"""The one driver of the JSON benchmark suites.

Each suite is a bench module whose ``run(quick, repeats, seed)`` returns
a report dict with its gates already asserted; the driver runs it,
stamps the environment on it and writes one JSON file at the repo root
(the perf trajectory: regressions become diffable numbers instead of
anecdotes). A ``--quick`` run without ``--out`` writes its CI-sized
reports under a fresh temporary directory instead, so it never
overwrites the committed full-size ones; the driver prints every path
it writes:

* ``simulator`` — the round loop vs itself with the column step off →
  ``BENCH_simulator.json`` (:mod:`bench_simulator`, E28; gate ≥ 3× over
  the dict plane on flooding at n = 5000, degree 128).
* ``resilience`` — the corruption sweep of the uncoded flood vs the coded
  defenses → ``BENCH_resilience.json`` (:mod:`bench_resilience`, E27).
  It measures correctness fractions, not timings, so it takes no
  ``--repeats``.
* ``batch`` — batch jobs/sec, serial vs two processes →
  ``BENCH_batch.json`` (:mod:`bench_batch`, E31).

The two timed suites take their numbers by one rule,
:func:`benchmarks.conftest.alternating`: a warm-up run per side, then
``--repeats`` (at least five) rounds alternating which side goes first,
reported as each side's median and interquartile range.

Every report carries an ``env`` block: ``git_sha`` (``git describe
--always --dirty``, so a report from an uncommitted tree says so),
``python``, ``machine``, ``numpy``, ``networkx``, ``cpu_count``,
``schedulable_cpus`` and the 1-minute load average at the suite's start
and end. A flag left unset takes the suite's own ``run`` default.

Run from the repo root::

    PYTHONPATH=src python benchmarks/run_benchmarks.py                 # all
    PYTHONPATH=src python benchmarks/run_benchmarks.py --quick         # CI-sized, temp dir
    PYTHONPATH=src python benchmarks/run_benchmarks.py --suite batch
"""

from __future__ import annotations

import argparse
import importlib
import inspect
import json
import os
import pathlib
import platform
import subprocess
import sys
import tempfile
from typing import Any, Dict, Optional

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
if str(REPO_ROOT) not in sys.path:  # `benchmarks` and `tests` resolve from the root
    sys.path.insert(0, str(REPO_ROOT))

#: suite → (bench module under ``benchmarks/``, report file at the root).
SUITES = {
    "simulator": ("bench_simulator", "BENCH_simulator.json"),
    "resilience": ("bench_resilience", "BENCH_resilience.json"),
    "batch": ("bench_batch", "BENCH_batch.json"),
}


def _git_sha() -> Optional[str]:
    try:
        done = subprocess.run(
            ["git", "describe", "--always", "--dirty"], cwd=REPO_ROOT,
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() or None if done.returncode == 0 else None


def environment(loadavg_start: float) -> Dict[str, Any]:
    """The ``env`` block: what ran the suite, and how loaded the host was."""
    import networkx
    import numpy

    from repro.api.backends import schedulable_cpus

    return {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "numpy": numpy.__version__,
        "networkx": networkx.__version__,
        "cpu_count": os.cpu_count(),
        "schedulable_cpus": schedulable_cpus(),
        "loadavg_1m_start": loadavg_start,
        "loadavg_1m_end": os.getloadavg()[0],
    }


def run_suite(
    suite: str, args: argparse.Namespace, out_dir: pathlib.Path
) -> None:
    """Run one suite and write its report, ``env`` stamped on it, to
    ``--out`` or to its file under ``out_dir``."""
    module_name, filename = SUITES[suite]
    module = importlib.import_module(f"benchmarks.{module_name}")
    accepted = inspect.signature(module.run).parameters
    given = {"quick": args.quick, "repeats": args.repeats, "seed": args.seed}
    loadavg_start = os.getloadavg()[0]
    report = module.run(**{
        name: value for name, value in given.items()
        if value is not None and name in accepted
    })
    report["env"] = environment(loadavg_start)
    out = args.out or out_dir / filename
    out.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    for row in report["results"]:
        print(module.format_row(row))
    print(f"wrote {out}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true", help="small graphs (CI-sized run)"
    )
    parser.add_argument(
        "--suite", choices=["all", *SUITES], default="all",
        help="which benchmark suite(s) to run",
    )
    parser.add_argument(
        "--repeats", type=int, default=None,
        help="timing repeats (default: the suite's own)",
    )
    parser.add_argument(
        "--seed", type=int, default=None,
        help="seed (default: the suite's own)",
    )
    parser.add_argument(
        "--out", type=pathlib.Path, default=None,
        help="output JSON path for a single --suite (default: the repo "
        "root; a fresh temporary directory with --quick)",
    )
    args = parser.parse_args(argv)
    if args.repeats is not None and args.repeats < 1:
        parser.error("--repeats must be >= 1")
    if args.out is not None and args.suite == "all":
        parser.error("--out needs a single --suite")
    out_dir = REPO_ROOT
    if args.quick and args.out is None:
        out_dir = pathlib.Path(tempfile.mkdtemp(prefix="bench-quick-"))
    for suite in SUITES if args.suite == "all" else [args.suite]:
        run_suite(suite, args, out_dir)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
