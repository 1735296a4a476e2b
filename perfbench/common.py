"""Shared pieces: run context, statistics, environment, memory, loops."""

from __future__ import annotations

import gc
import os
import resource
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

clock = time.perf_counter

#: How many times a run repeats its set-up; ``setup_s`` is the median.
SETUP_REPEATS = 5

#: Ops a tail percentile must leave beyond it.
TAIL_BEYOND = 10
TAIL_LADDER = (99.0, 95.0, 90.0, 75.0, 50.0)


@dataclass
class Context:
    """What every workload gets: the checkout, the seed, the size."""

    root: str
    seed: int
    smoke: bool
    workdir: str

    @property
    def src(self) -> str:
        return os.path.join(self.root, "src")

    def child_env(self) -> Dict[str, str]:
        env = dict(os.environ)
        env["PYTHONPATH"] = self.src
        return env


@dataclass
class Outcome:
    """One measured phase of a workload.

    ``op_s`` are per-op latencies and ``op_key`` the input each op ran
    (its rotation entry or request type plus its graph or seed draw);
    ``busy_s`` is the wall time
    the ops took (their sum for a single-client closed loop, the loop's
    span for the service). ``tail_basis`` is the op count every run of
    the workload reaches (one whole cycle, or the loop's minimum), which
    picks the tail percentile. ``extra`` carries workload-specific end-to-end
    metrics as ``name -> (value, unit)``; ``context`` is whatever the
    per-layer aggregation needs (op → rotation entry, spans files, …).
    """

    op_s: List[float] = field(default_factory=list)
    op_key: List[str] = field(default_factory=list)
    busy_s: float = 0.0
    tail_basis: int = 0
    attempted: int = 0
    failed: int = 0
    failures: List[str] = field(default_factory=list)
    extra: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    peak_rss_mb: float = 0.0
    context: Dict[str, Any] = field(default_factory=dict)

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(message)

    @property
    def ops_per_s(self) -> float:
        return len(self.op_s) / self.busy_s if self.busy_s > 0 else 0.0


# -- statistics ---------------------------------------------------------------


def median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    if not ordered:
        return 0.0
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def percentile(values: Sequence[float], pct: float) -> float:
    """Linear interpolation between closest ranks."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = (len(ordered) - 1) * pct / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def tail_percentile(basis: int) -> float:
    """The highest :data:`TAIL_LADDER` percentile that leaves at least
    :data:`TAIL_BEYOND` of ``basis`` ops beyond it; 100 (the maximum)
    when none does."""
    for pct in TAIL_LADDER:
        if basis - 1 - int((basis - 1) * pct / 100.0) >= TAIL_BEYOND:
            return pct
    return 100.0


def op_quantiles(
    op_s: Sequence[float], op_key: Sequence[str], basis: int
) -> Tuple[float, Tuple[float, float, int]]:
    """``(p50, (tail, percentile, ops beyond it))`` of a fixed mix of
    inputs.

    For the median each op counts at the median latency of its input:
    the mix is the same in every run, so a median that falls between
    two inputs reads the medians of those inputs, not the extremes of a
    few samples, which would make it jump from run to run. The tail is a
    percentile of the raw latencies, so a slow op of any input can move
    it. Its percentile comes from ``basis``, the op count every run
    reaches, not from the count this run reached: a percentile picked by
    op count would change whenever a change made ops faster or slower.
    """
    by_key: Dict[str, List[float]] = {}
    for key, value in zip(op_key, op_s):
        by_key.setdefault(key, []).append(value)
    key_median = {key: median(values) for key, values in by_key.items()}
    p50 = median([key_median[key] for key in op_key])
    pct = tail_percentile(basis)
    value = percentile(op_s, pct)
    beyond = sum(1 for latency in op_s if latency > value)
    return p50, (value, pct, beyond)


def fast_ops_per_s(op_s: Sequence[float], op_key: Sequence[str]) -> float:
    """Ops per second of the run's mix with every input at the fastest
    latency it had in the run.

    The shared host this runs on switches between a fast and a slow
    state that each last seconds to tens of seconds, and a run's mean or
    median moves with the share of it that fell in the slow state. The
    work of an input is fixed by the seed, so its fastest run reads the
    fast state whenever the run saw it even briefly, and moves with the
    program, not with the neighbours. Each input keeps its weight in the
    mix, so a slow input still counts in full.
    """
    fastest: Dict[str, float] = {}
    for key, value in zip(op_key, op_s):
        fastest[key] = min(value, fastest.get(key, value))
    total = sum(fastest[key] for key in op_key)
    return len(op_key) / total if total > 0 else 0.0


def mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0


# -- environment and memory ---------------------------------------------------


def _git_sha(root: str) -> Optional[str]:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() or None if done.returncode == 0 else None


def environment(root: str, loadavg_start: float) -> Dict[str, Any]:
    import networkx
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "git_sha": _git_sha(root),
        "python": sys.version.split()[0],
        "numpy": numpy_version,
        "networkx": networkx.__version__,
        "cpu_count": os.cpu_count(),
        "schedulable_cpus": len(os.sched_getaffinity(0)),
        "loadavg_1m_start": loadavg_start,
    }


def schedulable_cpus() -> int:
    return len(os.sched_getaffinity(0))


def peak_rss_self_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def peak_rss_children_mb() -> float:
    """Largest resident set among waited-for descendants (a CLI process
    and the pool workers it waited for)."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def vm_hwm_mb(pid: int) -> float:
    """A live process's peak resident set (``VmHWM``)."""
    with open(f"/proc/{pid}/status", "r", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


# -- loops --------------------------------------------------------------------


def timed_setup(prepare: Callable[[], Any]) -> Tuple[Any, float]:
    """Run ``prepare`` :data:`SETUP_REPEATS` times; keep the last state
    and return the median duration. The previous state is dropped and
    collected (untimed) before each repeat, so the repeats do not add
    to the peak resident set."""
    durations = []
    state = None
    for _ in range(SETUP_REPEATS):
        state = None
        gc.collect()
        start = clock()
        state = prepare()
        durations.append(clock() - start)
    return state, median(durations)


#: Whole cycles a rotation runs however soon the time is up.
MIN_CYCLES = 4


def rotations(
    seconds: float, entries: int, run_op: Callable[[int], None]
) -> None:
    """Closed loop over whole cycles of ``entries`` ops until
    ``seconds`` have passed and at least :data:`MIN_CYCLES` cycles ran.

    Every input of the cycle runs equally often, so the inputs, medians
    and per-entry means do not depend on where the clock ran out.
    Successive ops run on successive schedulable cores: a shared host
    slows its cores one at a time, and a loop the kernel leaves on one
    core would read only that core's neighbours.
    """
    cores = sorted(os.sched_getaffinity(0))
    start = clock()
    op = 0
    cycles = 0
    try:
        while True:
            for _ in range(entries):
                os.sched_setaffinity(0, {cores[op % len(cores)]})
                run_op(op)
                op += 1
            cycles += 1
            if cycles >= MIN_CYCLES and clock() - start >= seconds:
                return
    finally:
        os.sched_setaffinity(0, cores)
