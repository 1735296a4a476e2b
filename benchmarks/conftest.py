"""Benchmark helpers: compact table printing and the one timing rule.

Each benchmark regenerates one experiment of the index in DESIGN.md §5,
printing the paper's claim next to the measured values (EXPERIMENTS.md
records a snapshot of these tables). Timings come from pytest-benchmark;
the printed tables carry the scientific content. The JSON suites that
compare two ways to run one workload time them with :func:`alternating`.
"""

from __future__ import annotations

import gc
import statistics
import time
from typing import Callable, Dict, Iterable, Mapping, Sequence, Tuple

#: The fewest timed rounds :func:`alternating` accepts.
MIN_ROUNDS = 5


def print_table(title: str, headers: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Print an aligned results table to the benchmark log."""
    rows = [[_fmt(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    line = "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers))
    print(f"\n== {title} ==")
    print(line)
    print("-" * len(line))
    for row in rows:
        print("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))


def _fmt(cell) -> str:
    if isinstance(cell, float):
        return f"{cell:.3f}"
    return str(cell)


def alternating(
    sides: Mapping[str, Callable[[], object]], rounds: int = MIN_ROUNDS
) -> Tuple[Dict[str, Dict], Dict[str, object]]:
    """Time every side of a comparison by one rule.

    Each side runs once untimed, to warm imports and caches. Then come
    ``rounds`` timed rounds, each running every side once; round ``r``
    starts at side ``r`` (mod the number of sides), so with two sides
    the one that goes first alternates and drift in the host's load
    falls on both alike. Returns ``({side: {"median_s", "iqr_s"}},
    {side: its last result})``.
    """
    if rounds < MIN_ROUNDS:
        raise ValueError(f"alternating timing needs >= {MIN_ROUNDS} rounds")
    names = list(sides)
    last = {name: sides[name]() for name in names}
    samples: Dict[str, list] = {name: [] for name in names}
    for r in range(rounds):
        shift = r % len(names)
        for name in names[shift:] + names[:shift]:
            gc.collect()  # no earlier run's garbage in this sample
            start = time.perf_counter()
            last[name] = sides[name]()
            samples[name].append(time.perf_counter() - start)
    timings = {}
    for name, seconds in samples.items():
        q1, _, q3 = statistics.quantiles(seconds, n=4, method="inclusive")
        timings[name] = {
            "median_s": round(statistics.median(seconds), 6),
            "iqr_s": round(q3 - q1, 6),
        }
    return timings, last
