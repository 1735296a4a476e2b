"""Benchmark helpers: compact table printing and best-of timing.

Each benchmark regenerates one experiment of the index in DESIGN.md §5,
printing the paper's claim next to the measured values (EXPERIMENTS.md
records a snapshot of these tables). Timings come from pytest-benchmark;
the printed tables carry the scientific content.
"""

from __future__ import annotations

import time
from typing import Callable, Iterable, Sequence, Tuple


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


def best_of(fn: Callable[[], object], repeats: int) -> Tuple[float, object]:
    """``(fastest wall seconds over repeats, the last result)``."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - start
        best = min(best, elapsed)
    return best, result
