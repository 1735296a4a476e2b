"""Select the delivery path of every simulation inside a ``with`` block.

The equivalence suites and ``benchmarks/bench_simulator.py`` run the
same workload down each path and compare the outputs.
"""

from __future__ import annotations

import contextlib

from repro.simulator import runner
from tests.oracles.runner_reference import _run_reference

#: What each round-loop name patches in :mod:`repro.simulator.runner`.
ROUND_LOOPS = {
    # The shipped loop with its measured rule.
    "default": {},
    # The column step on every round it can take: honest broadcast
    # rounds over the network adjacency.
    "column": {"COLUMN_MIN_FANOUT": 0, "COLUMN_MIN_EDGE_SHARE": 0},
    # The dict plane only.
    "dict": {"COLUMN_MIN_FANOUT": float("inf")},
    # The preserved pre-engine loop, the independent oracle.
    "reference": {"_run_rounds": _run_reference},
}


@contextlib.contextmanager
def round_loop(name: str):
    """Run the simulations inside on ``ROUND_LOOPS[name]``; the patches
    are undone on exit."""
    patches = ROUND_LOOPS[name]
    saved = {attr: getattr(runner, attr) for attr in patches}
    for attr, value in patches.items():
        setattr(runner, attr, value)
    try:
        yield
    finally:
        for attr, value in saved.items():
            setattr(runner, attr, value)
