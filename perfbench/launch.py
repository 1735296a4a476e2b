"""Traced launcher for the CLI surfaces (``repro serve``, ``repro batch``).

Usage: ``python3 perfbench/launch.py SPANS_OUT OP_ID -- <repro args>``
from the checkout root. Installs the per-layer wrappers of
:mod:`tracing`, then calls ``repro.cli.main`` with the remaining
arguments, and writes the recorded spans (plus the time ``import
repro.cli`` took) to ``SPANS_OUT`` when the command returns. Untraced
runs do not use this file: they start plain ``python -m repro``.
Spans from forked batch workers are not collected; batch per-layer
numbers come from the parent process only.
"""

from __future__ import annotations

import os
import sys
import time


def main(argv) -> int:
    if len(argv) < 3 or argv[2] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    spans_out, op_id, repro_args = argv[0], argv[1], argv[3:]
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    import tracing

    start = time.perf_counter()
    import repro.cli
    import_s = time.perf_counter() - start

    recorder = tracing.Recorder()
    recorder.op = op_id
    tracing.Installation(recorder)
    pid = os.getpid()
    try:
        return repro.cli.main(repro_args)
    finally:
        if os.getpid() == pid:
            recorder.dump(spans_out, {"import_s": import_s})


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
