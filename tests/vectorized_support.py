"""Shared gating for vectorized-engine tests.

The columnar engine needs numpy, which is a soft dependency — the suite must pass (with clean skips) where numpy is
absent. ``REPRO_VECTORIZED_TESTS=1`` forces the rows on (CI's
engine-equivalence job sets it so a broken numpy install fails loudly
instead of skipping silently); ``REPRO_VECTORIZED_TESTS=0`` forces them
off; otherwise they default on exactly when numpy imports.
"""

from __future__ import annotations

import os

from repro.simulator.runner_vectorized import numpy_available

_FLAG = os.environ.get("REPRO_VECTORIZED_TESTS")

VECTORIZED_TESTS_OK = _FLAG == "1" or (_FLAG != "0" and numpy_available())

VECTORIZED_SKIP_REASON = (
    "vectorized engine tests disabled (numpy missing and "
    "REPRO_VECTORIZED_TESTS not forced on)"
)
