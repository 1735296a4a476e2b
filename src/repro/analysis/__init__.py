"""Experiment plumbing: the claim-vs-measured report, workload shapes
and figure renderings.

The benchmark harness (``benchmarks/``) prints claim-vs-measured tables;
this subpackage holds the reusable pieces behind them, so downstream
users can measure their own graphs against the library. Sweeps over
jobs run through :func:`repro.api.batch.run`.
"""

from repro.analysis.report import full_report, render_markdown_table
from repro.analysis.workloads import (
    balanced_workload,
    single_source_workload,
    skewed_workload,
    uniform_workload,
)

__all__ = [
    "full_report",
    "render_markdown_table",
    "uniform_workload",
    "balanced_workload",
    "skewed_workload",
    "single_source_workload",
]
