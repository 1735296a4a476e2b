"""Experiment plumbing: the claim-vs-measured report, workload shapes
and figure renderings.

The benchmark harness (``benchmarks/``) prints claim-vs-measured tables;
this subpackage holds the reusable pieces behind them, so downstream
users can measure their own graphs against the library. Sweeps over
jobs run through :func:`repro.api.batch.run`.
"""
