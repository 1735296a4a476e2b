"""Parameter sweep utilities for the experiment harness.

A *sweep* maps a function over a parameter grid with independent seeded
trials per point, collecting :class:`TrialRecord` rows; :func:`aggregate`
reduces them per point (mean/min/max); :func:`loglog_slope` fits the
scaling exponent used by the runtime experiments (E2).

:func:`batch_sweep` is the session-layer form: it feeds a
:class:`repro.api.JobSpec` list (or matrix) through the
:mod:`repro.api.batch` executor — one :class:`~repro.api.GraphSession`
per graph, deterministic per-job seeds, optional process fan-out — and
folds the returned envelopes into the same :class:`TrialRecord` rows,
so the aggregation helpers below work unchanged on API-driven sweeps.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Mapping, Sequence, Tuple

from repro.utils.rng import RngLike, ensure_rng, fresh_seed


@dataclass(frozen=True)
class TrialRecord:
    """One (parameter point, seed) observation."""

    params: Tuple[Tuple[str, Any], ...]
    seed: int
    values: Tuple[Tuple[str, float], ...]

    def param(self, name: str) -> Any:
        return dict(self.params)[name]

    def value(self, name: str) -> float:
        return dict(self.values)[name]


@dataclass
class SweepResult:
    """All observations of a sweep, with aggregation helpers."""

    records: List[TrialRecord] = field(default_factory=list)

    def points(self) -> List[Tuple[Tuple[str, Any], ...]]:
        """Distinct parameter points, in first-seen order."""
        seen = []
        for record in self.records:
            if record.params not in seen:
                seen.append(record.params)
        return seen

    def values_at(
        self, params: Tuple[Tuple[str, Any], ...], name: str
    ) -> List[float]:
        return [
            record.value(name)
            for record in self.records
            if record.params == params
        ]


def sweep(
    fn: Callable[..., Mapping[str, float]],
    grid: Sequence[Mapping[str, Any]],
    trials: int = 1,
    rng: RngLike = None,
) -> SweepResult:
    """Run ``fn(**point, rng=seed)`` for every grid point × trial.

    ``fn`` must return a mapping of metric name → float. Each trial gets
    an independent child seed, so sweeps are reproducible under a single
    top-level seed.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    parent = ensure_rng(rng)
    result = SweepResult()
    for point in grid:
        for _ in range(trials):
            seed = fresh_seed(parent)
            values = fn(**point, rng=seed)
            result.records.append(
                TrialRecord(
                    params=tuple(sorted(point.items(), key=lambda kv: kv[0])),
                    seed=seed,
                    values=tuple(
                        sorted(
                            ((k, float(v)) for k, v in values.items()),
                            key=lambda kv: kv[0],
                        )
                    ),
                )
            )
    return result


def batch_sweep(jobs, base_seed: int = None) -> SweepResult:
    """Run a batch of :class:`repro.api.JobSpec` jobs into a sweep.

    ``jobs`` is anything :func:`repro.api.load_jobs` accepts — an
    explicit job list, a ``graphs × tasks × seeds`` matrix mapping, or a
    JSON file path. Each result envelope becomes one
    :class:`TrialRecord`: the parameter point is (graph, task,
    transport, label) and the values are the envelope's numeric payload
    fields. Failed jobs contribute an ``error = 1.0`` value instead of
    silently vanishing, so aggregate coverage stays visible.
    """
    from repro.api import batch as api_batch

    # One read of a jobs file: the rows are paired with the jobs parsed
    # from the same bytes. run() gets the parsed source, not the job
    # list, so a matrix-level base_seed field still reaches it.
    source = api_batch.read_source(jobs)
    job_list = api_batch.load_jobs(source)
    results = api_batch.run(source, base_seed=base_seed)
    sweep_result = SweepResult()
    for job, envelope in zip(job_list, results):
        point = {"graph": job.graph, "task": job.task}
        if job.transport is not None:
            point["transport"] = job.transport
        if job.label is not None:
            point["label"] = job.label
        if "error" in envelope.payload:
            values = {"error": 1.0}
        else:
            values = {
                name: float(value)
                for name, value in envelope.payload.items()
                if isinstance(value, (int, float))
                and not isinstance(value, bool)
            }
            values["error"] = 0.0
        sweep_result.records.append(
            TrialRecord(
                params=tuple(sorted(point.items(), key=lambda kv: kv[0])),
                seed=envelope.seed,
                values=tuple(sorted(values.items(), key=lambda kv: kv[0])),
            )
        )
    return sweep_result


def aggregate(
    result: SweepResult, metric: str
) -> List[Tuple[Tuple[Tuple[str, Any], ...], float, float, float]]:
    """Per parameter point: (params, mean, min, max) of ``metric``."""
    rows = []
    for point in result.points():
        values = result.values_at(point, metric)
        rows.append((point, statistics.mean(values), min(values), max(values)))
    return rows


def loglog_slope(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Least-squares slope of log(y) vs log(x) — the scaling exponent.

    Used by E2 to check near-linearity (slope ≈ 1) of the centralized
    construction against the Ω(n³) prior work.
    """
    if len(xs) != len(ys) or len(xs) < 2:
        raise ValueError("need at least two (x, y) pairs of equal length")
    if any(x <= 0 for x in xs) or any(y <= 0 for y in ys):
        raise ValueError("log-log fit requires positive values")
    lx = [math.log(x) for x in xs]
    ly = [math.log(y) for y in ys]
    mean_x = statistics.mean(lx)
    mean_y = statistics.mean(ly)
    sxx = sum((a - mean_x) ** 2 for a in lx)
    sxy = sum((a - mean_x) * (b - mean_y) for a, b in zip(lx, ly))
    if sxx == 0:
        raise ValueError("x values are all identical")
    return sxy / sxx
